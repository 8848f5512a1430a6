import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kvcompactor
from kvcompactor import CalibrationModel, calib_value, invert_retention
from kvcompactor.harness.cli import main


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def write_policy(path, kind="leverage_only", retention=0.5, **overrides):
    doc = {
        "kind": kind,
        "lambda": 0.3,
        "retention": retention,
        "sketch": {"kind": "gaussian", "k": 64, "seed": 0},
        "attn": {
            "chunk_size": 64,
            "pool_window": 7,
            "scale": None,
            "value_norm": True,
            "baseline_window": 8,
            "snap_keep_window": True,
        },
        "seed": 0,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture()
def bundle_path(tmp_path, capsys):
    path = tmp_path / "b.kvt"
    code, _, _ = run(
        capsys, "synth", "--profile", "needle", "--n", 120, "--d", 16, "--needles", 1, "--seed", 3, "--out", path
    )
    assert code == 0
    return path


class TestPipeline:
    def test_synth_evict_apply_deterministic(self, tmp_path, capsys):
        outputs = []
        for tag in ("one", "two"):
            b = tmp_path / f"{tag}.kvt"
            plan = tmp_path / f"{tag}.json"
            compact = tmp_path / f"{tag}.out.kvt"
            policy = write_policy(tmp_path / f"{tag}.policy.json", kind="compactor", retention=0.25)
            assert run(capsys, "synth", "--profile", "needle", "--n", 150, "--d", 32, "--seed", 11, "--out", b)[0] == 0
            assert run(capsys, "evict", "--bundle", b, "--policy", policy, "--out", plan)[0] == 0
            assert run(capsys, "apply", "--bundle", b, "--plan", plan, "--out", compact)[0] == 0
            outputs.append((b.read_bytes(), plan.read_bytes(), compact.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_evict_retention_override(self, tmp_path, capsys, bundle_path):
        policy = write_policy(tmp_path / "p.json", retention=0.5)
        plan = tmp_path / "plan.json"
        code, _, _ = run(capsys, "evict", "--bundle", bundle_path, "--policy", policy, "--retention", 0.1, "--out", plan)
        assert code == 0
        doc = json.loads(plan.read_text())
        assert doc["retention_target"] == 0.1
        assert len(doc["layers"][0][0]) == 12

    def test_score_csv(self, tmp_path, capsys, bundle_path):
        policy = write_policy(tmp_path / "p.json", kind="compactor")
        out = tmp_path / "scores.csv"
        code, _, _ = run(capsys, "score", "--bundle", bundle_path, "--policy", policy, "--out", out)
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 120
        assert {row["layer"] for row in rows} == {"0"}
        float(rows[0]["score"])

    def test_score_random_policy_rejected(self, tmp_path, capsys, bundle_path):
        policy = write_policy(tmp_path / "p.json", kind="random")
        code, _, err = run(capsys, "score", "--bundle", bundle_path, "--policy", policy, "--out", tmp_path / "s.csv")
        assert code == 2
        assert "random" in err

    def test_missing_bundle_is_input_error(self, tmp_path, capsys):
        policy = write_policy(tmp_path / "p.json")
        code, _, err = run(capsys, "evict", "--bundle", tmp_path / "nope.kvt", "--policy", policy, "--out", tmp_path / "x")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "override",
        [
            {"attn": {"chunk": 3}},
            {"sketch": {"kind": "gaussian", "k": "8", "seed": 0}},
            {"lambda": "0.3"},
            {"attn": 5},
        ],
        ids=["unknown_attn_key", "string_sketch_k", "string_lambda", "scalar_attn"],
    )
    def test_malformed_policy_is_input_error(self, tmp_path, capsys, bundle_path, override):
        policy = write_policy(tmp_path / "p.json", **override)
        code, _, err = run(capsys, "evict", "--bundle", bundle_path, "--policy", policy, "--out", tmp_path / "x")
        assert code == 2
        assert err.startswith("error:") and str(policy) in err

    @pytest.mark.parametrize(
        "command, field, value",
        [
            ("evict", ("sketch", "k"), 8.5),
            ("evict", ("sketch", "seed"), 1.5),
            ("evict", ("attn", "chunk_size"), 64.0),
            ("evict", ("attn", "baseline_window"), 8.5),
            ("evict", ("attn", "pool_window"), 7.0),
            ("evict", ("attn", "value_norm"), "false"),
            ("evict", ("attn", "snap_keep_window"), 1),
            ("evict", ("attn", "scale"), "1"),
            ("evict", ("retention",), "0.5"),
            ("evict", ("retention",), True),
            ("evict", ("retention",), [0.5, "0.5"]),
            ("evict", ("seed",), 0.5),
            ("evict", ("lambda",), True),
            ("evict", ("lambda",), float("nan")),
            ("calib", ("alpha",), "0.2"),
            ("calib", ("beta",), True),
            ("calib", ("n_points",), 9.5),
            ("calib", (), [0.2, 1.0]),
        ],
        ids=[
            "float_sketch_k", "float_sketch_seed", "float_chunk_size", "float_baseline_window", "float_pool_window",
            "string_value_norm", "int_snap_keep_window", "string_scale", "string_retention", "bool_retention",
            "string_layer_retention", "float_seed", "bool_lambda", "nan_lambda",
            "model_string_alpha", "model_bool_beta", "model_float_n_points", "model_not_object",
        ],
    )
    def test_mistyped_field_is_input_error(self, tmp_path, capsys, bundle_path, command, field, value):
        if command == "evict":
            path = write_policy(tmp_path / "p.json")
            argv = ["evict", "--bundle", bundle_path, "--policy", path, "--out", tmp_path / "x"]
        else:
            path = tmp_path / "m.json"
            path.write_text(json.dumps({"alpha": 0.2, "beta": 1.0, "k_min": 1e-3, "fit_rmse": 0.0, "n_points": 9}))
            argv = ["calib", "plan", "--model", path, "--nll", 1.0]
        doc = json.loads(path.read_text())
        if field:
            *outer, last = field
            target = doc
            for key in outer:
                target = target[key]
            target[last] = value
        else:
            doc = value
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:") and str(path) in err

    def test_plan_head_counts_differ_is_input_error(self, tmp_path, capsys):
        bundle = tmp_path / "b.kvt"
        code, _, _ = run(
            capsys, "synth", "--profile", "gaussian_iid", "--n", 4, "--d", 2, "--layers", 2, "--heads", 2, "--out", bundle
        )
        assert code == 0
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(
            {"version": 1, "retention_target": 0.5, "policy_name": "x", "seed": None, "layers": [[[0, 1], [0, 1]], [[0, 1]]]}
        ))
        code, _, err = run(capsys, "apply", "--bundle", bundle, "--plan", plan, "--out", tmp_path / "o.kvt")
        assert code == 2
        assert err.startswith("error:")

    def test_bad_magic_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.kvt"
        bad.write_bytes(b"XXXX" + b"\x00" * 64)
        policy = write_policy(tmp_path / "p.json")
        code, _, _ = run(capsys, "evict", "--bundle", bad, "--policy", policy, "--out", tmp_path / "x")
        assert code == 2


class TestCalibCli:
    def make_triples(self, path):
        truth = CalibrationModel(alpha=0.2, beta=1.0)
        lines = ["r,nll_c,y"]
        for r in np.arange(0.1, 0.95, 0.1):
            for nll in (1.0, 2.0, 3.0):
                lines.append(f"{r:.2f},{nll},{calib_value(round(float(r), 2), nll, truth)!r}")
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_fit_then_plan(self, tmp_path, capsys):
        triples = self.make_triples(tmp_path / "t.csv")
        model_path = tmp_path / "m.json"
        code, _, _ = run(capsys, "calib", "fit", "--triples", triples, "--under-penalty", 1.0, "--out", model_path)
        assert code == 0
        doc = json.loads(model_path.read_text())
        assert abs(doc["alpha"] - 0.2) < 1e-3

        code, out, _ = run(capsys, "calib", "plan", "--model", model_path, "--nll", 2.0, "--tau", 0.95)
        assert code == 0
        model = CalibrationModel(alpha=doc["alpha"], beta=doc["beta"], k_min=doc["k_min"])
        assert abs(float(out.strip()) - invert_retention(2.0, 0.95, model)) < 1e-12

    def test_plan_queries_csv(self, tmp_path, capsys):
        triples = self.make_triples(tmp_path / "t.csv")
        model_path = tmp_path / "m.json"
        run(capsys, "calib", "fit", "--triples", triples, "--out", model_path)
        queries = tmp_path / "q.csv"
        queries.write_text("nll_c\n0.5\n2.0\n4.0\n")
        out = tmp_path / "r.csv"
        code, _, _ = run(capsys, "calib", "plan", "--model", model_path, "--queries", queries, "--tau", 0.9, "--out", out)
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert [row["nll_c"] for row in rows] == ["0.5", "2.0", "4.0"]
        assert all(0.0 < float(row["r_star"]) <= 1.0 for row in rows)

    def test_plan_needs_nll_or_queries(self, tmp_path, capsys):
        triples = self.make_triples(tmp_path / "t.csv")
        model_path = tmp_path / "m.json"
        run(capsys, "calib", "fit", "--triples", triples, "--out", model_path)
        code, _, _ = run(capsys, "calib", "plan", "--model", model_path)
        assert code == 2

    @pytest.mark.parametrize("nll", ["nan", "inf", "-inf", "-0.5"])
    def test_plan_nll_outside_domain(self, tmp_path, capsys, nll):
        triples = self.make_triples(tmp_path / "t.csv")
        model_path = tmp_path / "m.json"
        run(capsys, "calib", "fit", "--triples", triples, "--out", model_path)
        code, out, err = run(capsys, "calib", "plan", "--model", model_path, f"--nll={nll}")
        assert code == 2
        assert out == "" and err.startswith("error:")

        queries = tmp_path / "q.csv"
        queries.write_text(f"nll_c\n0.5\n{nll}\n")
        result = tmp_path / "r.csv"
        code, _, err = run(capsys, "calib", "plan", "--model", model_path, "--queries", queries, "--out", result)
        assert code == 2
        assert f"{queries}: line 3" in err
        assert not result.exists()

    def test_fit_degenerate_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text("r,nll_c,y\n0.5,2.0,0.8\n")
        code, _, _ = run(capsys, "calib", "fit", "--triples", path, "--out", tmp_path / "m.json")
        assert code == 2


class TestVerifyCli:
    def test_thm1_exit_three_and_report(self, tmp_path, capsys):
        out = tmp_path / "thm1.csv"
        code, stdout, _ = run(
            capsys, "verify", "thm1", "--n", 200, "--d", 8, "--trials", 5, "--c-values", "1,4", "--out", out
        )
        assert code == 3
        rows = list(csv.DictReader(out.open()))
        assert [row["c"] for row in rows] == ["1.0", "4.0"]

    def test_thm2_exit_three(self, tmp_path, capsys):
        out = tmp_path / "thm2.csv"
        code, stdout, _ = run(
            capsys, "verify", "thm2", "--n", 128, "--d", 8, "--k", 8, "--trials", 3, "--kappa", 2.0, "--out", out
        )
        assert code == 3
        assert len(list(csv.DictReader(out.open()))) == 3

    def test_reports_reproducible(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run(capsys, "verify", "thm2", "--n", 64, "--d", 4, "--k", 4, "--trials", 2, "--seed", 5, "--out", out)
        assert a.read_bytes() == b.read_bytes()


class TestBenchSweepCli:
    def test_bench_csv(self, tmp_path, capsys):
        policy = write_policy(tmp_path / "p.json", kind="leverage_only")
        out = tmp_path / "bench.csv"
        code, _, _ = run(
            capsys, "bench", "--policy", policy, "--ns", "256,512", "--repeats", 1, "--warmup", 0, "--d", 16, "--out", out
        )
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert [row["n"] for row in rows] == ["256", "512"]
        assert all(float(row["median_s"]) > 0 for row in rows)

    def test_retired_backend_mirror_ignored(self, tmp_path):
        # every flag is mirrored by KVC_<FLAG>; the mirror of the retired bench
        # flag "backend", left set to its old value "both", must stay inert
        policy = write_policy(tmp_path / "p.json", kind="compactor", retention=0.5)
        out = tmp_path / "bench.csv"
        src = str(Path(kvcompactor.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        env[f"KVC_{'backend'.upper()}"] = "both"
        imported = subprocess.run([sys.executable, "-c", "import kvcompactor"], env=env, capture_output=True, text=True)
        assert imported.returncode == 0, imported.stderr
        bench = subprocess.run(
            [sys.executable, "-m", "kvcompactor.harness.cli", "bench", "--policy", str(policy), "--ns", "128",
             "--repeats", "1", "--warmup", "0", "--d", "8", "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert bench.returncode == 0, bench.stderr
        assert [row["n"] for row in csv.DictReader(out.open())] == ["128"]

    def test_sweep_csv(self, tmp_path, capsys, bundle_path):
        p1 = write_policy(tmp_path / "p1.json", kind="compactor")
        p2 = write_policy(tmp_path / "p2.json", kind="random")
        out = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, "sweep", "--bundle", bundle_path, "--policies", f"{p1},{p2}", "--rs", "0.1,1.0", "--out", out
        )
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 4

    def test_sweep_csv_reproducible(self, tmp_path, capsys, bundle_path):
        policy = write_policy(tmp_path / "p.json", kind="compactor")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(capsys, "sweep", "--bundle", bundle_path, "--policies", policy, "--rs", "0.2", "--out", out)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_env_var_mirror(self, tmp_path, capsys, monkeypatch):
        flagged = tmp_path / "flagged.kvt"
        run(capsys, "synth", "--profile", "gaussian_iid", "--n", 32, "--d", 8, "--seed", 6, "--out", flagged)
        from_env = tmp_path / "env.kvt"
        monkeypatch.setenv("KVC_SEED", "6")
        monkeypatch.setenv("KVC_N", "32")
        code, _, _ = run(capsys, "synth", "--profile", "gaussian_iid", "--d", 8, "--out", from_env)
        assert code == 0
        assert flagged.read_bytes() == from_env.read_bytes()
