import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kvcompactor
from kvcompactor import CalibrationModel, calib_value, calibrate, invert_retention, load_plan
from kvcompactor.errors import DataError, FormatError
from kvcompactor.harness import cli
from kvcompactor.harness.cli import main
from kvcompactor.harness.synth import SYNTH_KINDS


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def read_rows(path) -> list:
    """The rows of a CSV file as dicts, read with the file closed afterwards."""
    with open(path) as fh:
        return list(csv.DictReader(fh))


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
        capsys, "synth", "--profile", "needle", "--n", 120, "--d", 16, "--needle-count", 1, "--seed", 3, "--out", path
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
        rows = read_rows(out)
        assert len(rows) == 120
        assert {row["layer"] for row in rows} == {"0"}
        float(rows[0]["score"])

    def test_score_csv_matches_head_scores(self, tmp_path, capsys):
        from kvcompactor import EvictionPolicy, head_scores, load_bundle

        path, policy_path, out = tmp_path / "b.kvt", write_policy(tmp_path / "p.json", kind="compactor"), tmp_path / "s.csv"
        assert run(capsys, "synth", "--profile", "needle", "--n", 50, "--d", 8, "--layers", 2, "--heads", 2, "--out", path)[0] == 0
        assert run(capsys, "score", "--bundle", path, "--policy", policy_path, "--out", out)[0] == 0
        bundle, policy = load_bundle(path), EvictionPolicy.from_json_dict(json.loads(policy_path.read_text()))
        expected = [
            (l, h, i, float(v))
            for l in range(2)
            for h in range(2)
            for i, v in enumerate(head_scores(policy, bundle.head(l, h), l, h).scores)
        ]
        got = [(int(r["layer"]), int(r["head"]), int(r["index"]), float(r["score"])) for r in read_rows(out)]
        assert got == expected

    def test_score_csv_bytes_match_dict_writer(self, tmp_path, capsys):
        # the bytes of the one-dict-per-token csv.DictWriter that wrote this CSV before
        from kvcompactor import EvictionPolicy, head_scores, load_bundle
        from kvcompactor.harness import report

        path, policy_path, out = tmp_path / "b.kvt", write_policy(tmp_path / "p.json", kind="compactor"), tmp_path / "s.csv"
        assert run(capsys, "synth", "--profile", "needle", "--n", 70, "--d", 8, "--layers", 2, "--heads", 3, "--out", path)[0] == 0
        assert run(capsys, "score", "--bundle", path, "--policy", policy_path, "--out", out)[0] == 0
        bundle, policy = load_bundle(path), EvictionPolicy.from_json_dict(json.loads(policy_path.read_text()))
        rows = (
            {"layer": l, "head": h, "index": i, "score": float(v)}
            for l in range(2)
            for h in range(3)
            for i, v in enumerate(head_scores(policy, bundle.head(l, h), l, h).scores)
        )
        report.write_csv(tmp_path / "dict.csv", rows, ["layer", "head", "index", "score"])
        assert out.read_bytes() == (tmp_path / "dict.csv").read_bytes()

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

    @pytest.mark.parametrize("key", ["kind", "sketch", "sketch.kind", "sketch.k", "sketch.seed"])
    def test_policy_missing_key_is_input_error(self, tmp_path, capsys, bundle_path, key):
        # a nested key is named by its path, not by the top-level key of the same name
        policy = write_policy(tmp_path / "p.json")
        doc = json.loads(policy.read_text())
        section = doc["sketch"] if key.startswith("sketch.") else doc
        del section[key.removeprefix("sketch.")]
        policy.write_text(json.dumps(doc))
        code, _, err = run(capsys, "evict", "--bundle", bundle_path, "--policy", policy, "--out", tmp_path / "x")
        assert code == 2 and err.startswith(f"error: {policy}: missing policy key '{key}'")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("data", [b'{"kind": "h2o",', b"[1, 2]", b"\xff"], ids=["bad_json", "list", "not_utf8"])
    def test_policy_not_json_object_is_format_error(self, tmp_path, capsys, bundle_path, data):
        policy = tmp_path / "p.json"
        policy.write_bytes(data)
        with pytest.raises(FormatError, match="p.json"):
            cli._load_policy(policy)
        code, _, err = run(capsys, "evict", "--bundle", bundle_path, "--policy", policy, "--out", tmp_path / "x")
        assert code == 2
        assert err.startswith("error:") and str(policy) in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("kind", ["plan", "policy", "model"])
    @pytest.mark.parametrize("opening", ["[", '{"a":'], ids=["lists", "objects"])
    def test_deeply_nested_json_is_format_error(self, tmp_path, capsys, bundle_path, kind, opening):
        # the JSON parser ends in RecursionError, which the reader maps to a FormatError naming the file
        path = tmp_path / f"{kind}.json"
        path.write_text(opening * 200_000)
        load = {"plan": load_plan, "policy": cli._load_policy, "model": calibrate.load_model}[kind]
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}: JSON nested too deeply"):
            load(path)
        argv = {
            "plan": ["apply", "--bundle", bundle_path, "--plan", path, "--out", tmp_path / "o.kvt"],
            "policy": ["evict", "--bundle", bundle_path, "--policy", path, "--out", tmp_path / "o.json"],
            "model": ["calib", "plan", "--model", path, "--nll", 1.0],
        }[kind]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith(f"error: {path}: JSON nested too deeply")
        assert not list(tmp_path.glob("o.*"))

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
            ("evict", ("lambda",), 10**400),
            ("calib", ("alpha",), "0.2"),
            ("calib", ("beta",), True),
            ("calib", ("n_points",), 9.5),
            ("calib", (), [0.2, 1.0]),
        ],
        ids=[
            "float_sketch_k", "float_sketch_seed", "float_chunk_size", "float_baseline_window", "float_pool_window",
            "string_value_norm", "int_snap_keep_window", "string_scale", "string_retention", "bool_retention",
            "string_layer_retention", "float_seed", "bool_lambda", "nan_lambda", "huge_int_lambda",
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

    def test_empty_layer_retention_is_input_error(self, tmp_path, capsys, bundle_path):
        policy = write_policy(tmp_path / "p.json", retention=[])
        code, _, err = run(capsys, "evict", "--bundle", bundle_path, "--policy", policy, "--out", tmp_path / "x")
        assert code == 2
        assert err.startswith("error:") and str(policy) in err and "empty" in err

    def test_synth_single_row_without_needles(self, tmp_path, capsys):
        # the default --needle-count 1 only constrains needle profiles
        code, out, _ = run(capsys, "synth", "--profile", "gaussian_iid", "--n", 1, "--d", 4, "--out", tmp_path / "b.kvt")
        assert code == 0
        assert "N=1 d=4" in out

    def test_synth_profiles_are_the_synth_kinds(self, capsys):
        with pytest.raises(SystemExit):
            main(["synth", "--help"])
        assert "--profile {" + ",".join(SYNTH_KINDS) + "}" in capsys.readouterr().out

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
        rows = read_rows(out)
        assert [row["nll_c"] for row in rows] == ["0.5", "2.0", "4.0"]
        assert all(0.0 < float(row["r_star"]) <= 1.0 for row in rows)

    def test_plan_needs_nll_or_queries(self, tmp_path, capsys):
        triples = self.make_triples(tmp_path / "t.csv")
        model_path = tmp_path / "m.json"
        run(capsys, "calib", "fit", "--triples", triples, "--out", model_path)
        with pytest.raises(SystemExit) as info:
            run(capsys, "calib", "plan", "--model", model_path)
        assert info.value.code == 2

    def test_plan_takes_nll_or_queries_not_both(self, tmp_path, capsys):
        model_path, queries, result = tmp_path / "m.json", tmp_path / "q.csv", tmp_path / "r.csv"
        run(capsys, "calib", "fit", "--triples", self.make_triples(tmp_path / "t.csv"), "--out", model_path)
        queries.write_text("nll_c\n0.5\n")
        with pytest.raises(SystemExit) as info:
            run(capsys, "calib", "plan", "--model", model_path, "--nll", 2, "--queries", queries, "--out", result)
        assert info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not result.exists()

    def test_plan_queries_needs_out(self, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        run(capsys, "calib", "fit", "--triples", self.make_triples(tmp_path / "t.csv"), "--out", model_path)
        queries = tmp_path / "q.csv"
        queries.write_text("nll_c\n0.5\n")
        code, out, err = run(capsys, "calib", "plan", "--model", model_path, "--queries", queries)
        assert code == 2 and out == "" and err == "error: --queries needs --out for the result CSV\n"

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

    @pytest.mark.parametrize(
        "text, error, line",
        [
            ("r\n0.5\n", FormatError, 1),
            ("", FormatError, 1),
            ("nll_c\n0.5\nabc\n", FormatError, 3),
            ("nll_c\n0.5\n,1\n", FormatError, 3),
            ("nll_c\n0.5\n-1\n", DataError, 3),
        ],
        ids=["bad_header", "empty", "not_a_number", "blank_field", "negative_nll"],
    )
    def test_plan_queries_errors_name_the_line(self, tmp_path, capsys, text, error, line):
        triples = self.make_triples(tmp_path / "t.csv")
        model_path = tmp_path / "m.json"
        run(capsys, "calib", "fit", "--triples", triples, "--out", model_path)
        queries, result = tmp_path / "q.csv", tmp_path / "r.csv"
        queries.write_text(text)
        argv = ["calib", "plan", "--model", str(model_path), "--queries", str(queries), "--out", str(result)]
        with pytest.raises(error, match=f"q.csv: line {line}:"):
            cli._cmd_calib_plan(cli.build_parser().parse_args(argv))
        code, _, err = run(capsys, *argv)
        assert code == 2 and f"{queries}: line {line}:" in err
        assert not result.exists()

    @pytest.mark.parametrize("command", ["fit", "plan"])
    def test_csv_not_utf8_is_format_error(self, tmp_path, capsys, command):
        model_path, bad, result = tmp_path / "m.json", tmp_path / "bad.csv", tmp_path / "r.csv"
        run(capsys, "calib", "fit", "--triples", self.make_triples(tmp_path / "t.csv"), "--out", model_path)
        bad.write_bytes(b"\xff\xfe")
        if command == "fit":
            argv, out = ["calib", "fit", "--triples", bad, "--out", tmp_path / "m2.json"], tmp_path / "m2.json"
        else:
            argv, out = ["calib", "plan", "--model", model_path, "--queries", bad, "--out", result], result
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error:") and f"{bad}: not UTF-8" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "plan"])
    def test_csv_field_over_limit_is_format_error(self, tmp_path, capsys, command):
        # csv refuses a field over its size limit; the error names the file and the line, with no traceback
        model_path, big, out = tmp_path / "m.json", tmp_path / "big.csv", tmp_path / "out"
        run(capsys, "calib", "fit", "--triples", self.make_triples(tmp_path / "t.csv"), "--out", model_path)
        if command == "fit":
            big.write_text("r,nll_c,y\n" + "1" * 200_000 + ",1,1\n")
            argv = ["calib", "fit", "--triples", big, "--out", out]
        else:
            big.write_text("nll_c\n" + "1" * 200_000 + "\n")
            argv = ["calib", "plan", "--model", model_path, "--queries", big, "--out", out]
        code, stdout, err = run(capsys, *argv)
        assert code == 2 and stdout == ""
        assert err.startswith(f"error: {big}: line 2: field larger than field limit")
        assert not out.exists()

    @pytest.mark.parametrize("text", ["nll_c\n", "nll_c\n0.5\n"], ids=["header_only", "one_row"])
    def test_plan_queries_tau_checked_before_rows(self, tmp_path, capsys, text):
        model_path, queries, result = tmp_path / "m.json", tmp_path / "q.csv", tmp_path / "r.csv"
        run(capsys, "calib", "fit", "--triples", self.make_triples(tmp_path / "t.csv"), "--out", model_path)
        queries.write_text(text)
        argv = ["calib", "plan", "--model", model_path, "--queries", queries, "--tau", 5, "--out", result]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: tau must be in (0, 1], got 5.0")
        assert not result.exists()

    def test_plan_queries_accepted_layouts(self, tmp_path, capsys):
        # header matched on its first column, extra columns ignored, blank lines skipped, padding stripped
        triples = self.make_triples(tmp_path / "t.csv")
        model_path = tmp_path / "m.json"
        run(capsys, "calib", "fit", "--triples", triples, "--out", model_path)
        queries, result = tmp_path / "q.csv", tmp_path / "r.csv"
        queries.write_text(" nll_c,ctx\r\n0.5,a\r\n\n  \n 2.0 ,b,c\n4\n")
        code, _, _ = run(capsys, "calib", "plan", "--model", model_path, "--queries", queries, "--out", result)
        assert code == 0
        rows = read_rows(result)
        assert [float(row["nll_c"]) for row in rows] == [0.5, 2.0, 4.0]

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
        rows = read_rows(out)
        assert [row["c"] for row in rows] == ["1.0", "4.0"]

    def test_thm1_explicit_k_runs_once(self, tmp_path, capsys):
        # k does not depend on c, so --k gives one run and one row with c blank
        out = tmp_path / "thm1.csv"
        code, stdout, _ = run(capsys, "verify", "thm1", "--n", 200, "--d", 8, "--k", 40, "--trials", 3, "--out", out)
        assert code == 3
        rows = read_rows(out)
        assert [(row["c"], row["k"]) for row in rows] == [("", "40")]
        assert stdout.count("success_rate") == 1

    def test_thm1_k_excludes_c_values(self, tmp_path, capsys):
        out = tmp_path / "thm1.csv"
        with pytest.raises(SystemExit) as info:
            run(capsys, "verify", "thm1", "--n", 200, "--d", 8, "--k", 40, "--c-values", "1,4", "--out", out)
        assert info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    def test_thm2_exit_three(self, tmp_path, capsys):
        out = tmp_path / "thm2.csv"
        code, stdout, _ = run(
            capsys, "verify", "thm2", "--n", 128, "--d", 8, "--k", 8, "--trials", 3, "--kappa", 2.0, "--out", out
        )
        assert code == 3
        assert len(read_rows(out)) == 3

    def test_reports_reproducible(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run(capsys, "verify", "thm2", "--n", 64, "--d", 4, "--k", 4, "--trials", 2, "--seed", 5, "--out", out)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "argv, name",
        [(("thm1", "--d", 0, "--k", 5), "d"), (("thm1", "--n", 0, "--k", 5), "N"), (("thm2", "--n", 10, "--d", 20), "N")],
        ids=["thm1_d0", "thm1_n0", "thm2_n_below_d"],
    )
    def test_bad_shape_is_input_error(self, tmp_path, capsys, argv, name):
        out = tmp_path / "v.csv"
        code, _, err = run(capsys, "verify", *argv, "--trials", 2, "--out", out)
        assert code == 2 and err.startswith(f"error: {name} must be >= ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, name",
        [
            (("thm1", "--k", 5, "--epsilon", 2), "epsilon"),
            (("thm1", "--k", 5, "--epsilon", -1), "epsilon"),
            (("thm1", "--k", 5, "--epsilon", "nan"), "epsilon"),
            (("thm1", "--k", 5, "--delta", "nan"), "delta"),
            (("thm1", "--c-values", "nan"), "c"),
            (("thm2", "--k", 4, "--kappa", "nan"), "kappa"),
            (("thm2", "--k", 4, "--target-epsilon", "nan"), "target_epsilon"),
            (("thm2", "--k", 4, "--target-epsilon", -3), "target_epsilon"),
        ],
        ids=["eps_2", "eps_neg", "eps_nan", "delta_nan", "c_nan", "kappa_nan", "target_nan", "target_neg"],
    )
    def test_bad_real_is_input_error(self, tmp_path, capsys, argv, name):
        out = tmp_path / "v.csv"
        code, stdout, err = run(capsys, "verify", *argv, "--n", 50, "--d", 4, "--trials", 2, "--out", out)
        assert code == 2 and stdout == "" and err.startswith(f"error: {name} must be ")
        assert not out.exists()


    @pytest.mark.parametrize("argv", [("thm1", "--k", 5), ("thm2", "--k", 4)], ids=["thm1", "thm2"])
    def test_negative_seed_is_input_error(self, tmp_path, capsys, argv):
        out = tmp_path / "v.csv"
        code, stdout, err = run(capsys, "verify", *argv, "--n", 50, "--d", 4, "--trials", 2, "--seed", -1, "--out", out)
        assert code == 2 and stdout == "" and err.startswith("error: seed must be >= 0, got -1")
        assert not out.exists()


class TestBenchSweepCli:
    def test_bench_csv(self, tmp_path, capsys):
        policy = write_policy(tmp_path / "p.json", kind="leverage_only")
        out = tmp_path / "bench.csv"
        code, _, _ = run(
            capsys, "bench", "--policy", policy, "--ns", "256,512", "--repeats", 1, "--warmup", 0, "--d", 16, "--out", out
        )
        assert code == 0
        rows = read_rows(out)
        assert [row["n"] for row in rows] == ["256", "512"]
        assert all(float(row["median_s"]) > 0 for row in rows)

    @pytest.mark.parametrize(
        "args, message",
        [(("--ns", "0,64"), "N must be >= 1, got 0"), (("--d", 0), "d must be >= 1, got 0")],
        ids=["ns", "d"],
    )
    def test_bench_bad_size_is_named(self, tmp_path, capsys, args, message):
        policy = write_policy(tmp_path / "p.json", kind="leverage_only")
        argv = ["bench", "--policy", policy, "--ns", "16,32", "--repeats", 1, "--warmup", 0, "--d", 8, *args]
        code, _, err = run(capsys, *argv, "--out", tmp_path / "bench.csv")
        assert code == 2 and err == f"error: {message}\n"
        assert not (tmp_path / "bench.csv").exists()

    def test_bench_negative_seed_is_input_error(self, tmp_path, capsys):
        policy = write_policy(tmp_path / "p.json", kind="leverage_only")
        argv = ["bench", "--policy", policy, "--ns", "16,32", "--repeats", 1, "--warmup", 0, "--d", 8, "--seed", -1]
        code, stdout, err = run(capsys, *argv, "--out", tmp_path / "bench.csv")
        assert code == 2 and stdout == "" and err == "error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "bench.csv").exists()

    def test_retired_backend_mirror_ignored(self, tmp_path, capsys, bundle_path):
        # kvc reads no environment variable: neither the retired bench flag "backend"'s
        # old mirror nor any of the KVC_<FLAG> names that once set a flag changes a run
        policy = write_policy(tmp_path / "p.json", kind="compactor", retention=0.5)
        out = tmp_path / "bench.csv"
        src = str(Path(kvcompactor.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        env[f"KVC_{'backend'.upper()}"] = "both"
        former = {
            "PROFILE": "needle", "N": "64", "D": "8", "RANK": "2", "NEEDLE_COUNT": "3", "NOISE_SIGMA": "0.5",
            "LAYERS": "2", "HEADS": "2", "SEED": "6", "OUT": bundle_path, "BUNDLE": bundle_path, "POLICY": policy,
            "RETENTION": "0.1", "PLAN": bundle_path, "TRIPLES": bundle_path, "UNDER_PENALTY": "2", "MODEL": policy,
            "NLL": "2", "TAU": "0.5", "QUERIES": bundle_path, "EPSILON": "0.3", "DELTA": "0.2", "TRIALS": "2",
            "K": "64", "C_VALUES": "1", "KAPPA": "3", "TARGET_EPSILON": "0.5", "NS": "64", "REPEATS": "2",
            "WARMUP": "1", "POLICIES": policy, "RS": "0.5", "NEEDLES": "1",
        }
        assert len(former) == 33
        env.update({f"KVC_{name}": str(value) for name, value in former.items()})

        def kvc(*argv):
            cmd = [sys.executable, "-m", "kvcompactor.harness.cli", *map(str, argv)]
            return subprocess.run(cmd, env=env, capture_output=True, text=True)

        imported = subprocess.run([sys.executable, "-c", "import kvcompactor"], env=env, capture_output=True, text=True)
        assert imported.returncode == 0, imported.stderr
        bench = kvc("bench", "--policy", policy, "--ns", 128, "--repeats", 1, "--warmup", 0, "--d", 8, "--out", out)
        assert bench.returncode == 0, bench.stderr
        assert [row["n"] for row in read_rows(out)] == ["128"]

        # a forgotten --out is a usage error, not a plan written over the file KVC_OUT names
        bundle_bytes = bundle_path.read_bytes()
        evict = kvc("evict", "--bundle", bundle_path, "--policy", policy)
        assert evict.returncode == 2 and "--out" in evict.stderr
        assert bundle_path.read_bytes() == bundle_bytes

        # KVC_K (and KVC_C_VALUES, KVC_SEED, ...) leave thm1's four c-value runs as a clean environment makes them
        mirrored, clean = tmp_path / "env.csv", tmp_path / "clean.csv"
        thm1 = ("verify", "thm1", "--n", 200, "--d", 4, "--trials", 3, "--out")
        assert kvc(*thm1, mirrored).returncode == 3
        assert run(capsys, *thm1, clean)[0] == 3
        assert [row["c"] for row in read_rows(mirrored)] == ["1.0", "2.0", "4.0", "8.0"]
        assert mirrored.read_bytes() == clean.read_bytes()

    def test_sweep_csv(self, tmp_path, capsys, bundle_path):
        p1 = write_policy(tmp_path / "p1.json", kind="compactor")
        p2 = write_policy(tmp_path / "p2.json", kind="random")
        out = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, "sweep", "--bundle", bundle_path, "--policies", f"{p1},{p2}", "--rs", "0.1,1.0", "--out", out
        )
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 4

    def test_sweep_csv_reproducible(self, tmp_path, capsys, bundle_path):
        policy = write_policy(tmp_path / "p.json", kind="compactor")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(capsys, "sweep", "--bundle", bundle_path, "--policies", policy, "--rs", "0.2", "--out", out)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_needles_fill_column(self, tmp_path, capsys):
        from kvcompactor import load_bundle
        from kvcompactor.evict import EvictionPolicy
        from kvcompactor.harness import sweep_policies

        path = tmp_path / "needles.kvt"
        args = ("--profile", "needle", "--n", 200, "--d", 16, "--needle-count", 2, "--layers", 2, "--heads", 2)
        code, out, _ = run(capsys, "synth", *args, "--seed", 5, "--out", path)
        assert code == 0
        needles = json.loads(out.split("planted needles at ", 1)[1].splitlines()[0])
        kinds = ("compactor", "h2o", "random")
        policies = [write_policy(tmp_path / f"{kind}.json", kind=kind) for kind in kinds]
        argv = ["sweep", "--bundle", path, "--policies", ",".join(map(str, policies)), "--rs", "0.05,0.5"]

        expected = sweep_policies(
            load_bundle(path),
            [EvictionPolicy.from_json_dict(json.loads(p.read_text())) for p in policies],
            [0.05, 0.5],
            needle_indices=needles,
        )
        flagged, plain = tmp_path / "flag.csv", tmp_path / "plain.csv"
        assert run(capsys, *argv, "--needles", ",".join(map(str, needles)), "--out", flagged)[0] == 0
        assert run(capsys, *argv, "--out", plain)[0] == 0

        column = [row["needle_retained"] for row in read_rows(flagged)]
        assert column == [str(row["needle_retained"]) for row in expected]
        assert set(column) == {"0", "1"}
        assert {row["needle_retained"] for row in read_rows(plain)} == {""}

    def test_sweep_needle_out_of_range(self, tmp_path, capsys, bundle_path):
        policy = write_policy(tmp_path / "p.json", kind="random")
        argv = ["sweep", "--bundle", bundle_path, "--policies", policy, "--rs", "0.5", "--needles", "3,120"]
        code, _, err = run(capsys, *argv, "--out", tmp_path / "s.csv")
        assert code == 2
        assert "needle positions must lie in [0, 120)" in err
