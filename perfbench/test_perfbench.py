"""The benchmark's own tests: smoke runs on tiny shapes, checks, and the contract file.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys

import pytest

import boot
import checks
import compare
import run
import workloads

RUN = [sys.executable, str(boot.ROOT / "perfbench" / "run.py")]


def bench(*args, cwd=boot.ROOT):
    proc = subprocess.run([*RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=120)
    return proc, proc.stdout.strip().splitlines()


def last_json(lines):
    return json.loads(lines[-1])


def result_file(name, seed, trace):
    return json.loads((boot.OUT_DIR / "results" / f"{run.stem(name, seed, True)}-trace{trace}.json").read_text())


def test_smoke_runs_every_workload_with_checks_on():
    proc, lines = bench("--workload", "all", "--smoke", "--seconds", "0", "--seed", "3", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = last_json(lines)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 3 * workloads.N_BUNDLES
    for name in workloads.WORKLOADS:
        got = {k.split("/", 1)[1]: v for k, v in out["metrics"].items() if k.startswith(name + "/")}
        assert {k: v["unit"] for k, v in got.items()} == run.END_TO_END
        assert all(v["value"] > 0 for v in got.values())
    assert 0 < out["metrics"]["compact_heads/needle_recall"]["value"] <= 1


def test_traced_run_keeps_the_untraced_indices_and_reports_every_layer():
    proc, lines = bench("--workload", "all", "--smoke", "--seconds", "0", "--seed", "4", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = last_json(lines)
    assert out["correct"] and out["failed"] == 0
    for name in workloads.WORKLOADS:
        res = result_file(name, 4, 1)
        assert {k: v["unit"] for k, v in res["metrics"].items()} == run.PER_LAYER
        digests = res["details"]["plan_digest"]
        assert digests["plain"] == digests["traced"]
        spans = [json.loads(line) for line in (boot.OUT_DIR / f"trace-{run.stem(name, 4, True)}.jsonl").open()]
        assert {"name", "start", "end", "parent", "request"} <= set(spans[0])
        assert all(s["end"] >= s["start"] for s in spans)
    long_ = result_file("compact_long", 4, 1)["metrics"]
    assert 0.6 < long_["calibrate.r_star_mean"]["value"] < 0.8
    assert long_["attnscore.chunks"]["value"] > 0 and long_["attnscore.h2o.row_blocks"]["value"] == 0
    causal = result_file("baseline_causal", 4, 1)["metrics"]
    assert causal["attnscore.h2o.row_blocks"]["value"] > 0 and causal["sketch.flops"]["value"] == 0


def test_same_seed_same_indices_other_seed_other_inputs():
    digests = []
    for seed in (5, 5, 6):
        proc, _ = bench("--workload", "compact_heads", "--smoke", "--seconds", "0", "--seed", str(seed))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        digests.append(result_file("compact_heads", seed, 0)["details"]["plan_digest"]["plain"])
    assert digests[0] == digests[1] != digests[2]


def test_checks_catch_a_corrupted_row(tmp_path):
    from kvcompactor import EvictionPolicy, apply_plan, compress_bundle, load_bundle, save_bundle, save_plan
    from kvcompactor.harness.synth import SynthProfile, planted_needles, synth_bundle

    profile = SynthProfile("needle", N=256, d=32, needle_count=4, noise_sigma=0.1, seed=1)
    src, out, plan_path = tmp_path / "in.kvt", tmp_path / "out.kvt", tmp_path / "plan.json"
    save_bundle(synth_bundle(profile, 2, 2), src)
    bundle = load_bundle(src)
    plan = compress_bundle(bundle, EvictionPolicy("compactor", 0.25))
    save_plan(plan, plan_path)
    save_bundle(apply_plan(bundle, plan), out)
    good = checks.check_request(src, out, plan_path, 0.25, planted_needles(profile))
    assert good["errors"] == [] and good["recall"] > 0.5
    assert checks.check_request(src, out, plan_path, 0.3, [])["errors"]  # wrong kept count
    raw = bytearray(out.read_bytes())
    raw[-1] ^= 0x01
    out.write_bytes(bytes(raw))
    assert any("differ" in e for e in checks.check_request(src, out, plan_path, 0.25, [])["errors"])


def test_benchmark_json_matches_what_run_prints():
    doc = json.loads((boot.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {w.name: w.why for w in workloads.WORKLOADS.values()}
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(boot.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(boot.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compact_heads", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("backends,code", [(("python", "python"), 0), (("python", "compiled"), 2)])
def test_compare_refuses_mixed_kernel_backends(tmp_path, backends, code):
    for side, backend in zip("ab", backends):
        (tmp_path / side).mkdir()
        res = {"workload": "compact_heads", "trace": False, "env": {"kernel_backend": backend},
               "metrics": {"bundle_s_p50": {"value": 1.0, "unit": "s"}}}
        (tmp_path / side / "r.json").write_text(json.dumps(res))
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == code
