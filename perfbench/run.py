"""End-to-end compaction benchmark: KVT1 file -> plan -> compacted KVT1 file.

    python3 perfbench/run.py --workload compact_long --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload, one table
    python3 perfbench/run.py --workload all --smoke --seconds 0 # tiny shapes, checks on

Run from the root of a checkout; the library is imported from its ``src/``.
Each run synthesizes its workload's input bundles from ``--seed`` (set-up),
then starts a fresh worker process (worker.py) that compacts them in a
closed loop with one client for ``--seconds`` seconds and checks every
output. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs an
untraced and then a traced worker and prints the per-layer metrics, the
tracing overhead, and whether the two passes kept the same indices. The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. Every run also writes a full
result (environment included) under ``.bench_out/``; compare.py compares
two sets of them. Exit code 0: all checks passed; 1: a check or a request
failed; 2: the library or an argument is missing.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import boot  # noqa: E402

boot.pin_threads()
boot.import_library()

from kvcompactor import CalibTriple, fit_calibration, save_bundle  # noqa: E402
from kvcompactor.harness.synth import SynthProfile, planted_needles, synth_bundle  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

IMPORTS_S = time.monotonic() - T_START
HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0  # a run must end within 180 s
TAIL_BEYOND = 10

END_TO_END = {
    "tokens_per_s": "rows/s",
    "bundle_s_p50": "s",
    "bundle_s_tail": "s",
    "peak_rss_mb": "MB",
    "needle_recall": "frac",
    "setup_s": "s",
}

# stage spans inside the recomposed compress_bundle
STAGES = (
    "sketch.apply_sketch",
    "leverage.approx_leverage",
    "attnscore.noncausal_scores",
    "attnscore.h2o_scores",
    "attnscore.mean_pool",
    "attnscore.value_norm_scale",
    "evict.blend_scores",
    "evict.select_topk",
)

# metric -> (unit, span name, field); the median over traced requests of the field summed per request
SPAN_METRICS = {
    "kvstore.load_bundle.s": ("s", "kvstore.load_bundle", "self_s"),
    "kvstore.load_bundle.bytes": ("B", "kvstore.load_bundle", "bytes"),
    "kvstore.apply_plan.s": ("s", "kvstore.apply_plan", "self_s"),
    "kvstore.apply_plan.rows": ("rows", "kvstore.apply_plan", "rows"),
    "kvstore.save_bundle.s": ("s", "kvstore.save_bundle", "self_s"),
    "kvstore.save_bundle.bytes": ("B", "kvstore.save_bundle", "bytes"),
    "kvstore.save_plan.s": ("s", "kvstore.save_plan", "self_s"),
    "kvstore.load_plan.s": ("s", "kvstore.load_plan", "self_s"),
    "kvstore.plan.bytes": ("B", "kvstore.save_plan", "bytes"),
    "sketch.apply_sketch.s": ("s", "sketch.apply_sketch", "self_s"),
    "sketch.flops": ("flop", "sketch.apply_sketch", "flops"),
    "leverage.approx_leverage.self_s": ("s", "leverage.approx_leverage", "self_s"),
    "attnscore.noncausal_scores.s": ("s", "attnscore.noncausal_scores", "self_s"),
    "attnscore.chunks": ("count", "attnscore.noncausal_scores", "chunks"),
    "attnscore.h2o_scores.s": ("s", "attnscore.h2o_scores", "self_s"),
    "attnscore.h2o.row_blocks": ("count", "attnscore.h2o_scores", "row_blocks"),
    "attnscore.mean_pool.s": ("s", "attnscore.mean_pool", "self_s"),
    "attnscore.value_norm_scale.s": ("s", "attnscore.value_norm_scale", "self_s"),
    "evict.blend_scores.s": ("s", "evict.blend_scores", "self_s"),
    "evict.select_topk.s": ("s", "evict.select_topk", "self_s"),
    "evict.heads": ("count", "evict.head", "n"),
    "evict.compress_bundle.s": ("s", "evict.compress_bundle.untraced", "self_s"),
    "calibrate.invert_retention.s": ("s", "calibrate.invert_retention", "self_s"),
}
PER_LAYER = {
    **{name: unit for name, (unit, _, _) in SPAN_METRICS.items()},
    "leverage.effective_rank_mean": "count",
    "attnscore.flops": "flop",
    "evict.retained_frac": "frac",
    "evict.unaccounted_s": "s",
    "calibrate.r_star_mean": "frac",
    "calibrate.fit_calibration.s": "s",
    "harness.synth_bundle.s": "s",
    "trace.overhead_s": "s",
}


# --- set-up ----------------------------------------------------------------------


def _profile(wl, seed: int, shape=None) -> SynthProfile:
    shape = shape or wl
    return SynthProfile(N=shape.seq_len, d=shape.head_dim, seed=seed, **wl.profile)


def _flush(path):
    """Write the file's dirty pages to disk now, so their writeback does not land in the timed loop."""
    with open(path, "rb") as fh:
        os.fsync(fh.fileno())


def set_up(wl, seed: int, work: Path) -> dict:
    """Fit the calibration model and write the run's input bundles."""
    t0 = time.perf_counter()
    model = fit_calibration([CalibTriple(*row) for row in workloads.calibration_rows(seed)])
    fit_s = time.perf_counter() - t0

    bundles, synth_s, each_s = [], [], []
    for i in range(workloads.N_BUNDLES):
        profile = _profile(wl, workloads.bundle_seed(seed, i))
        path = work / f"in-{i}.kvt"
        t0 = time.perf_counter()
        bundle = synth_bundle(profile, wl.n_layers, wl.n_kv_heads)
        t1 = time.perf_counter()
        save_bundle(bundle, path)
        del bundle
        _flush(path)
        each_s.append(time.perf_counter() - t0)
        synth_s.append(t1 - t0)
        bundles.append({"path": str(path), "needles": planted_needles(profile).tolist(), "bytes": path.stat().st_size})

    warm = workloads.warmup(wl)
    warm_path = work / "warmup.kvt"
    save_bundle(synth_bundle(_profile(wl, seed, warm), warm.n_layers, warm.n_kv_heads), warm_path)
    return {
        "model": {"alpha": model.alpha, "beta": model.beta, "k_min": model.k_min,
                  "fit_rmse": model.fit_rmse, "n_points": model.n_points},
        "fit_s": fit_s,
        "synth_s": synth_s,
        "bundle_setup_s": each_s,
        "bundles": bundles,
        "warmup": {"path": str(warm_path), "r": wl.retention or 0.5},
    }


# --- one measured pass -----------------------------------------------------------


def stem(name: str, seed: int, smoke: bool) -> str:
    return f"{name}{'-smoke' if smoke else ''}-seed{seed}"


def run_pass(wl, seed, seconds, trace, work: Path, setup, stop_by, deadline, smoke) -> dict:
    """Run the worker once in a fresh process and return its result."""
    tag = "traced" if trace else "plain"
    spec = {
        "policy": wl.policy,
        "retention": wl.retention,
        "model": setup["model"] if wl.calibrated else None,
        "tau": workloads.TAU,
        "nlls": workloads.request_nlls(seed),
        "bundles": setup["bundles"],
        "warmup": setup["warmup"],
        "seconds": seconds,
        "min_requests": len(setup["bundles"]),
        "stop_by": stop_by,
        "trace": trace,
        "trace_path": str(boot.OUT_DIR / f"trace-{stem(wl.name, seed, smoke)}.jsonl"),
        "work_dir": str(work),
        "result_path": str(work / f"result-{tag}.json"),
    }
    spec_path = work / f"spec-{tag}.json"
    spec_path.write_text(json.dumps(spec))
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path)],
        stdout=sys.stderr,
        timeout=max(1.0, deadline - time.monotonic()),
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{tag} worker exited with code {proc.returncode}")
    res = json.loads(Path(spec["result_path"]).read_text())
    res["startup_s"] = res["ready_at"] - spawned
    res["trace_path"] = spec["trace_path"]
    res["min_requests"] = spec["min_requests"]
    return res


def mark_inconsistent(records):
    """Requests on the same bundle at the same retention must keep the same indices."""
    seen = {}
    for rec in records:
        if rec["errors"]:
            continue
        key = (rec["bundle"], rec["r"])
        seen.setdefault(key, rec["digest"])
        if rec["digest"] != seen[key]:
            rec["errors"].append(f"index digest differs from an earlier request on bundle {rec['bundle']} at r={rec['r']}")


def run_digest(res) -> str:
    """sha256 over the index digests of the first min_requests requests, in request order."""
    first = res["records"][: res["min_requests"]]
    return hashlib.sha256("".join(rec.get("digest", "-") for rec in first).encode()).hexdigest()


def tail(values):
    """(value, percentile, samples beyond) at the highest percentile with >= 10 samples beyond it.

    With 21 samples or fewer that percentile would sit at or under the
    median (with 11 it is the minimum), so the maximum is reported instead, at
    percentile 100 with 0 samples beyond.
    """
    xs = sorted(values)
    k = len(xs) - TAIL_BEYOND - 1 if len(xs) > 2 * TAIL_BEYOND + 1 else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


# --- metrics -----------------------------------------------------------------------


def end_to_end(wl, res, setup) -> tuple:
    ok = [rec for rec in res["records"] if not rec["errors"]]
    if not ok:
        return {}, {}
    secs = [rec["seconds"] for rec in ok]
    tail_s, tail_pct, beyond = tail(secs)
    recall = {}
    for rec in ok:
        recall.setdefault(rec["bundle"], rec["recall"])
    metrics = {
        "tokens_per_s": sum(rec["rows_in"] for rec in ok) / sum(secs),
        "bundle_s_p50": statistics.median(secs),
        "bundle_s_tail": tail_s,
        "peak_rss_mb": res["peak_rss_mb"],
        "needle_recall": statistics.fmean(recall.values()),
        "setup_s": statistics.median(setup["bundle_setup_s"]) + setup["fit_s"] + IMPORTS_S + res["startup_s"],
    }
    details = {
        "samples": len(secs),
        "request_s": secs,
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "needles_planted": bool(setup["bundles"][0]["needles"]),
        "rss_after_first_mb": ok[0]["rss_mb"],
        "rss_after_last_mb": ok[-1]["rss_mb"],
        "r_mean": statistics.fmean(rec["r"] for rec in ok),
        "worker_startup_s": res["startup_s"],
        "setup_bundle_s": setup["bundle_setup_s"],
    }
    return metrics, details


def per_layer(wl, plain, traced, setup) -> dict:
    ok = {rec["request"] for rec in traced["records"] if not rec["errors"]}
    agg = spans.per_request(spans.read(traced["trace_path"]))
    reqs = [agg[i] for i in sorted(ok)]
    if not reqs:
        return {}

    def med(name, field):
        return statistics.median(req[name][field] if name in req else 0.0 for req in reqs)

    out = {metric: med(name, field) for metric, (_, name, field) in SPAN_METRICS.items()}
    out["leverage.effective_rank_mean"] = statistics.median(
        req["leverage.approx_leverage"]["effective_rank"] / req["leverage.approx_leverage"]["n"]
        if "leverage.approx_leverage" in req else 0.0
        for req in reqs
    )
    out["attnscore.flops"] = med("attnscore.noncausal_scores", "flops") + med("attnscore.h2o_scores", "flops")
    out["evict.unaccounted_s"] = statistics.median(
        req["evict.compress_bundle.untraced"]["s"] - sum(req[name]["s"] for name in STAGES if name in req)
        for req in reqs
    )
    recs = [rec for rec in traced["records"] if rec["request"] in ok]
    out["evict.retained_frac"] = statistics.median(rec["rows_out"] / rec["rows_in"] for rec in recs)
    out["calibrate.r_star_mean"] = statistics.fmean(rec["r"] for rec in recs) if wl.calibrated else 0.0
    out["calibrate.fit_calibration.s"] = setup["fit_s"]
    out["harness.synth_bundle.s"] = statistics.median(setup["synth_s"])
    plain_ok = [rec["seconds"] for rec in plain["records"] if not rec["errors"]]
    overhead = statistics.median(rec["seconds"] for rec in recs) - statistics.median(plain_ok) if plain_ok else math.nan
    out["trace.overhead_s"] = overhead
    return out


# --- running a workload ---------------------------------------------------------


def run_workload(name, seed, seconds, trace, smoke) -> dict:
    """Set up, measure and check one workload; returns the full result."""
    wl = workloads.get(name, smoke)
    started = time.monotonic()
    deadline = started + DEADLINE_S
    boot.OUT_DIR.mkdir(exist_ok=True)
    work = boot.OUT_DIR / f"work-{name}-{os.getpid()}"
    work.mkdir()
    try:
        setup = set_up(wl, seed, work)
        # leave each pass its share of the time left, and 25 s for the request in flight
        first_stop = time.monotonic() + (deadline - time.monotonic()) / (2 if trace else 1) - 25.0
        plain = run_pass(wl, seed, seconds, False, work, setup, first_stop, deadline, smoke)
        # per-layer numbers need few samples: the traced pass makes one request per bundle
        traced = run_pass(wl, seed, 0.0, True, work, setup, deadline - 25.0, deadline, smoke) if trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = (plain, traced) if traced else (plain,)
    for res in passes:
        mark_inconsistent(res["records"])
        if len(res["records"]) < res["min_requests"]:
            res["records"].append({"request": -1, "errors": ["ran out of time before one request per bundle"]})
    digests = {"plain": run_digest(plain)}
    if traced:
        digests["traced"] = run_digest(traced)
        by_request = {rec["request"]: rec.get("digest") for rec in plain["records"]}
        for rec in traced["records"]:
            if not rec["errors"] and by_request.get(rec["request"]) != rec["digest"]:
                rec["errors"].append("traced run kept other indices than the untraced run")
    all_records = [rec for res in passes for rec in res["records"]]

    metrics, details = end_to_end(wl, plain, setup)
    if traced:
        metrics = per_layer(wl, plain, traced, setup)
    units = PER_LAYER if trace else END_TO_END
    failed = sum(1 for rec in all_records if rec["errors"])
    complete = set(metrics) == set(units) and all(math.isfinite(v) for v in metrics.values())
    return {
        "workload": name,
        "smoke": smoke,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": {**plain["env"], "input_bytes": [b["bytes"] for b in setup["bundles"]]},
        "correct": failed == 0 and complete,
        "attempted": len(all_records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "details": {**details, "plan_digest": digests, "model": setup["model"]},
        "errors": [e for rec in all_records for e in rec["errors"]],
        "wall_s": time.monotonic() - started,
    }


def report(result):
    """Human-readable lines: environment, metrics with units, checks."""
    print(f"# {result['workload']}  seed {result['seed']}  trace {int(result['trace'])}"
          f"{'  (smoke shapes)' if result['smoke'] else ''}  wall {result['wall_s']:.1f} s")
    print(f"# env {json.dumps(result['env'], sort_keys=True)}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    d = result["details"]
    if "samples" in d:
        print(f"  bundle_s_p50 over {d['samples']} requests; bundle_s_tail at p{d['tail_percentile']:.1f} "
              f"with {d['tail_samples_beyond']} samples beyond"
              f"{'' if d['tail_samples_beyond'] else ' (21 samples or fewer: the maximum)'}")
        if not d["needles_planted"]:
            print("  needle_recall: no needles planted in this workload, so none was lost (1.0)")
        print(f"  rss after first/last request: {d['rss_after_first_mb']:.0f}/{d['rss_after_last_mb']:.0f} MB")
    print(f"  failed_frac {result['failed'] / result['attempted']:.6g} ({result['failed']}/{result['attempted']})")
    print(f"  plan digest {json.dumps(d['plan_digest'])}")
    for err in result["errors"]:
        print(f"  FAILED: {err.strip()}")


def save(result):
    name = stem(result["workload"], result["seed"], result["smoke"])
    path = boot.OUT_DIR / "results" / f"{name}-trace{int(result['trace'])}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny shapes, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        save(result)
        report(result)
        results.append(result)

    def key(res, metric):
        return metric if len(results) == 1 else f"{res['workload']}/{metric}"

    summary = {
        "correct": all(res["correct"] for res in results),
        "attempted": sum(res["attempted"] for res in results),
        "failed": sum(res["failed"] for res in results),
        "metrics": {key(res, k): v for res in results for k, v in res["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
