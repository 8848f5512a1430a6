"""Measured process of the benchmark: one client, closed loop.

Started by run.py as a fresh interpreter per pass, so its peak RSS is the
library's and not the set-up's. Usage: ``python3 worker.py SPEC.json``;
the spec names the input bundles and where to write the result.

A request is what ``kvc evict`` followed by ``kvc apply`` does, with one
load: load_bundle -> compress_bundle -> save_plan -> load_plan ->
apply_plan -> save_bundle. Calibrated workloads first pick the retention
r* = invert_retention(nll, tau, model). Each request's outputs are checked
after its timed region, and every reference to its bundle and plan is
dropped before the next one starts.

With tracing on, the request calls the public stage functions one by one
in the order compress_bundle calls them, each inside a span; after the
timed region it also runs compress_bundle itself, untraced, to time it
and to check that the recomposed plan is the same.
"""

import json
import math
import os
import resource
import sys
import time
import traceback
from dataclasses import replace

import boot

boot.pin_threads()
boot.import_library()

import numpy as np  # noqa: E402  (after the thread pin)
from kvcompactor import (  # noqa: E402
    AttnScoreConfig,
    CalibrationModel,
    EvictionPolicy,
    RetentionPlan,
    SketchSpec,
    apply_plan,
    apply_sketch,
    approx_leverage,
    blend_scores,
    compress_bundle,
    h2o_scores,
    invert_retention,
    load_bundle,
    load_plan,
    mean_pool,
    noncausal_scores,
    save_bundle,
    save_plan,
    select_topk,
    value_norm_scale,
)
from kvcompactor import attnscore  # noqa: E402
from kvcompactor.evict import child_seed  # noqa: E402
from kvcompactor.leverage import BasisMethod  # noqa: E402
from kvcompactor.sketch import next_pow2  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

# query rows per h2o block, for the computed row-block count
H2O_ROW_BLOCK = getattr(attnscore, "_ROW_BLOCK", 2048)


def environment() -> dict:
    """What the numbers depend on besides the code: machine, libraries, backend."""
    try:
        from kvcompactor import _kernels
    except ImportError:  # no kernel registry: the numpy path is the only one
        backend, backends = "python", ["python"]
    else:
        backend, backends = _kernels.backend(), _kernels.available_backends()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": boot.nproc(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "kernel_backend": backend,
        "available_backends": backends,
        "KVC_BACKEND": os.environ.get("KVC_BACKEND"),
    }


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or the pinned setting if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and line.rstrip().endswith(".so")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def _rss_mb() -> float:
    with open("/proc/self/statm", encoding="utf-8") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


# --- the untraced request ---------------------------------------------------


def plain_request(base, pick_r, in_path, plan_path, out_path):
    """One request; returns (retention, wall seconds, extra record fields)."""
    start = time.perf_counter()
    r = pick_r()
    bundle = load_bundle(in_path)
    plan = compress_bundle(bundle, replace(base, retention=r))
    save_plan(plan, plan_path)
    save_bundle(apply_plan(bundle, load_plan(plan_path)), out_path)
    return r, time.perf_counter() - start, {}


# --- the traced request -------------------------------------------------------


def head_sketch(spec: SketchSpec, d: int, layer: int, head: int) -> SketchSpec:
    """The sketch compress_bundle uses for one head: per-head seed, k capped at the column budget."""
    cap = d if spec.kind == "gaussian" else next_pow2(d)
    k = min(spec.target_dim, cap) if spec.kind != "none" else spec.target_dim
    return SketchSpec(kind=spec.kind, target_dim=k, seed=child_seed(spec.seed, layer, head))


def sketch_flops(spec: SketchSpec, n: int, d: int) -> float:
    """Computed: 2NdK for a Gaussian sketch; N d_pad log2 d_pad plus the N k column gather for SRHT."""
    if spec.kind == "gaussian":
        return 2.0 * n * d * spec.target_dim
    if spec.kind == "srht":
        d_pad = next_pow2(d)
        return float(n * d_pad * int(math.log2(d_pad)) + n * spec.target_dim)
    return 0.0


def chunk_counts(n: int, d: int, cfg: AttnScoreConfig):
    """Computed: chunks of noncausal_scores and their 2c^2d QK^T flops plus c^2 exps."""
    sizes = [min(cfg.chunk_size, n - s) for s in range(0, n, cfg.chunk_size)]
    return len(sizes), float(sum(2 * c * c * d + c * c for c in sizes))


def h2o_counts(n: int, d: int):
    """Computed: query-row blocks of h2o_scores and their 2 rows N d flops."""
    rows = [min(H2O_ROW_BLOCK, n - s) for s in range(0, n, H2O_ROW_BLOCK)]
    return len(rows), float(sum(2 * m * n * d for m in rows))


def recompose(t: spans.Tracer, bundle, policy: EvictionPolicy, method=BasisMethod()) -> RetentionPlan:
    """compress_bundle for the compactor and h2o policies, one traced public call at a time."""
    if policy.kind not in ("compactor", "h2o"):
        raise ValueError(f"the traced run covers the compactor and h2o policies, not {policy.kind!r}")
    cfg, r = policy.attn, policy.retention
    layers = []
    for l in range(bundle.n_layers):
        heads = []
        for h in range(bundle.n_kv_heads):
            with t.span("evict.head", layer=l, head=h):
                ht = bundle.head(l, h)
                n, d = ht.keys.shape
                if policy.kind == "compactor":
                    spec = head_sketch(policy.sketch, d, l, h)
                    with t.span("sketch.apply_sketch", flops=sketch_flops(spec, n, d)):
                        khat = apply_sketch(ht.keys_prerope, spec)
                    # approx_leverage without a sketch of its own: its work after the sketch step
                    with t.span("leverage.approx_leverage") as s:
                        lev = approx_leverage(khat, SketchSpec(kind="none", target_dim=khat.shape[1]), method)
                    s["effective_rank"] = lev.effective_rank
                    chunks, flops = chunk_counts(n, d, cfg)
                    with t.span("attnscore.noncausal_scores", chunks=chunks, flops=flops):
                        a = noncausal_scores(ht.queries, ht.keys, cfg)
                    with t.span("attnscore.mean_pool"):
                        a = mean_pool(a, cfg.pool_window)
                else:
                    blocks, flops = h2o_counts(n, d)
                    with t.span("attnscore.h2o_scores", row_blocks=blocks, flops=flops):
                        a = h2o_scores(ht.queries, ht.keys, cfg)
                if cfg.value_norm:
                    with t.span("attnscore.value_norm_scale"):
                        a = value_norm_scale(a, ht.values)
                if policy.kind == "compactor":
                    with t.span("evict.blend_scores"):
                        a = blend_scores(a, lev.scores, policy.lam)
                with t.span("evict.select_topk"):
                    idx = select_topk(a, r)
                heads.append(tuple(int(i) for i in idx))
        layers.append(tuple(heads))
    return RetentionPlan(
        retained=tuple(layers),
        retention_target=r,
        policy_name=policy.kind,
        seed=policy.seed,
        metadata={
            "policy": policy.to_json_dict(),
            "effective_sketch_k": head_sketch(policy.sketch, bundle.head_dim, 0, 0).target_dim,
            "basis": {"kind": method.kind, "sigma_clamp": method.sigma_clamp},
            "n_layers": bundle.n_layers,
            "n_kv_heads": bundle.n_kv_heads,
            "head_dim": bundle.head_dim,
            "seq_lens": bundle.seq_lens.tolist(),
        },
    )


def traced_request(t: spans.Tracer, base, pick_r, in_path, plan_path, out_path):
    """One request, span by span; returns (retention, wall seconds, extra record fields)."""
    with t.span("request") as req:
        r = pick_r()
        policy = replace(base, retention=r)
        with t.span("kvstore.load_bundle", bytes=os.path.getsize(in_path)):
            bundle = load_bundle(in_path)
        with t.span("evict.compress_bundle"):
            plan = recompose(t, bundle, policy)
        with t.span("kvstore.save_plan") as s:
            save_plan(plan, plan_path)
        s["bytes"] = os.path.getsize(plan_path)
        with t.span("kvstore.load_plan"):
            plan = load_plan(plan_path)
        with t.span("kvstore.apply_plan", rows=sum(len(i) for layer in plan.retained for i in layer)):
            out = apply_plan(bundle, plan)
        with t.span("kvstore.save_bundle") as s:
            save_bundle(out, out_path)
        s["bytes"] = os.path.getsize(out_path)
        del out
    # outside the request: the library's own compress_bundle, untraced inside
    with t.span("evict.compress_bundle.untraced"):
        reference = compress_bundle(bundle, policy)
    matches = reference.retained == plan.retained and reference.retention_target == plan.retention_target
    return r, req["end"] - req["start"], {"plan_matches": matches}


# --- the loop ------------------------------------------------------------------


def retention_picker(spec, model, tracer, i):
    """The retention step of request i: fixed, or r* from the calibration model (traced if tracing)."""
    if model is None:
        return lambda: spec["retention"]

    def pick():
        if tracer is None:
            return invert_retention(spec["nlls"][i], spec["tau"], model)
        with tracer.span("calibrate.invert_retention"):
            return invert_retention(spec["nlls"][i], spec["tau"], model)

    return pick


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    base = EvictionPolicy.from_json_dict(spec["policy"])
    model = CalibrationModel(**spec["model"]) if spec["model"] else None
    tracer = spans.Tracer() if spec["trace"] else None
    work = spec["work_dir"]
    plan_path = os.path.join(work, f"plan-{os.getpid()}.json")
    out_path = os.path.join(work, f"out-{os.getpid()}.kvt")

    def request(pick_r, in_path):
        if tracer is None:
            return plain_request(base, pick_r, in_path, plan_path, out_path)
        return traced_request(tracer, base, pick_r, in_path, plan_path, out_path)

    warm = spec["warmup"]
    request(lambda: warm["r"], warm["path"])
    if tracer is not None:
        tracer.clear()
    ready_at = time.monotonic()

    records = []
    t0 = time.monotonic()
    while len(records) < spec["min_requests"] or time.monotonic() - t0 < spec["seconds"]:
        i = len(records)
        if i >= len(spec["nlls"]) or time.monotonic() > spec["stop_by"]:
            break
        bundle = spec["bundles"][i % len(spec["bundles"])]
        pick_r = retention_picker(spec, model, tracer, i)
        rec = {"request": i, "bundle": i % len(spec["bundles"])}
        try:
            if tracer is not None:
                tracer.request = i
            rec["r"], rec["seconds"], extra = request(pick_r, bundle["path"])
            rec.update(extra)
            rec.update(checks.check_request(bundle["path"], out_path, plan_path, rec["r"], bundle["needles"]))
            if not rec.get("plan_matches", True):
                rec["errors"].append("plan recomposed from the stage functions differs from compress_bundle's")
        except Exception:  # a failed request is counted, and the loop goes on
            rec["errors"] = [traceback.format_exc()]
        rec["rss_mb"] = _rss_mb()
        records.append(rec)

    if tracer is not None:
        tracer.write(spec["trace_path"])
    result = {
        "ready_at": ready_at,
        "records": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    with open(spec["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
