"""Wall-clock scaling of scoring + selection for a single layer.

Absolute times are informational; the contract is the shape (fitted
log-log slope, doubling ratios). Timing uses a monotonic clock with
median-of-repeats after discarded warmup runs, and benchmark points run
sequentially to avoid contention skew.
"""

import time

import numpy as np

from ..errors import ParameterError, _check_field
from ..evict import EvictionPolicy, _head_indices, child_seed
from ..kvstore import HeadTensors


def _bench_inputs(n: int, d: int, seed: int):
    rng = np.random.Generator(np.random.Philox(seed))
    kpre = rng.standard_normal((n, d)).astype(np.float32)
    q = rng.standard_normal((n, d)).astype(np.float32)
    v = rng.standard_normal((n, d)).astype(np.float32)
    return HeadTensors(keys=kpre, values=v, keys_prerope=kpre, queries=q)


def bench_scaling(
    policy: EvictionPolicy,
    n_list,
    repeats: int = 9,
    warmup: int = 2,
    d: int = 64,
    seed: int = 0,
) -> dict:
    """Median scoring+selection time per context length, plus the log-log slope.

    Returns ``{"rows": [...], "loglog_slope": float}`` with one row per
    requested N.
    """
    n_list = list(n_list)
    if len(n_list) < 1 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ParameterError("n_list must be ascending")
    _check_field("repeats", repeats, "int", "[1, inf)")
    _check_field("warmup", warmup, "int", "[0, inf)")
    r = policy.retention if isinstance(policy.retention, float) else policy.retention[0]

    rows = []
    for n in n_list:
        ht = _bench_inputs(n, d, child_seed(seed, n))
        times = []
        for _ in range(warmup + repeats):
            t0 = time.perf_counter()
            _head_indices(policy, ht, 0, 0, r)
            times.append(time.perf_counter() - t0)
        med = float(np.median(times[warmup:]))
        rows.append({"n": n, "policy": policy.kind, "median_s": med, "repeats": repeats})

    slope = float("nan")
    if len(rows) >= 2:
        xs = np.log([row["n"] for row in rows])
        ys = np.log([max(row["median_s"], 1e-12) for row in rows])
        slope = float(np.polyfit(xs, ys, 1)[0])
    for row in rows:
        row["loglog_slope"] = slope
    return {"rows": rows, "loglog_slope": slope}
