"""The benchmark's workloads and the seeded inputs each one is built from.

Every input is a function of the workload and the ``--seed`` argument:
the synthetic bundles, the calibration triples the retention model is fit
on, and the per-request context NLLs. The library only ever sees the
generated files and values.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

# bundles synthesized per run; requests cycle over them, and set-up time is
# the median of their individual set-ups
N_BUNDLES = 3
TAU = 0.5
# calibrated workloads give each request a context NLL in [NLL_LO, NLL_HI);
# with the model below that puts r* at roughly 0.62-0.79
NLL_LO, NLL_HI = 1.0, 3.0
MAX_REQUESTS = 512


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    profile: dict  # SynthProfile fields other than N, d and seed
    n_layers: int
    n_kv_heads: int
    seq_len: int
    head_dim: int
    policy: dict  # an EvictionPolicy JSON document, as `kvc evict --policy` reads
    retention: Optional[float]  # None: r* = invert_retention(nll, TAU, model) per request

    @property
    def calibrated(self) -> bool:
        return self.retention is None


def _policy(kind: str, sketch_kind: str = "gaussian") -> dict:
    return {
        "kind": kind,
        "lambda": 0.3,
        "retention": 0.5,  # replaced by each request's retention
        "sketch": {"kind": sketch_kind, "k": 64, "seed": 0},
        "attn": {
            "chunk_size": 256,
            "pool_window": 7,
            "scale": None,
            "value_norm": True,
            "baseline_window": 32,
            "snap_keep_window": True,
        },
        "seed": 0,
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="compact_long",
            why="2x4 heads at N=32768: chunked attention and 0.5 GB file I/O dominate, r* from calibration keeps ~70% so writes are large",
            profile={"kind": "low_rank_plus_noise", "rank": 16, "noise_sigma": 0.1},
            n_layers=2,
            n_kv_heads=4,
            seq_len=32768,
            head_dim=128,
            policy=_policy("compactor", "gaussian"),
            retention=None,
        ),
        Workload(
            name="compact_heads",
            why="16x8 short heads at N=2048, same bytes as compact_long: SRHT sketch, leverage and per-head overhead dominate, writes are small",
            profile={"kind": "needle", "needle_count": 8, "noise_sigma": 0.1},
            n_layers=16,
            n_kv_heads=8,
            seq_len=2048,
            head_dim=128,
            policy=_policy("compactor", "srht"),
            retention=0.1,
        ),
        Workload(
            name="baseline_causal",
            why="h2o causal baseline on 1x2 heads at N=8192: quadratic scoring and its memory dominate, file I/O is small",
            profile={"kind": "clustered", "noise_sigma": 0.5},
            n_layers=1,
            n_kv_heads=2,
            seq_len=8192,
            head_dim=128,
            policy=_policy("h2o"),
            retention=0.25,
        ),
    )
}

# tiny shapes with the same profiles and policies, for the smoke test
_SMOKE_SHAPES = {
    "compact_long": dict(n_layers=2, n_kv_heads=2, seq_len=1024),
    "compact_heads": dict(n_layers=4, n_kv_heads=2, seq_len=256),
    "baseline_causal": dict(n_layers=1, n_kv_heads=2, seq_len=512),
}
# every worker compacts one head of the workload's own length, untimed, before
# its first request, so the allocator has seen the per-head array sizes
_WARMUP_SHAPE = dict(n_layers=1, n_kv_heads=1)


def get(name: str, smoke: bool = False) -> Workload:
    wl = WORKLOADS[name]
    return replace(wl, **_SMOKE_SHAPES[name]) if smoke else wl


def warmup(wl: Workload) -> Workload:
    return replace(wl, **_WARMUP_SHAPE)


def bundle_seed(seed: int, i: int) -> int:
    """Synthesis seed of bundle ``i`` of a run."""
    return int(np.random.SeedSequence([seed, 1, i]).generate_state(1)[0])


def request_nlls(seed: int) -> list:
    """Context NLL of each request of a run, in request order.

    A golden-ratio sequence from a seeded start spreads even a few requests
    evenly over [NLL_LO, NLL_HI), so runs of different seeds move about the
    same number of bytes.
    """
    u0 = np.random.default_rng([seed, 2]).random()
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    return [NLL_LO + (NLL_HI - NLL_LO) * ((u0 + i * golden) % 1.0) for i in range(MAX_REQUESTS)]


def calibration_rows(seed: int, n: int = 240) -> list:
    """(r, nll_c, y) triples observed from the curve with steepness k = nll + 0.1.

    y carries 1% multiplicative noise, so the fit has something to do.
    """
    rng = np.random.default_rng([seed, 3])
    rows = []
    for _ in range(n):
        nll = rng.uniform(0.5, 3.5)
        r = rng.uniform(0.05, 1.0)
        k = nll + 0.1
        f = math.exp((r - 1.0) * k) * math.expm1(-r * k) / math.expm1(-k)
        rows.append((r, nll, max(f * (1.0 + 0.01 * rng.standard_normal()), 1e-6)))
    return rows
