"""Synthetic bundle generation for tests, sweeps, and benchmarks."""

from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from ..evict import child_seed
from ..kvstore import KVBundle

SYNTH_KINDS = ("gaussian_iid", "low_rank_plus_noise", "needle", "clustered")
_N_CLUSTERS = 4


@dataclass(frozen=True)
class SynthProfile:
    """Recipe for one synthetic key distribution.

    ``needle`` plants ``needle_count`` rows orthogonal to the span of the
    rest (their exact leverage is 1.0, the maximum); ``low_rank_plus_noise``
    draws K = A @ B with inner dimension ``rank`` plus isotropic noise;
    ``clustered`` scatters rows around 4 seeded centers with spread
    ``noise_sigma``.
    """

    kind: str
    N: int
    d: int
    rank: int = 0
    needle_count: int = 1
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SYNTH_KINDS:
            raise ParameterError(f"unknown profile kind {self.kind!r}")
        if self.N < 1 or self.d < 1:
            raise ParameterError("N and d must be >= 1")
        if self.kind == "low_rank_plus_noise" and not 1 <= self.rank <= self.d:
            raise ParameterError(f"rank must be in [1, d], got {self.rank}")
        if self.rank > self.d:
            raise ParameterError(f"rank {self.rank} exceeds d {self.d}")
        if self.kind == "needle" and not 1 <= self.needle_count < min(self.N, self.d):
            raise ParameterError("needle_count must be in [1, min(N, d))")
        if self.needle_count >= self.N:
            raise ParameterError("needle_count must be < N")
        if self.noise_sigma < 0:
            raise ParameterError("noise_sigma must be >= 0")
        if self.seed < 0:
            raise ParameterError("seed must be a non-negative integer")


def planted_needles(profile: SynthProfile) -> np.ndarray:
    """Sorted positions of the planted needle rows (empty for other kinds)."""
    if profile.kind != "needle":
        return np.empty(0, dtype=np.int64)
    rng = np.random.Generator(np.random.Philox(child_seed(profile.seed, 0xFEED)))
    return np.sort(rng.choice(profile.N, size=profile.needle_count, replace=False))


def _keys_for(profile: SynthProfile, rng: np.random.Generator) -> np.ndarray:
    n, d = profile.N, profile.d
    if profile.kind == "gaussian_iid":
        return rng.standard_normal((n, d))
    if profile.kind == "low_rank_plus_noise":
        a = rng.standard_normal((n, profile.rank))
        b = rng.standard_normal((profile.rank, d))
        k = a @ b
        if profile.noise_sigma > 0:
            k += profile.noise_sigma * rng.standard_normal((n, d))
        return k
    if profile.kind == "clustered":
        centers = 3.0 * rng.standard_normal((_N_CLUSTERS, d))
        assign = rng.integers(0, _N_CLUSTERS, size=n)
        return centers[assign] + profile.noise_sigma * rng.standard_normal((n, d))

    # needle: base rows live in a (d - m)-dim subspace, needles span the
    # orthogonal complement, so any base noise never bleeds into them
    m = profile.needle_count
    ortho, _ = np.linalg.qr(rng.standard_normal((d, d)))
    coeff = rng.standard_normal((n - m, d - m))
    if profile.noise_sigma > 0:
        coeff += profile.noise_sigma * rng.standard_normal((n - m, d - m))
    base = coeff @ ortho[:, : d - m].T
    needles = ortho[:, d - m :].T * np.sqrt(d - m)
    keys = np.empty((n, d))
    pos = planted_needles(profile)
    mask = np.ones(n, dtype=bool)
    mask[pos] = False
    keys[mask] = base
    keys[pos] = needles
    return keys


def synth_bundle(profile: SynthProfile, n_layers: int = 1, n_kv_heads: int = 1) -> KVBundle:
    """Deterministic bundle with per-(layer, head) keys drawn from `profile`.

    Synthetic keys carry no position embedding, so the pre-rope and cached
    keys are the same read-only arrays; queries and values are standard
    Gaussian. Each matrix is cast to float32 as it is drawn.
    """
    if n_layers < 1 or n_kv_heads < 1:
        raise ParameterError("n_layers and n_kv_heads must be >= 1")
    keys, values, queries = [], [], []
    for l in range(n_layers):
        k_row, v_row, q_row = [], [], []
        for h in range(n_kv_heads):
            rng = np.random.Generator(np.random.Philox(child_seed(profile.seed, l, h)))
            k_row.append(_keys_for(profile, rng).astype(np.float32))
            v_row.append(rng.standard_normal((profile.N, profile.d)).astype(np.float32))
            q_row.append(rng.standard_normal((profile.N, profile.d)).astype(np.float32))
        keys.append(k_row)
        values.append(v_row)
        queries.append(q_row)
    return KVBundle(keys=keys, values=values, keys_prerope=keys, queries=queries)
