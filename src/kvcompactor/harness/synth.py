"""Synthetic bundle generation for tests, sweeps, and benchmarks."""

from dataclasses import dataclass

import numpy as np

from .._pool import map_heads
from ..errors import ParameterError, _check_field
from ..evict import child_seed
from ..kvstore import KVBundle

SYNTH_KINDS = ("gaussian_iid", "low_rank_plus_noise", "needle", "clustered")
_N_CLUSTERS = 4
_BLOCK = 1024  # rows drawn per float64 scratch block


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
        for name, low in (("N", 1), ("d", 1), ("rank", 0), ("needle_count", 0), ("seed", 0)):
            _check_field(name, getattr(self, name), "int", f"[{low}, inf)")
        _check_field("noise_sigma", self.noise_sigma, "real", "[0, inf)")
        if self.kind == "low_rank_plus_noise":
            _check_field("rank", self.rank, "int", f"[1, {self.d}]")
        if self.kind == "needle":
            _check_field("needle_count", self.needle_count, "int", f"[1, {min(self.N, self.d)})")


def planted_needles(profile: SynthProfile) -> np.ndarray:
    """Sorted positions of the planted needle rows (empty for other kinds)."""
    if profile.kind != "needle":
        return np.empty(0, dtype=np.int64)
    rng = np.random.Generator(np.random.Philox(child_seed(profile.seed, 0xFEED)))
    return np.sort(rng.choice(profile.N, size=profile.needle_count, replace=False))


def _blocks(n: int) -> list:
    """Row slices covering [0, n), each starting at a multiple of _BLOCK.

    A product over one block then tiles its rows as a product over all n rows
    does, so each sum rounds alike. A one-row tail joins the block before it:
    numpy runs a one-row product as a GEMV, which rounds otherwise.
    """
    starts = list(range(0, n, _BLOCK))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _scratch(buf: np.ndarray, rows: slice, width: int) -> np.ndarray:
    """A C-contiguous (rows, width) view at the head of the flat float64 buffer `buf`."""
    return buf[: (rows.stop - rows.start) * width].reshape(-1, width)


def _noise(rng: np.random.Generator, buf: np.ndarray, rows: slice, width: int, sigma: float) -> np.ndarray:
    """sigma times rng's next (rows, width) standard normals, drawn into the head of `buf`."""
    noise = rng.standard_normal(out=_scratch(buf, rows, width))
    noise *= sigma
    return noise


def _fill_normal(rng: np.random.Generator, out: np.ndarray, buf: np.ndarray) -> None:
    """Fill float32 `out` with rng's next standard normals, a row block at a time through `buf`."""
    for rows in _blocks(len(out)):
        out[rows] = rng.standard_normal(out=_scratch(buf, rows, out.shape[1]))


def _draw_keys(profile: SynthProfile, rng: np.random.Generator, out: np.ndarray, blk, aux) -> None:
    """Write one head's keys into float32 `out`, a row block at a time through the scratch buffers blk and aux.

    rng is drawn in the order that drawing each matrix whole would draw it.
    """
    n, d, sigma = profile.N, profile.d, profile.noise_sigma
    if profile.kind == "gaussian_iid":
        _fill_normal(rng, out, blk)
    elif profile.kind == "low_rank_plus_noise":
        a = rng.standard_normal((n, profile.rank))
        b = rng.standard_normal((profile.rank, d))
        for rows in _blocks(n):
            k = np.matmul(a[rows], b, out=_scratch(blk, rows, d))
            if sigma > 0:
                k += _noise(rng, aux, rows, d, sigma)
            out[rows] = k
    elif profile.kind == "clustered":
        centers = 3.0 * rng.standard_normal((_N_CLUSTERS, d))
        assign = rng.integers(0, _N_CLUSTERS, size=n)
        for rows in _blocks(n):
            k = _noise(rng, blk, rows, d, sigma)
            k += np.take(centers, assign[rows], axis=0, out=_scratch(aux, rows, d), mode="clip")
            out[rows] = k
    else:
        # needle: base rows live in a (d - m)-dim subspace, needles span the
        # orthogonal complement, so any base noise never bleeds into them;
        # the noise follows all of the coefficients, so those are drawn whole
        m = profile.needle_count
        ortho, _ = np.linalg.qr(rng.standard_normal((d, d)))
        coeff = rng.standard_normal((n - m, d - m))
        if sigma > 0:
            for rows in _blocks(n - m):
                coeff[rows] += _noise(rng, blk, rows, d - m, sigma)
        pos = planted_needles(profile)
        base_rows = np.delete(np.arange(n), pos)
        for rows in _blocks(n - m):
            out[base_rows[rows]] = np.matmul(coeff[rows], ortho[:, : d - m].T, out=_scratch(blk, rows, d))
        out[pos] = ortho[:, d - m :].T * np.sqrt(d - m)


def _draw_head(profile: SynthProfile, seed: int, out: np.ndarray) -> None:
    """Draw one head's keys, values and queries into out[0], out[1] and out[2] from its own Philox stream."""
    rng = np.random.Generator(np.random.Philox(seed))
    blk, aux = np.empty((2, min(profile.N, _BLOCK + 1) * profile.d))
    _draw_keys(profile, rng, out[0], blk, aux)
    for mat in out[1:]:
        _fill_normal(rng, mat, blk)


def synth_bundle(profile: SynthProfile, n_layers: int = 1, n_kv_heads: int = 1) -> KVBundle:
    """Deterministic bundle with per-(layer, head) keys drawn from `profile`.

    Synthetic keys carry no position embedding, so the pre-rope and cached
    keys are the same read-only arrays; queries and values are standard
    Gaussian. The bundle is one float32 (layers, heads, 3, N, d) payload,
    allocated on the calling thread. Each (layer, head) is drawn from its own
    Philox stream, one thread per usable core, so the bytes do not depend on
    the number of threads. Heads are drawn in blocks of 1024 rows through
    float64 scratch and cast to float32 as each block is drawn; the memory
    beyond the payload is, per thread, two 1025 x d float64 blocks and the
    profile's own whole arrays: N x rank for low_rank_plus_noise and
    (N - needle_count) x (d - needle_count) for needle.
    """
    _check_field("n_layers", n_layers, "int", "[1, inf)")
    _check_field("n_kv_heads", n_kv_heads, "int", "[1, inf)")
    data = np.empty((n_layers, n_kv_heads, 3, profile.N, profile.d), dtype=np.float32)
    map_heads(lambda l, h: _draw_head(profile, child_seed(profile.seed, l, h), data[l, h]), n_layers, n_kv_heads)
    # one list serves as both key groups, so each pre-rope key is the cached key object itself
    keys = [[data[l, h, 0] for h in range(n_kv_heads)] for l in range(n_layers)]
    return KVBundle(keys=keys, values=data[:, :, 1], keys_prerope=keys, queries=data[:, :, 2])
