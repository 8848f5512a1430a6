"""Right-sketching transforms used by approximate leverage computation.

A sketch shrinks the column dimension of a key matrix, K -> K @ Phi with
Phi of shape (d, k), while approximately preserving row geometry. Two kinds
are provided: dense Gaussian (entries N(0, 1/k)) and the subsampled
randomized Hadamard transform (SRHT). Both are built as an explicit (d, k)
matrix and applied as one GEMM; at head_dim scale the SRHT's Hadamard
factor is a small matrix, so no fast transform is needed.

The matrix is drawn in float64, and the GEMM runs in K's precision:
float32 keys (every bundle's) are multiplied by the matrix rounded to
float32 and give a float32 sketch; any other K gives a float64 sketch.

Every random stream in the package is built here: by _rng, a counter-based
(Philox) generator, from a seed that child_seed keys. So equal (input, spec)
pairs give bitwise-equal outputs regardless of thread scheduling.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, _check_field, _check_matrix

SKETCH_KINDS = ("gaussian", "srht", "none")


@dataclass(frozen=True)
class SketchSpec:
    """Description of one right-sketching transform."""

    kind: str
    target_dim: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SKETCH_KINDS:
            raise ParameterError(f"unknown sketch kind {self.kind!r}")
        _check_field("target_dim", self.target_dim, "int", "[1, inf)")
        _check_field("sketch seed", self.seed, "int", "[0, inf)")


def child_seed(root: int, *key: int) -> int:
    """Deterministic seed of the stream keyed by `key` (a (layer, head), a trial) under a root seed."""
    _check_field("seed", root, "int", "[0, inf)")
    return int(np.random.SeedSequence([root, *key]).generate_state(1, np.uint64)[0])


def _rng(seed: int) -> np.random.Generator:
    _check_field("seed", seed, "int", "[0, inf)")
    return np.random.Generator(np.random.Philox(seed))


def next_pow2(d: int) -> int:
    """Smallest power of two >= d."""
    return 1 << max(0, (d - 1).bit_length())


def gaussian_sketch(d: int, spec: SketchSpec) -> np.ndarray:
    """Seeded (d, k) matrix of i.i.d. Normal(0, 1/k) entries."""
    if spec.kind != "gaussian":
        raise ParameterError(f"expected a gaussian spec, got kind={spec.kind!r}")
    _check_field("d", d, "int", "[1, inf)")
    k = spec.target_dim
    if k > d:
        raise ParameterError(f"gaussian sketch needs k <= d, got k={k} d={d}")
    return _rng(spec.seed).standard_normal((d, k)) / math.sqrt(k)


def _parity(x: np.ndarray) -> np.ndarray:
    """1 where a non-negative integer has an odd number of set bits, else 0."""
    return (np.bitwise_count(x) & 1).astype(x.dtype)  # bitwise_count gives uint8, which 1 - 2 * p would wrap


def srht_sketch(d: int, spec: SketchSpec) -> np.ndarray:
    """Seeded (d, k) SRHT matrix (D H)[:d, cols] * sqrt(d_pad / k).

    D holds the Rademacher signs and H is the unnormalized d_pad x d_pad
    Sylvester Hadamard matrix, H[i, j] = (-1)^popcount(i & j), so only the
    d rows and k columns in use are built: rows past d would only multiply
    the zero padding of K to d_pad columns. All d_pad signs are drawn
    before the columns, as if the padding were materialized.
    """
    if spec.kind != "srht":
        raise ParameterError(f"expected an srht spec, got kind={spec.kind!r}")
    d_pad, k = next_pow2(d), spec.target_dim
    if k > d_pad:
        raise ParameterError(f"srht needs k <= d_pad, got k={k} d_pad={d_pad}")
    rng = _rng(spec.seed)
    signs = rng.integers(0, 2, size=d_pad).astype(np.float64) * 2.0 - 1.0
    cols = np.sort(rng.permutation(d_pad)[:k])
    hadamard = 1 - 2 * _parity(np.arange(d)[:, None] & cols)
    return signs[:d, None] * hadamard * math.sqrt(d_pad / k)


_SKETCHES = {"gaussian": gaussian_sketch, "srht": srht_sketch}


def apply_sketch(K: np.ndarray, spec: SketchSpec) -> np.ndarray:
    """K @ Phi with the spec's (d, k) sketch matrix; kind "none" returns K unchanged.

    Float32 K is multiplied by Phi rounded to float32, so the product is
    float32; any other K is multiplied by the float64 Phi.
    """
    K = _check_matrix("K", K)
    if spec.kind == "none":
        return K
    phi = _SKETCHES[spec.kind](K.shape[1], spec)
    return K @ (phi.astype(np.float32) if K.dtype == np.float32 else phi)
