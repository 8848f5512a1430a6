"""Exact and approximate statistical leverage scores of key matrices.

The leverage score of row i is the squared norm of the i-th row of an
orthonormal column basis U of the matrix; scores lie in [0, 1] and sum to
the rank. Rather than an SVD of the full N x d matrix, U is recovered from
the d x d Gram matrix (svd of K^T K gives V and the squared spectrum, then
U = K V Sigma^-1), which turns the computation into one small SVD plus two
GEMMs. Approximate scores right-sketch K first and run the same recovery on
the N x k sketch.

Precision changes at the sketch: its GEMM runs in K's dtype (float32 for
bundle keys, see ``sketch.apply_sketch``), while the basis recovery (the
k x k Gram, its SVD and U) always runs in float64. The Gram squares the
condition number, so float32 there would lose the small directions that
leverage is meant to find.

Three basis subroutines are provided: the Gram-SVD route above, which is
the default and the only one the eviction pipeline uses, plus reduced QR
and Gram eigendecomposition, kept as cross-checks of it (acceptance
criterion C06). All three share one robustness policy: singular values are
clamped at a relative floor so rank-deficient inputs degrade gracefully
instead of failing.

Each call tests finiteness once, on the k x k factor it decomposes (the
Gram, or the R factor for qr), before any LAPACK call that could fail to
converge: that factor is finite exactly when the keys are finite and
neither their sketch nor their Gram overflows, which is a DataError. The
N x d keys are not scanned again; a bundle's were tested when it was read
or built (see kvstore).

Scores are computed on pre-position-embedding keys when driven from a
bundle; position embedding rotates keys and distorts the spectrum the
scores are meant to summarize.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError, _check_field, _check_matrix
from .kvstore import ScoreVector, _finite
from .sketch import SketchSpec, apply_sketch

BASIS_KINDS = ("svd_gram", "qr", "eig_gram")


@dataclass(frozen=True)
class BasisMethod:
    """Subroutine choice for recovering the orthonormal row basis."""

    kind: str = "svd_gram"
    sigma_clamp: float = 1e-6

    def __post_init__(self):
        if self.kind not in BASIS_KINDS:
            raise ParameterError(f"unknown basis method {self.kind!r}")
        _check_field("sigma_clamp", self.sigma_clamp, "real", "(0, 1)")


@dataclass(frozen=True)
class LeverageResult:
    """Outlier scores and the count of non-clamped basis directions."""

    scores: ScoreVector
    effective_rank: int


def _basis_and_rank(khat: np.ndarray, method: BasisMethod):
    """Orthonormal-column basis of khat and the count of non-clamped directions.

    The one finiteness test of leverage (see the module docstring) is on the k x k Gram, or the R factor for qr.
    """
    khat = np.ascontiguousarray(khat, dtype=np.float64)
    n, k = khat.shape

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow or NaN is reported by the test below
        if method.kind == "qr":
            q, factor = np.linalg.qr(khat, mode="reduced")
        else:
            factor = khat.T @ khat
    if not _finite(factor):
        raise DataError("keys contain non-finite values, or values whose sketch or Gram overflows")

    if method.kind == "qr":
        diag = np.abs(np.diag(factor))
        dmax = diag.max(initial=0.0)
        if dmax == 0.0:
            return np.zeros((n, k)), 0
        rank = int((diag > method.sigma_clamp * dmax).sum())
        return q, rank

    if method.kind == "svd_gram":
        v, sq, _ = np.linalg.svd(factor)
    else:
        sq, v = np.linalg.eigh(factor)
        sq = sq[::-1]
        v = v[:, ::-1]
    sigma = np.sqrt(np.clip(sq, 0.0, None))
    smax = sigma[0]
    if smax == 0.0:
        return np.zeros((n, k)), 0
    floor = method.sigma_clamp * smax
    rank = int((sigma > floor).sum())
    u = khat @ (v / np.maximum(sigma, floor))
    return u, rank


def row_basis(khat: np.ndarray, method: BasisMethod = BasisMethod()) -> np.ndarray:
    """Orthonormal-column basis U of khat via the chosen subroutine.

    Clamping absorbs rank deficiency: clamped directions come back with
    near-zero (gram routes) or unnormalized (qr) columns rather than
    raising.
    """
    return _basis_and_rank(_check_matrix("khat", khat), method)[0]


def approx_leverage(
    K: np.ndarray, sketch: SketchSpec, method: BasisMethod = BasisMethod()
) -> LeverageResult:
    """Leverage scores of the rows of K, computed on the sketched matrix.

    With sketch kind "none" this is the exact computation. A square
    invertible sketch (k = d) preserves the column space, hence the exact
    scores; smaller k trades accuracy for speed, degrading with the
    condition number of K.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sketch is reported by _basis_and_rank
        khat = apply_sketch(K, sketch)
    u, rank = _basis_and_rank(khat, method)
    ell = np.einsum("ij,ij->i", u, u)
    return LeverageResult(scores=ScoreVector(ell, kind="outlier"), effective_rank=rank)


def exact_leverage(K: np.ndarray, method: BasisMethod = BasisMethod()) -> LeverageResult:
    """Exact leverage scores via the Gram identity (no sketching)."""
    K = _check_matrix("K", K)
    return approx_leverage(K, SketchSpec(kind="none", target_dim=K.shape[1]), method)
