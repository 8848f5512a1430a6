"""Exact and approximate statistical leverage scores of key matrices.

The leverage score of row i is the squared norm of the i-th row of an
orthonormal column basis U of the matrix; scores lie in [0, 1] and sum to
the rank. Rather than an SVD of the full N x d matrix, U is recovered from
the matrix's singular values sigma and right singular vectors V as
U = K V Sigma^-1, which the Gram route gets from the d x d Gram matrix
(svd of K^T K gives V and the squared spectrum): one small SVD plus two
GEMMs. Approximate scores right-sketch K first and run the same recovery on
the N x k sketch.

Precision changes at the sketch: its GEMM runs in K's dtype (float32 for
bundle keys, see ``sketch.apply_sketch``), while the basis recovery (the
k x k Gram, its SVD and U) always runs in float64. The Gram squares the
condition number, so float32 there would lose the small directions that
leverage is meant to find.

Three basis subroutines are provided: the Gram-SVD route above, which is
the default and the only one the eviction pipeline uses, plus Gram
eigendecomposition and an SVD of the sketch's R factor from a reduced QR,
kept as cross-checks of it (acceptance criterion C06). Each supplies only
sigma and V; everything after that is shared. Singular values are clamped
at ``sigma_clamp`` times the largest, so rank-deficient inputs degrade
gracefully instead of failing; the effective rank counts those above the
floor, and the scores are the squared row norms of K V / max(sigma, floor).
Under every route, each direction above the floor adds 1 to the scores'
sum and each below it (sigma / floor)^2 < 1, so a rank-deficient sketch
sums to about its effective rank. An all-zero sketch scores zero with
rank 0.

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
        # the Gram routes square the spectrum: below about sqrt(eps) ~ 1.5e-8 they would count roundoff as rank
        _check_field("sigma_clamp", self.sigma_clamp, "real", "[1e-7, 1)")


@dataclass(frozen=True, eq=False)
class LeverageResult:
    """Outlier scores and the count of non-clamped basis directions."""

    scores: ScoreVector
    effective_rank: int


def approx_leverage(
    K: np.ndarray, sketch: SketchSpec, method: BasisMethod = BasisMethod()
) -> LeverageResult:
    """Leverage scores of the rows of K, computed on the sketched matrix.

    With sketch kind "none" this is the exact computation. A square
    invertible sketch (k = d) preserves the column space, hence the exact
    scores; smaller k trades accuracy for speed, degrading with the
    condition number of K.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow or NaN is reported by the test below
        khat = np.ascontiguousarray(apply_sketch(K, sketch), dtype=np.float64)
        factor = np.linalg.qr(khat, mode="r") if method.kind == "qr" else khat.T @ khat
    if not _finite(factor):
        raise DataError("keys contain non-finite values, or values whose sketch or Gram overflows")

    # each route gives the sketch's singular values, largest first, and its right singular vectors
    if method.kind == "qr":
        _, sigma, vt = np.linalg.svd(factor, full_matrices=False)
        v = vt.T
    else:
        if method.kind == "svd_gram":
            v, sq, _ = np.linalg.svd(factor)
        else:
            sq, v = np.linalg.eigh(factor)
            sq = sq[::-1]
            v = v[:, ::-1]
        sigma = np.sqrt(np.clip(sq, 0.0, None))
    if sigma[0] == 0.0:  # an all-zero sketch
        return LeverageResult(scores=ScoreVector(np.zeros(khat.shape[0])), effective_rank=0)
    floor = method.sigma_clamp * sigma[0]
    u = khat @ (v / np.maximum(sigma, floor))
    ell = np.einsum("ij,ij->i", u, u)
    return LeverageResult(scores=ScoreVector(ell), effective_rank=int((sigma > floor).sum()))


def exact_leverage(K: np.ndarray, method: BasisMethod = BasisMethod()) -> LeverageResult:
    """Exact leverage scores of the rows of K (no sketching)."""
    K = _check_matrix("K", K)
    return approx_leverage(K, SketchSpec(kind="none", target_dim=K.shape[1]), method)
