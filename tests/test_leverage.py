import warnings

import numpy as np
import pytest

from kvcompactor import BasisMethod, SketchSpec, apply_sketch, approx_leverage, exact_leverage
from kvcompactor.errors import DataError, ParameterError
from kvcompactor.leverage import BASIS_KINDS
from kvcompactor.sketch import SKETCH_KINDS


def oracle_leverage(K, tol=1e-10):
    """Brute-force reference: full SVD of K, row norms of the rank-truncated U."""
    u, s, _ = np.linalg.svd(K, full_matrices=False)
    rank = int((s > tol * s.max(initial=0.0)).sum())
    return (u[:, :rank] ** 2).sum(axis=1)


class TestExactLeverage:
    def test_identity_rows(self):
        res = exact_leverage(np.eye(3))
        assert np.allclose(res.scores.scores, [1.0, 1.0, 1.0])
        assert res.effective_rank == 3

    def test_small_example_vs_oracle(self):
        K = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        got = exact_leverage(K).scores.scores
        assert np.allclose(got, oracle_leverage(K), atol=1e-12)
        assert np.allclose(got, [0.5, 0.5, 1.0])

    def test_sum_equals_dim_full_rank(self):
        K = np.random.default_rng(0).standard_normal((64, 8))
        res = exact_leverage(K)
        assert abs(res.scores.scores.sum() - 8) < 1e-4
        assert res.effective_rank == 8

    def test_all_zero_matrix(self):
        res = exact_leverage(np.zeros((5, 3)))
        assert np.array_equal(res.scores.scores, np.zeros(5))
        assert res.effective_rank == 0

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError):
            exact_leverage(np.array([[np.nan, 1.0]]))

    @pytest.mark.parametrize("shape", [(5, 0), (0, 5)])
    def test_empty_matrix_rejected(self, shape):
        with pytest.raises(ParameterError, match="at least one row and one column"):
            exact_leverage(np.zeros(shape))
        with pytest.raises(ParameterError, match="at least one row and one column"):
            approx_leverage(np.zeros(shape), SketchSpec("gaussian", 4))

    def test_column_space_invariance(self):
        rng = np.random.default_rng(1)
        K = rng.standard_normal((50, 6))
        M = np.eye(6) + 0.1 * rng.standard_normal((6, 6))
        a = exact_leverage(K).scores.scores
        b = exact_leverage(K @ M).scores.scores
        assert np.allclose(a, b, atol=1e-5)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        K = rng.standard_normal((30, 5))
        perm = rng.permutation(30)
        a = exact_leverage(K).scores.scores
        b = exact_leverage(K[perm]).scores.scores
        assert np.allclose(a[perm], b, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_bounds(self, seed):
        rng = np.random.default_rng(seed)
        shape = rng.integers(5, 60), rng.integers(2, 12)
        K = rng.standard_normal(shape)
        scores = exact_leverage(K).scores.scores
        assert scores.min() >= 0.0
        assert scores.max() <= 1.0 + 1e-6


class TestApproxLeverage:
    def test_none_sketch_equals_exact(self):
        K = np.random.default_rng(3).standard_normal((40, 8))
        a = approx_leverage(K, SketchSpec("none", 8)).scores.scores
        b = exact_leverage(K).scores.scores
        assert np.allclose(a, b, atol=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_square_gaussian_matches_exact(self, seed):
        K = np.random.default_rng(100 + seed).standard_normal((512, 64))
        a = approx_leverage(K, SketchSpec("gaussian", 64, seed)).scores.scores
        assert np.abs(a - exact_leverage(K).scores.scores).max() < 1e-4

    def test_thm2_sandwich_well_conditioned(self):
        # kappa <= 2, square sketch: ratios stay inside the eps=0.9 bound
        from kvcompactor.harness import conditioned_matrix

        eps, kappa = 0.9, 2.0
        t = (1 + eps) / (1 - eps)
        ok = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            K = conditioned_matrix(1024, 64, kappa, rng)
            ell = exact_leverage(K).scores.scores
            tl = approx_leverage(K, SketchSpec("gaussian", 64, seed)).scores.scores
            gamma = tl / ell
            if gamma.max() <= kappa * t and gamma.min() >= 1 / (kappa * t):
                ok += 1
        assert ok >= 19

    @pytest.mark.parametrize("kind", ["gaussian", "srht"])
    def test_float32_keys_match_float64_path(self, kind):
        # the sketch GEMM runs in float32; the Gram, its SVD and the basis stay float64
        from kvcompactor.harness import conditioned_matrix

        K = conditioned_matrix(4096, 128, 100.0, np.random.default_rng(7)).astype(np.float32)
        spec = SketchSpec(kind, 64, seed=3)
        got = approx_leverage(K, spec)
        want = approx_leverage(K.astype(np.float64), spec)
        assert got.effective_rank == want.effective_rank
        assert np.abs(got.scores.scores - want.scores.scores).max() < 1e-5

    @pytest.mark.parametrize("kind", ["none", "gaussian", "srht"])
    def test_int64_keys_match_float64_copy(self, kind):
        # the finiteness check must not overflow on integer input (no NaN or inf to find there)
        K = np.random.default_rng(11).integers(-(2**40), 2**40, size=(64, 8), dtype=np.int64)
        spec = SketchSpec(kind, 8, seed=2)
        got, want = approx_leverage(K, spec), approx_leverage(K.astype(np.float64), spec)
        assert got.effective_rank == want.effective_rank
        assert np.array_equal(got.scores.scores, want.scores.scores)

    @pytest.mark.parametrize("kind, k", [("gaussian", 16), ("srht", 16), ("none", 64)])
    def test_memory_is_the_float64_sketch_and_basis(self, peak_bytes, kind, k):
        # the budget attnscore's module docstring states: N * k * 16 bytes, plus O(N) vectors and O(k^2) factors
        n = 8192
        K = np.random.default_rng(17).standard_normal((n, 64)).astype(np.float32)
        assert peak_bytes(approx_leverage, K, SketchSpec(kind, k, seed=1)) < 16 * n * k + 16 * n + 64 * k * k

    def test_rank_deficient_never_errors(self):
        K = np.zeros((20, 8))
        K[:, 0] = 1.0
        res = approx_leverage(K, SketchSpec("gaussian", 8, 0))
        assert res.effective_rank == 1
        assert np.isfinite(res.scores.scores).all()


class TestNonFiniteKeys:
    """Leverage tests finiteness once, on the k x k factor it decomposes; no input reaches LAPACK unchecked."""

    @staticmethod
    def leverage(K, kind, method):
        spec = SketchSpec(kind, K.shape[1] if kind == "none" else 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow or invalid-value RuntimeWarning escapes
            return approx_leverage(K, spec, BasisMethod(method))

    @pytest.mark.parametrize("method", BASIS_KINDS)
    @pytest.mark.parametrize("kind", SKETCH_KINDS)
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nonfinite_key_is_data_error(self, method, kind, value, dtype):
        K = np.random.default_rng(12).standard_normal((50, 8)).astype(dtype)
        K[17, 3] = value
        with pytest.raises(DataError, match="^keys contain non-finite values"):
            self.leverage(K, kind, method)

    @pytest.mark.parametrize("method", BASIS_KINDS)
    @pytest.mark.parametrize("kind", ["gaussian", "srht"])
    @pytest.mark.parametrize("K", [np.full((50, 8), 3e38, np.float32), np.full((50, 8), 1.7e308)], ids=["f32", "f64"])
    def test_overflowing_sketch_is_data_error(self, method, kind, K):
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(apply_sketch(K, SketchSpec(kind, 4))).all()
        with pytest.raises(DataError, match="^keys contain non-finite values, or values whose sketch"):
            self.leverage(K, kind, method)

    @pytest.mark.parametrize("kind", SKETCH_KINDS)
    def test_overflowing_gram_is_data_error(self, kind):
        # finite keys with a finite sketch whose Gram overflows float64; qr forms no Gram, and scores them
        K = np.full((50, 8), 1e200)
        for method in ("svd_gram", "eig_gram"):
            with pytest.raises(DataError, match="^keys contain non-finite values"):
                self.leverage(K, kind, method)
        assert np.isfinite(self.leverage(K, kind, "qr").scores.scores).all()

    @pytest.mark.parametrize("method", BASIS_KINDS)
    def test_row_basis_shares_the_test(self, method):
        with pytest.raises(DataError, match="^keys contain non-finite values"):
            exact_leverage(np.array([[np.nan, 1.0], [0.0, 1.0]]), BasisMethod(method))

    def test_sketch_spec_checked_first(self):
        with pytest.raises(ParameterError, match="gaussian sketch needs k <= d"):
            approx_leverage(np.full((5, 4), np.nan), SketchSpec("gaussian", 8))


class TestRowBasis:
    """The basis every BasisMethod route recovers, seen through its squared row norms, the scores.

    The routes share one clamp, rank rule and scaled basis, so the scores sum to the effective rank under each.
    """

    def test_orthonormal_input(self):
        q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((32, 8)))
        for method in BASIS_KINDS:
            res = exact_leverage(q, BasisMethod(method))
            assert res.effective_rank == 8
            assert np.allclose(res.scores.scores, (q**2).sum(axis=1), atol=1e-10)

    @pytest.mark.parametrize("kind", ["qr", "eig_gram"])
    def test_methods_agree_on_row_norms(self, kind):
        khat = np.random.default_rng(5).standard_normal((256, 16))
        ref = exact_leverage(khat, BasisMethod("svd_gram")).scores.scores
        alt = exact_leverage(khat, BasisMethod(kind)).scores.scores
        assert np.abs(ref - alt).max() < 1e-4

    def test_zero_column_drops_rank(self):
        khat = np.random.default_rng(6).standard_normal((64, 8))
        khat[:, 3] = 0.0
        for method in BASIS_KINDS:
            res = approx_leverage(khat, SketchSpec("none", 8), BasisMethod(method))
            assert res.effective_rank == 7, method
            assert abs(res.scores.scores.sum() - 7) < 1e-9, method

    @pytest.mark.parametrize("clamp", [1e-7, 1e-6])
    @pytest.mark.parametrize("method", BASIS_KINDS)
    def test_zero_column_of_tiny_keys(self, method, clamp):
        # keys of scale 1e-5: a clamp below roundoff once counted the zero column as rank, or raised under eig_gram
        K = np.random.default_rng(6).standard_normal((64, 8)) * 1e-5
        K[:, 3] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = exact_leverage(K, BasisMethod(method, sigma_clamp=clamp))
        assert res.effective_rank == 7
        assert abs(res.scores.scores.sum() - 7) < 1e-9

    def test_clamp_below_roundoff_rejected(self):
        with pytest.raises(ParameterError, match=r"^sigma_clamp must be in \[1e-7, 1\), got 1e-08"):
            BasisMethod(sigma_clamp=1e-8)

    @pytest.mark.parametrize("method", BASIS_KINDS)
    def test_rank_one_outer_product(self, method):
        # one direction above the floor and seven far below it: the clamped ones add almost nothing
        a = np.random.default_rng(0).standard_normal(50)
        b = np.random.default_rng(1).standard_normal(8)
        res = exact_leverage(np.outer(a, b), BasisMethod(method))
        assert res.effective_rank == 1
        assert abs(res.scores.scores.sum() - 1) < 1e-9

    @pytest.mark.parametrize("method", BASIS_KINDS)
    def test_fewer_rows_than_columns(self, method):
        # qr's R factor is 5 x 8 here, so its SVD is the reduced one
        res = exact_leverage(np.random.default_rng(8).standard_normal((5, 8)), BasisMethod(method))
        assert res.effective_rank == 5
        assert np.allclose(res.scores.scores, 1.0, atol=1e-9)

    def test_bad_method_kind(self):
        with pytest.raises(ParameterError):
            BasisMethod("cholesky")
        with pytest.raises(ParameterError):
            BasisMethod("qr", sigma_clamp=0.0)


def principal_angle_gap(a, b):
    """Largest principal angle (radians) between two orthonormal column spans."""
    s = np.linalg.svd(a.T @ b, compute_uv=False)
    return float(np.arccos(np.clip(s.min(), -1.0, 1.0)))


class TestSpectralPreservation:
    def test_top_leverage_rows_preserve_spectrum(self):
        # the top-8 subspace must be identifiable for the check to make
        # sense, so the spectrum carries a gap after the 8th value
        rng = np.random.default_rng(7)
        left, _ = np.linalg.qr(rng.standard_normal((2000, 32)))
        right, _ = np.linalg.qr(rng.standard_normal((32, 32)))
        spectrum = np.concatenate([np.geomspace(10.0, 5.0, 8), np.geomspace(1.0, 0.5, 24)])
        K = (left * spectrum) @ right.T
        ell = exact_leverage(K).scores.scores
        keep = np.argsort(-ell, kind="stable")[: 16 * 32]
        khat = K[np.sort(keep)]
        assert np.linalg.eigvalsh(khat.T @ khat)[0] > 0
        _, _, vt = np.linalg.svd(K, full_matrices=False)
        _, _, vt_hat = np.linalg.svd(khat, full_matrices=False)
        assert principal_angle_gap(vt[:8].T, vt_hat[:8].T) < 0.2
