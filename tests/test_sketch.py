import numpy as np
import pytest

from kvcompactor import SketchSpec, apply_sketch, gaussian_sketch, sketch
from kvcompactor.errors import ParameterError
from kvcompactor.sketch import _parity, next_pow2, srht_sketch


def sylvester_hadamard(n):
    h = np.ones((1, 1))
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


def test_parity_matches_bit_loop():
    # the shift-and-xor loop that np.bitwise_count replaced
    x = np.concatenate([np.arange(4096), np.random.default_rng(1).integers(0, 2**62, 256)])
    p, y = np.zeros_like(x), x.copy()
    while y.any():
        p ^= y & 1
        y >>= 1
    got = _parity(x)
    assert got.dtype == x.dtype and np.array_equal(got, p)


class TestGaussian:
    def test_deterministic_bitwise(self):
        spec = SketchSpec("gaussian", 16, seed=7)
        a = gaussian_sketch(64, spec)
        b = gaussian_sketch(64, spec)
        assert a.shape == (64, 16)
        assert np.array_equal(a, b)

    def test_moment_sanity(self):
        # law-of-large-numbers check over the 64000 generated entries
        phi = gaussian_sketch(1000, SketchSpec("gaussian", 64, seed=3))
        assert abs(phi.mean()) < 0.01
        assert abs(phi.var() - 1 / 64) < 0.1 / 64

    def test_k_zero_rejected(self):
        with pytest.raises(ParameterError):
            SketchSpec("gaussian", 0, seed=0)

    def test_k_above_d_rejected(self):
        with pytest.raises(ParameterError):
            gaussian_sketch(8, SketchSpec("gaussian", 16, seed=0))


class TestSrht:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_one_hot_row(self, k):
        # first Hadamard row is all ones, so a one-hot input row maps to a
        # constant vector of magnitude sqrt(d/k) with the sign of D[0, 0]
        K = np.zeros((1, 4))
        K[0, 0] = 1.0
        out = apply_sketch(K, SketchSpec("srht", k, seed=5))
        assert out.shape == (1, k)
        assert np.allclose(np.abs(out), np.sqrt(4 / k))
        assert np.unique(out).size == 1

    def test_matches_materialized_transform(self):
        rng = np.random.default_rng(0)
        for d, k, seed in [(64, 16, 0), (48, 32, 1), (5, 8, 2), (1, 1, 3), (128, 64, 4), (100, 128, 5)]:
            K = rng.standard_normal((9, d))
            spec = SketchSpec("srht", k, seed=seed)
            # the library's draws, in its order: d_pad Rademacher signs, then k sorted columns of a permutation
            d_pad = next_pow2(d)
            rng = sketch._rng(spec.seed)
            signs = rng.integers(0, 2, size=d_pad) * 2.0 - 1.0
            cols = np.sort(rng.permutation(d_pad)[:k])
            phi = (np.diag(signs) @ sylvester_hadamard(d_pad))[:, cols] * np.sqrt(d_pad / k)
            assert np.array_equal(srht_sketch(d, spec), phi[:d])
            padded = np.zeros((9, d_pad))
            padded[:, :d] = K
            assert np.allclose(apply_sketch(K, spec), padded @ phi, atol=1e-10)

    def test_padding_non_pow2(self):
        K = np.random.default_rng(1).standard_normal((7, 48))
        out = apply_sketch(K, SketchSpec("srht", 64, seed=0))
        assert out.shape == (7, 64)

    def test_k_above_pad_rejected(self):
        with pytest.raises(ParameterError):
            apply_sketch(np.ones((2, 48)), SketchSpec("srht", 65, seed=0))

    def test_row_norm_concentration(self):
        # relative to the transform's inherent d_pad scale (unnormalized
        # Hadamard factor), squared row norms concentrate within +-50%
        K = np.random.default_rng(0).standard_normal((256, 64))
        out = apply_sketch(K, SketchSpec("srht", 64, seed=0))
        ratio = (out**2).sum(1) / ((K**2).sum(1) * 64)
        assert np.mean((ratio > 0.5) & (ratio < 1.5)) >= 0.99

    def test_next_pow2(self):
        assert [next_pow2(x) for x in (1, 2, 3, 48, 64, 65)] == [1, 2, 4, 64, 64, 128]


class TestApplySketch:
    def test_none_identity(self):
        K = np.random.default_rng(2).standard_normal((5, 3))
        out = apply_sketch(K, SketchSpec("none", 3))
        assert np.array_equal(out, K)

    def test_gaussian_zero_matrix(self):
        out = apply_sketch(np.zeros((4, 8)), SketchSpec("gaussian", 8, seed=0))
        assert np.array_equal(out, np.zeros((4, 8)))

    def test_square_gaussian_preserves_rank(self):
        rng = np.random.default_rng(3)
        K = rng.standard_normal((32, 6)) @ rng.standard_normal((6, 12))  # rank 6
        out = apply_sketch(K, SketchSpec("gaussian", 12, seed=0))
        rank = lambda m: int((np.linalg.svd(m, compute_uv=False) > 1e-8).sum())
        assert rank(out) == rank(K) == 6

    @pytest.mark.parametrize("kind,k", [("gaussian", 16), ("srht", 16)])
    def test_linearity(self, kind, k):
        rng = np.random.default_rng(4)
        k1 = rng.standard_normal((20, 32))
        k2 = rng.standard_normal((20, 32))
        spec = SketchSpec(kind, k, seed=9)
        lhs = apply_sketch(2.5 * k1 - 0.7 * k2, spec)
        rhs = 2.5 * apply_sketch(k1, spec) - 0.7 * apply_sketch(k2, spec)
        assert np.allclose(lhs, rhs, rtol=1e-5, atol=1e-9)

    @pytest.mark.parametrize("kind", ["gaussian", "srht"])
    def test_gemm_runs_in_the_keys_precision(self, kind):
        K = np.random.default_rng(6).standard_normal((20, 32))
        spec = SketchSpec(kind, 16, seed=9)
        phi = {"gaussian": gaussian_sketch, "srht": srht_sketch}[kind](32, spec)
        K32 = K.astype(np.float32)
        out32 = apply_sketch(K32, spec)
        assert out32.dtype == np.float32
        assert np.array_equal(out32, K32 @ phi.astype(np.float32))
        assert np.array_equal(apply_sketch(K, spec), K @ phi)

    def test_determinism_across_calls(self):
        K = np.random.default_rng(5).standard_normal((10, 16))
        spec = SketchSpec("srht", 8, seed=11)
        assert np.array_equal(apply_sketch(K, spec), apply_sketch(K, spec))

    def test_subspace_sanity_band(self):
        # loose desk-scale band on squared-norm distortion, fixed seed block
        K = np.random.default_rng(42).standard_normal((1024, 64))
        sq = (K**2).sum(1)
        for seed in range(50, 100):
            out = apply_sketch(K, SketchSpec("gaussian", 64, seed))
            ratio = (out**2).sum(1) / sq
            assert ratio.min() > 0.3 and ratio.max() < 2.0
