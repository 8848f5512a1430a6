import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvcompactor import (
    AttnScoreConfig,
    EvictionPolicy,
    KVBundle,
    ScoreVector,
    SketchSpec,
    compress_bundle,
    h2o_scores,
    head_scores,
    mean_pool,
    noncausal_scores,
    snapkv_scores,
    value_norm_scale,
)
from kvcompactor import attnscore
from kvcompactor.errors import DataError, ParameterError
from kvcompactor.kvstore import HeadTensors


def dense_softmax(logits):
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def oracle_noncausal(Q, K, scale, chunk):
    n = Q.shape[0]
    out = np.empty(n)
    for s in range(0, n, chunk):
        e = min(s + chunk, n)
        out[s:e] = dense_softmax(scale * Q[s:e] @ K[s:e].T).sum(axis=0)
    return out


def oracle_causal(Q, K, scale, window=None):
    n = Q.shape[0]
    w = n if window is None else window
    logits = scale * Q[n - w :] @ K.T
    for i in range(w):
        logits[i, n - w + i + 1 :] = -np.inf
    return dense_softmax(logits).sum(axis=0)


def pair(rng, n, d):
    return rng.standard_normal((n, d)), rng.standard_normal((n, d))


def chunk_by_chunk(Q, K, cfg):
    """noncausal_scores as one GEMM and one set of reductions per chunk: the reference for the batched chunks."""
    Q, K = attnscore._check_pair(Q, K)
    n = Q.shape[0]
    scale = attnscore._scale(cfg, Q.shape[1])
    out = np.zeros(n)
    for s in range(0, n, cfg.chunk_size):
        e = min(s + cfg.chunk_size, n)
        logits = Q[s:e] @ K[s:e].T
        logits *= scale
        logits -= logits.max(axis=1, keepdims=True)
        np.exp(logits, out=logits)
        logits /= logits.sum(axis=1, keepdims=True, dtype=np.float64).astype(logits.dtype)
        out[s:e] += logits.sum(axis=0, dtype=np.float64)
    return out


class TestNonCausal:
    def test_uniform_two_tokens(self):
        s = noncausal_scores(np.zeros((2, 1)), np.zeros((2, 1)), AttnScoreConfig(chunk_size=2, scale=1.0))
        assert np.allclose(s.scores, [1.0, 1.0])

    def test_chunk_mass_equals_chunk_length(self):
        Q, K = pair(np.random.default_rng(0), 100, 8)
        s = noncausal_scores(Q, K, AttnScoreConfig(chunk_size=32)).scores
        for start in (0, 32, 64, 96):
            end = min(start + 32, 100)
            assert abs(s[start:end].sum() - (end - start)) < 1e-4

    def test_full_chunk_matches_oracle(self):
        Q, K = pair(np.random.default_rng(0), 4, 2)
        cfg = AttnScoreConfig(chunk_size=4)
        got = noncausal_scores(Q, K, cfg).scores
        assert np.abs(got - oracle_noncausal(Q, K, 1 / np.sqrt(2), 4)).max() < 1e-6

    def test_chunking_changes_result(self):
        Q, K = pair(np.random.default_rng(0), 4, 2)
        a = noncausal_scores(Q, K, AttnScoreConfig(chunk_size=2)).scores
        b = noncausal_scores(Q, K, AttnScoreConfig(chunk_size=4)).scores
        assert not np.allclose(a, b)

    @pytest.mark.parametrize("chunk", [7, 64, 512])
    def test_oracle_agreement(self, chunk):
        Q, K = pair(np.random.default_rng(1), 300, 16)
        got = noncausal_scores(Q, K, AttnScoreConfig(chunk_size=chunk)).scores
        assert np.abs(got - oracle_noncausal(Q, K, 0.25, chunk)).max() < 1e-5

    def test_chunk_locality(self):
        rng = np.random.default_rng(2)
        Q, K = pair(rng, 96, 4)
        cfg = AttnScoreConfig(chunk_size=32)
        base = noncausal_scores(Q, K, cfg).scores
        Q2 = Q.copy()
        Q2[32:64] = rng.standard_normal((32, 4))
        bumped = noncausal_scores(Q2, K, cfg).scores
        assert np.array_equal(base[:32], bumped[:32])
        assert np.array_equal(base[64:], bumped[64:])
        assert not np.allclose(base[32:64], bumped[32:64])

    @pytest.mark.parametrize("split", [False, True], ids=["default_batch", "batch_of_2.5_chunks"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("chunk", [1, 3, 255, 256, 776, 777, 778])
    def test_batched_chunks_match_chunk_by_chunk(self, monkeypatch, chunk, dtype, split):
        # N = 777 makes an odd number of full chunks (777, 259, 3, 3, 1, 1 and 0), and a short last chunk for 255, 256 and 776
        Q, K = (x.astype(dtype) for x in pair(np.random.default_rng(17), 777, 16))
        if split:  # two full chunks per batch, so every split ends on a batch of one
            monkeypatch.setattr(attnscore, "_CHUNK_BATCH_BYTES", int(2.5 * chunk * chunk * np.dtype(dtype).itemsize))
        cfg = AttnScoreConfig(chunk_size=chunk)
        assert np.array_equal(noncausal_scores(Q, K, cfg).scores, chunk_by_chunk(Q, K, cfg))
        # Q as its own keys: numpy computes Q Q^T with a symmetric rank-k update instead of a general GEMM
        assert np.array_equal(noncausal_scores(Q, Q, cfg).scores, chunk_by_chunk(Q, Q, cfg))

    def test_shape_mismatch(self):
        with pytest.raises(ParameterError):
            noncausal_scores(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_explicit_scale(self):
        Q, K = pair(np.random.default_rng(3), 8, 4)
        default = noncausal_scores(Q, K, AttnScoreConfig(chunk_size=8)).scores
        explicit = noncausal_scores(Q, K, AttnScoreConfig(chunk_size=8, scale=0.5)).scores
        assert np.allclose(default, explicit)
        unscaled = noncausal_scores(Q, K, AttnScoreConfig(chunk_size=8, scale=1.0)).scores
        assert not np.allclose(default, unscaled)


class TestH2O:
    def test_single_token(self):
        s = h2o_scores(np.ones((1, 2)), np.ones((1, 2)))
        assert np.allclose(s.scores, [1.0])

    def test_uniform_inputs_harmonic_head(self):
        n = 6
        s = h2o_scores(np.zeros((n, 3)), np.zeros((n, 3))).scores
        assert abs(s[0] - sum(1 / (i + 1) for i in range(n))) < 1e-12
        assert abs(s[-1] - 1 / n) < 1e-12

    def test_small_oracle(self):
        Q = K = np.array([[1.0], [2.0], [3.0]])
        got = h2o_scores(Q, K, AttnScoreConfig(scale=1.0)).scores
        assert np.abs(got - oracle_causal(Q, K, 1.0)).max() < 1e-6

    def test_blocked_rows_match_oracle(self, monkeypatch):
        Q, K = pair(np.random.default_rng(4), 50, 4)
        oracle = oracle_causal(Q, K, 0.5)
        got = h2o_scores(Q, K, AttnScoreConfig(scale=0.5)).scores
        assert np.abs(got - oracle).max() < 1e-10
        # row blocks of 1 row, of 16 rows with a ragged last block of 2, and one block of all 50
        for budget in (8, 16 * 8 * 50, 50 * 8 * 50):
            monkeypatch.setattr(attnscore, "_LOGITS_BYTES", budget)
            blocked = h2o_scores(Q, K, AttnScoreConfig(scale=0.5)).scores
            assert np.abs(blocked - oracle).max() < 1e-10

    def test_memory_bounded_by_logits_budget(self, peak_bytes):
        Q, K = pair(np.random.default_rng(8), 8192, 16)
        assert peak_bytes(h2o_scores, Q, K) < attnscore._LOGITS_BYTES + (4 << 20)


class TestSnapKV:
    def test_window_equals_n_matches_h2o(self):
        Q, K = pair(np.random.default_rng(5), 40, 8)
        a = snapkv_scores(Q, K, AttnScoreConfig(baseline_window=40)).scores
        b = h2o_scores(Q, K).scores
        assert np.array_equal(a, b)

    def test_window_one_is_last_row(self):
        Q, K = pair(np.random.default_rng(6), 10, 4)
        got = snapkv_scores(Q, K, AttnScoreConfig(baseline_window=1, scale=1.0)).scores
        logits = Q[-1:] @ K.T
        assert np.abs(got - dense_softmax(logits)[0]).max() < 1e-12

    def test_oracle(self):
        Q, K = pair(np.random.default_rng(0), 4, 2)
        got = snapkv_scores(Q, K, AttnScoreConfig(baseline_window=2)).scores
        assert np.abs(got - oracle_causal(Q, K, 1 / np.sqrt(2), window=2)).max() < 1e-6

    @pytest.mark.parametrize("window", [7, 16, 20, 33, 50])
    def test_blocked_rows_match_oracle(self, monkeypatch, window):
        # 16-row blocks start at N - window, so windows of 20, 33 and 50 straddle blocks
        monkeypatch.setattr(attnscore, "_LOGITS_BYTES", 16 * 8 * 50)
        Q, K = pair(np.random.default_rng(9), 50, 4)
        got = snapkv_scores(Q, K, AttnScoreConfig(baseline_window=window, scale=0.5)).scores
        assert np.abs(got - oracle_causal(Q, K, 0.5, window=window)).max() < 1e-10

    def test_window_too_large(self):
        with pytest.raises(ParameterError):
            snapkv_scores(np.zeros((3, 2)), np.zeros((3, 2)), AttnScoreConfig(baseline_window=4))


def as_f32(*xs):
    """float32 copies, and the float64 arrays holding exactly the same values."""
    f32 = [x.astype(np.float32) for x in xs]
    return f32, [x.astype(np.float64) for x in f32]


class TestFloat32:
    """Float32 pairs are scored in float32 with float64 sums; every other pair in float64."""

    def test_noncausal_matches_float64_path(self):
        (Q, K), (Q64, K64) = as_f32(*pair(np.random.default_rng(10), 1000, 128))
        cfg = AttnScoreConfig(chunk_size=96)  # ragged last chunk of 40
        got = noncausal_scores(Q, K, cfg).scores
        assert np.abs(got - noncausal_scores(Q64, K64, cfg).scores).max() < 1e-5

    @pytest.mark.parametrize(
        "fn, cfg", [(h2o_scores, AttnScoreConfig()), (snapkv_scores, AttnScoreConfig(baseline_window=150))]
    )
    def test_causal_matches_float64_path(self, monkeypatch, fn, cfg):
        (Q, K), (Q64, K64) = as_f32(*pair(np.random.default_rng(11), 600, 128))
        want = fn(Q64, K64, cfg).scores
        # float32 blocks of 64 rows: h2o ends on a ragged block of 24, and
        # the snapkv window (rows 450..599) straddles three blocks
        monkeypatch.setattr(attnscore, "_LOGITS_BYTES", 64 * 4 * 600)
        assert np.abs(fn(Q, K, cfg).scores - want).max() < 1e-5

    def test_dtype_rule(self):
        Q, K = pair(np.random.default_rng(13), 40, 8)
        Q32, K32 = Q.astype(np.float32), K.astype(np.float32)
        q, k = attnscore._check_pair(Q32, K32)
        assert q.dtype == k.dtype == np.float32
        assert np.shares_memory(q, Q32) and np.shares_memory(k, K32)
        q, k = attnscore._check_pair(Q, K)
        assert q is Q and k is K
        q, k = attnscore._check_pair(Q32, K)
        assert q.dtype == k.dtype == np.float64
        # a mixed pair is the float64 pair of its values, bit for bit
        cfg = AttnScoreConfig(chunk_size=16, baseline_window=20)
        Q64 = Q32.astype(np.float64)
        for fn in (noncausal_scores, h2o_scores, snapkv_scores):
            assert np.array_equal(fn(Q32, K, cfg).scores, fn(Q64, K, cfg).scores)
            assert np.array_equal(fn(K, Q32, cfg).scores, fn(K, Q64, cfg).scores)

    @pytest.mark.parametrize(
        "fn, cfg",
        [
            (h2o_scores, AttnScoreConfig()),
            (snapkv_scores, AttnScoreConfig(baseline_window=2048)),
            (noncausal_scores, AttnScoreConfig()),
        ],
    )
    def test_causal_memory_bounded_by_logits_budget(self, peak_bytes, fn, cfg):
        # a float64 copy of a full float32 block would take twice the budget, more than the bound leaves;
        # the non-causal batch has its own budget
        budget = attnscore._CHUNK_BATCH_BYTES if fn is noncausal_scores else attnscore._LOGITS_BYTES
        Q, K = (x.astype(np.float32) for x in pair(np.random.default_rng(14), 8192, 16))
        assert peak_bytes(fn, Q, K, cfg) < budget + (4 << 20)

    def test_noncausal_copies_neither_input(self, peak_bytes):
        Q, K = (x.astype(np.float32) for x in pair(np.random.default_rng(15), 8192, 128))
        assert peak_bytes(noncausal_scores, Q, K) < Q.nbytes


class TestMemoryBudget:
    """Each kernel stays within the budget of attnscore's module docstring when N leaves a short last block."""

    def test_noncausal_short_last_chunk_shares_the_buffer(self, peak_bytes):
        # three full float32 chunks of 4 MiB, one per batch, then a short last chunk of 1023 rows in the same buffer
        Q, K = (x.astype(np.float32) for x in pair(np.random.default_rng(18), 4095, 16))
        assert peak_bytes(noncausal_scores, Q, K, AttnScoreConfig(chunk_size=1024)) < (4 << 20) + (1 << 20)

    @pytest.mark.parametrize(
        "fn, cfg", [(h2o_scores, AttnScoreConfig()), (snapkv_scores, AttnScoreConfig(baseline_window=1024))]
    )
    def test_causal_block_and_its_mask(self, peak_bytes, fn, cfg):
        # one float32 block of the whole budget (1024 rows x 1024 keys) and a boolean mask of a quarter of it
        Q, K = (x.astype(np.float32) for x in pair(np.random.default_rng(19), 1024, 16))
        assert peak_bytes(fn, Q, K, cfg) < attnscore._LOGITS_BYTES * 5 / 4 + (1 << 19)

    def test_compactor_head_holds_the_larger_term(self, peak_bytes):
        n, d, k = 4095, 64, 32
        rng = np.random.default_rng(20)
        ht = HeadTensors(*(rng.standard_normal((n, d)).astype(np.float32) for _ in range(4)))
        policy = EvictionPolicy("compactor", 0.5, sketch=SketchSpec("gaussian", k), attn=AttnScoreConfig(chunk_size=1024))
        leverage, attention = 16 * n * k, max(attnscore._CHUNK_BATCH_BYTES, 1024 * 1024 * 4)
        assert peak_bytes(head_scores, policy, ht) < max(leverage, attention) + (1 << 20)


class TestOverflowingLogits:
    """Finite float32 inputs whose logits overflow are one DataError, from ScoreVector, and no RuntimeWarning."""

    # 520 rows: two full chunks of 256 and a short last chunk of 8
    X = (1e20 * np.random.default_rng(16).standard_normal((520, 16))).astype(np.float32)

    @staticmethod
    def raises_data_error(fn, *args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow or invalid-value warning would be raised in its place
            with pytest.raises(DataError, match="^scores contain non-finite values$"):
                fn(*args)

    @pytest.mark.parametrize("fn", [noncausal_scores, h2o_scores, snapkv_scores])
    def test_kernels(self, fn):
        self.raises_data_error(fn, self.X, self.X)

    @pytest.mark.parametrize("kind", ["compactor", "h2o", "snapkv"])
    def test_compress_bundle(self, kind):
        x = np.broadcast_to(self.X, (1, 2, *self.X.shape))  # two heads, so pool workers score them
        bundle = KVBundle(keys=x, values=np.ones_like(x), keys_prerope=x, queries=x)
        self.raises_data_error(compress_bundle, bundle, EvictionPolicy(kind=kind, retention=0.5))


class TestMeanPool:
    def test_window_one_identity(self):
        s = ScoreVector([1.0, 2.0, 3.0])
        assert mean_pool(s, 1) is s

    def test_edge_truncation(self):
        got = mean_pool(ScoreVector([0.0, 3.0, 0.0]), 3).scores
        assert np.allclose(got, [1.5, 1.0, 1.5])
        got = mean_pool(ScoreVector([1.0, 2.0, 3.0, 4.0, 5.0]), 3).scores
        assert np.allclose(got, [1.5, 2.0, 3.0, 4.0, 4.5])

    def test_even_window_rejected(self):
        with pytest.raises(ParameterError):
            mean_pool(ScoreVector([1.0, 2.0]), 2)

    @pytest.mark.parametrize("window", [9, 2**64 + 1, 2**1100 + 1], ids=["2n+1", "2**64+1", "2**1100+1"])
    def test_window_past_the_vector_averages_it(self, window):
        # a window this wide once overflowed int64 in the index arithmetic
        got = mean_pool(ScoreVector([1.0, 2.0, 6.0, 3.0]), window).scores
        assert np.array_equal(got, np.full(4, 3.0))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 5), st.integers(0, 2**16))
    def test_length_preserved(self, n, half, seed):
        v = ScoreVector(np.random.default_rng(seed).standard_normal(n))
        assert len(mean_pool(v, 2 * half + 1)) == n


class TestValueNorm:
    def test_unit_rows_identity(self):
        v = np.eye(3)
        s = ScoreVector([0.5, 1.5, 2.5])
        assert np.allclose(value_norm_scale(s, v).scores, s.scores)

    def test_small_example(self):
        got = value_norm_scale(ScoreVector([1.0, 1.0]), np.array([[3.0, 4.0], [0.0, 0.0]]))
        assert np.allclose(got.scores, [5.0, 0.0])

    def test_float32_values_match_float64_values(self):
        v = np.random.default_rng(16).standard_normal((50, 128)).astype(np.float32)
        s = ScoreVector(np.ones(50))
        got = value_norm_scale(s, v).scores
        assert np.array_equal(got, value_norm_scale(s, v.astype(np.float64)).scores)

    def test_norm_oracle(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal((20, 6))
        s = ScoreVector(rng.random(20))
        got = value_norm_scale(s, v).scores
        assert np.abs(got - s.scores * np.linalg.norm(v, axis=1)).max() < 1e-6

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            value_norm_scale(ScoreVector([1.0]), np.zeros((2, 2)))


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 64), st.integers(1, 8), st.integers(1, 70), st.integers(0, 2**16))
def test_scores_nonnegative_and_mass_conserved(n, d, chunk, seed):
    rng = np.random.default_rng(seed)
    Q, K = rng.standard_normal((n, d)), rng.standard_normal((n, d))
    s = noncausal_scores(Q, K, AttnScoreConfig(chunk_size=chunk)).scores
    assert (s >= 0).all()
    assert abs(s.sum() - n) < 1e-4


@st.composite
def chunked_shapes(draw):
    """(N, d, chunk_size): whole chunks plus a tail, often of 0 or 1 rows; with no whole chunk the chunk is longer than N."""
    c = draw(st.integers(1, 48))
    tail = min(draw(st.sampled_from([0, 1]) | st.integers(0, 47)), c - 1)
    return max(1, draw(st.integers(0, 4)) * c + tail), draw(st.integers(1, 16)), c


@settings(max_examples=150, deadline=None)
@given(
    chunked_shapes(),
    st.sampled_from([np.float32, np.float64]),
    st.none() | st.integers(1, 3),
    st.integers(-8, 6),
    st.integers(0, 2**16),
)
def test_noncausal_matches_chunk_by_chunk_on_drawn_inputs(shape, dtype, per, exp, seed):
    n, d, c = shape
    Q, K = (np.ldexp(x, exp).astype(dtype) for x in pair(np.random.default_rng(seed), n, d))
    cfg = AttnScoreConfig(chunk_size=c)
    with pytest.MonkeyPatch.context() as mp:
        if per is not None:  # `per` whole chunks per batch, so the chunks split over batches
            mp.setattr(attnscore, "_CHUNK_BATCH_BYTES", per * c * c * np.dtype(dtype).itemsize)
        got = noncausal_scores(Q, K, cfg).scores
    assert np.array_equal(got, chunk_by_chunk(Q, K, cfg))
    if dtype is np.float64:
        assert np.abs(got - oracle_noncausal(Q, K, 1 / np.sqrt(d), c)).max() < 1e-5


@st.composite
def causal_shapes(draw):
    """(N, d, baseline_window, query rows per block)."""
    n = draw(st.integers(1, 60))
    return n, draw(st.integers(1, 12)), draw(st.integers(1, n)), draw(st.integers(1, 8))


@settings(max_examples=100, deadline=None)
@given(causal_shapes(), st.integers(-8, 6), st.integers(0, 2**16))
def test_causal_blocks_match_oracle_on_drawn_inputs(shape, exp, seed):
    n, d, window, rows = shape
    Q, K = (np.ldexp(x, exp) for x in pair(np.random.default_rng(seed), n, d))
    scale = 1 / np.sqrt(d)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(attnscore, "_LOGITS_BYTES", rows * Q.itemsize * n)  # blocks of `rows` query rows
        h2o = h2o_scores(Q, K).scores
        snap = snapkv_scores(Q, K, AttnScoreConfig(baseline_window=window)).scores
    assert np.abs(h2o - oracle_causal(Q, K, scale)).max() < 1e-10
    assert np.abs(snap - oracle_causal(Q, K, scale, window=window)).max() < 1e-10
