import json
import sys
import threading
import time
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvcompactor import (
    POLICY_KINDS,
    AttnScoreConfig,
    EvictionPolicy,
    KVBundle,
    ScoreVector,
    SketchSpec,
    blend_scores,
    compress_bundle,
    head_scores,
    mean_pool,
    noncausal_scores,
    random_eviction,
    save_bundle,
    select_topk,
    value_norm_scale,
)
from kvcompactor import _pool, attnscore, evict
from kvcompactor.errors import DataError, ParameterError
from kvcompactor.evict import _head_indices
from kvcompactor.harness import SynthProfile, cli, planted_needles, sweep, sweep_policies, synth_bundle
from kvcompactor.kvstore import HeadTensors


def zscore(v):
    return (v - v.mean()) / (v.std() + 1e-8)


def brute_force_topk(scores, k):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return sorted(order[:k])


class TestBlend:
    def test_lambda_zero(self):
        a = ScoreVector([1.0, 5.0, 2.0], "attention")
        o = ScoreVector([9.0, 1.0, 4.0], "outlier")
        got = blend_scores(a, o, 0.0).scores
        assert np.allclose(got, zscore(a.scores))

    def test_constant_attention_vector(self):
        a = ScoreVector([5.0, 5.0, 5.0], "attention")
        o = ScoreVector([1.0, 2.0, 3.0], "outlier")
        got = blend_scores(a, o, 1.0).scores
        assert np.allclose(got, zscore(o.scores), atol=1e-9)

    def test_negation_cancels(self):
        a = ScoreVector([1.0, 2.0, 3.0], "attention")
        o = ScoreVector([3.0, 2.0, 1.0], "outlier")
        assert np.abs(blend_scores(a, o, 1.0).scores).max() < 1e-6

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            blend_scores(ScoreVector([1.0], "attention"), ScoreVector([1.0, 2.0], "outlier"), 1.0)


class TestSelectTopK:
    def test_ceiling_example(self):
        assert select_topk(np.array([3.0, 1.0, 2.0]), 0.34).tolist() == [0, 2]

    def test_tie_break_low_index(self):
        assert select_topk(np.array([1.0, 1.0, 1.0, 1.0]), 0.5).tolist() == [0, 1]

    def test_r_one_keeps_all(self):
        assert select_topk(np.arange(5.0), 1.0).tolist() == [0, 1, 2, 3, 4]

    def test_r_out_of_range(self):
        for r in (0.0, -0.1, 1.5):
            with pytest.raises(ParameterError):
                select_topk(np.ones(3), r)

    @pytest.mark.parametrize("scores", [[1.0, np.nan, 3.0], [np.nan, np.nan], [np.inf, np.nan]], ids=["one", "all", "inf"])
    def test_nan_score_rejected(self, scores):
        # a raw array bypasses ScoreVector's finiteness check; NaN once ranked below every score
        with pytest.raises(DataError, match="^scores contain NaN$"):
            select_topk(np.array(scores), 0.5)

    def test_inf_score_selected_first(self):
        # _select marks snapkv's kept window with +inf
        assert select_topk(np.array([5.0, np.inf, 9.0, 1.0, np.inf]), 0.4).tolist() == [1, 4]

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(0)
        for n in range(1, 9):
            for step in range(1, 21):
                r = step * 0.05
                scores = np.round(rng.standard_normal(n), 1)  # force some ties
                k = max(1, -(-(step * n) // 20))  # ceil(r*n) in exact integer arithmetic
                got = select_topk(scores, r).tolist()
                assert got == brute_force_topk(scores.tolist(), k)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 50), st.integers(0, 2**16))
    def test_monotone_nesting_tie_free(self, n, seed):
        scores = np.random.default_rng(seed).permutation(n).astype(float)  # distinct
        kept = [set(select_topk(scores, r).tolist()) for r in (0.2, 0.5, 0.8, 1.0)]
        for small, big in zip(kept, kept[1:]):
            assert small <= big

    def test_affine_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = ScoreVector(rng.standard_normal(30), "attention")
            o = ScoreVector(rng.standard_normal(30), "outlier")
            base = select_topk(blend_scores(a, o, 0.3), 0.4)
            a2 = ScoreVector(2.5 * a.scores + 7.0, "attention")
            o2 = ScoreVector(0.25 * o.scores - 3.0, "outlier")
            moved = select_topk(blend_scores(a2, o2, 0.3), 0.4)
            assert np.array_equal(base, moved)


class TestRandomEviction:
    def test_deterministic(self):
        assert np.array_equal(random_eviction(100, 0.3, 5), random_eviction(100, 0.3, 5))

    def test_exact_count_unique_in_range(self):
        idx = random_eviction(10_000, 0.3, 7)
        assert idx.shape == (3000,)
        assert np.unique(idx).size == 3000
        assert idx.min() >= 0 and idx.max() < 10_000

    def test_r_one(self):
        assert random_eviction(12, 1.0, 0).tolist() == list(range(12))


@pytest.fixture(scope="module")
def needle_bundle():
    profile = SynthProfile(kind="needle", N=400, d=32, needle_count=1, seed=11)
    return synth_bundle(profile), int(planted_needles(profile)[0])


class TestCompressBundle:
    def test_leverage_only_retains_needle(self, needle_bundle):
        bundle, pos = needle_bundle
        plan = compress_bundle(bundle, EvictionPolicy(kind="leverage_only", retention=0.1))
        assert pos in plan.retained[0][0]
        assert len(plan.retained[0][0]) == 40

    def test_compactor_retains_needle(self, needle_bundle):
        bundle, pos = needle_bundle
        plan = compress_bundle(bundle, EvictionPolicy(kind="compactor", retention=0.1, lam=0.3))
        assert pos in plan.retained[0][0]

    def test_random_full_retention(self, needle_bundle):
        bundle, _ = needle_bundle
        plan = compress_bundle(bundle, EvictionPolicy(kind="random", retention=1.0))
        assert plan.retained[0][0] == tuple(range(400))

    def test_lambda_zero_matches_attention_pipeline(self, needle_bundle):
        bundle, _ = needle_bundle
        policy = EvictionPolicy(kind="compactor", retention=0.25, lam=0.0)
        plan = compress_bundle(bundle, policy)
        ht = bundle.head(0, 0)
        a = mean_pool(noncausal_scores(ht.queries, ht.keys, policy.attn), policy.attn.pool_window)
        a = value_norm_scale(a, ht.values)
        assert plan.retained[0][0] == tuple(select_topk(a, 0.25).tolist())

    def test_determinism(self, needle_bundle):
        bundle, _ = needle_bundle
        policy = EvictionPolicy(kind="compactor", retention=0.3)
        assert compress_bundle(bundle, policy) == compress_bundle(bundle, policy)

    def test_per_layer_retention(self):
        bundle = synth_bundle(SynthProfile(kind="gaussian_iid", N=60, d=8, seed=0), n_layers=2, n_kv_heads=2)
        plan = compress_bundle(bundle, EvictionPolicy(kind="leverage_only", retention=(0.1, 0.5)))
        assert all(len(h) == 6 for h in plan.retained[0])
        assert all(len(h) == 30 for h in plan.retained[1])

    def test_per_layer_list_length_checked(self):
        bundle = synth_bundle(SynthProfile(kind="gaussian_iid", N=20, d=4, seed=0))
        with pytest.raises(ParameterError):
            compress_bundle(bundle, EvictionPolicy(kind="leverage_only", retention=(0.5, 0.5)))

    def test_missing_queries(self):
        profile = SynthProfile(kind="gaussian_iid", N=30, d=4, seed=1)
        full = synth_bundle(profile)
        from kvcompactor import KVBundle

        no_q = KVBundle(keys=full.keys, values=full.values, keys_prerope=full.keys_prerope)
        with pytest.raises(DataError):
            compress_bundle(no_q, EvictionPolicy(kind="snapkv", retention=0.5))
        no_pre = KVBundle(keys=full.keys, values=full.values, queries=full.queries)
        with pytest.raises(DataError):
            compress_bundle(no_pre, EvictionPolicy(kind="compactor", retention=0.5))
        # random never needs either
        bare = KVBundle(keys=full.keys, values=full.values)
        compress_bundle(bare, EvictionPolicy(kind="random", retention=0.5))

    def test_snapkv_window_forced(self):
        bundle = synth_bundle(SynthProfile(kind="gaussian_iid", N=100, d=8, seed=2))
        cfg = AttnScoreConfig(baseline_window=8, snap_keep_window=True)
        plan = compress_bundle(bundle, EvictionPolicy(kind="snapkv", retention=0.2, attn=cfg))
        kept = set(plan.retained[0][0])
        assert set(range(92, 100)) <= kept
        assert len(kept) == 20
        cfg_off = AttnScoreConfig(baseline_window=8, snap_keep_window=False)
        plan_off = compress_bundle(bundle, EvictionPolicy(kind="snapkv", retention=0.2, attn=cfg_off))
        s = head_scores(EvictionPolicy(kind="snapkv", retention=0.2, attn=cfg_off), bundle.head(0, 0))
        assert plan_off.retained[0][0] == tuple(select_topk(s, 0.2).tolist())

    @pytest.mark.parametrize("window", [32, 500])
    def test_snapkv_window_wider_than_budget_keeps_last_k(self, window):
        # k = 10 of 100 tokens: the budget holds only the window's last 10
        bundle = synth_bundle(SynthProfile(kind="gaussian_iid", N=100, d=8, seed=2), n_layers=1, n_kv_heads=2)
        policy = EvictionPolicy(kind="snapkv", retention=0.1, attn=AttnScoreConfig(baseline_window=window))
        plan = compress_bundle(bundle, policy)
        assert plan.retained == ((tuple(range(90, 100)),) * 2,)
        [row] = sweep_policies(bundle, [policy], [0.1], needle_indices=range(90, 100))
        assert (row["retained_per_head"], row["needle_retained"]) == (10, 1)

    def test_head_scores_random_policy_rejected(self):
        ht = HeadTensors(keys=np.zeros((2, 2)), values=np.zeros((2, 2)), keys_prerope=None, queries=None)
        with pytest.raises(ParameterError):
            head_scores(EvictionPolicy(kind="random", retention=0.5), ht)

    def test_snapkv_window_clamped_to_short_context(self):
        # default observation window (32) exceeds this context; the policy
        # pipeline clamps instead of failing
        bundle = synth_bundle(SynthProfile(kind="gaussian_iid", N=12, d=4, seed=5))
        plan = compress_bundle(bundle, EvictionPolicy(kind="snapkv", retention=0.5))
        assert len(plan.retained[0][0]) == 6

    def test_plan_metadata_provenance(self, needle_bundle):
        bundle, _ = needle_bundle
        policy = EvictionPolicy(kind="compactor", retention=0.5, sketch=SketchSpec("gaussian", 64, seed=3))
        plan = compress_bundle(bundle, policy)
        assert plan.metadata["policy"] == policy.to_json_dict()
        assert plan.metadata["effective_sketch_k"] == 32  # capped at head_dim
        assert plan.policy_name == "compactor"

    @pytest.mark.parametrize(
        "kind, k, d, recorded",
        [
            ("none", 64, 16, 16),
            ("none", 8, 16, 16),
            ("gaussian", 64, 12, 12),
            ("gaussian", 8, 16, 8),
            ("srht", 64, 12, 16),
            ("srht", 8, 16, 8),
        ],
    )
    def test_effective_sketch_k_is_the_width_used(self, kind, k, d, recorded):
        bundle = synth_bundle(SynthProfile(kind="gaussian_iid", N=50, d=d, seed=6))
        plan = compress_bundle(bundle, EvictionPolicy(kind="leverage_only", retention=0.3, sketch=SketchSpec(kind, k)))
        assert plan.metadata["effective_sketch_k"] == recorded
        if kind == "none":
            # the unsketched leverage reads every column whatever k says
            exact = compress_bundle(bundle, EvictionPolicy(kind="leverage_only", retention=0.3, sketch=SketchSpec(kind, d)))
            assert plan.retained == exact.retained

    @pytest.mark.parametrize("sketch", [SketchSpec("gaussian", 64, seed=5), SketchSpec("srht", 64, seed=5)])
    def test_float32_plan_equals_float64_plan(self, sketch):
        # bundles score in float32; the same values in float64 must retain the same tokens
        profile = SynthProfile(kind="needle", N=1024, d=64, needle_count=4, noise_sigma=0.1, seed=21)
        bundle = synth_bundle(profile, 2, 2)
        policy = EvictionPolicy(kind="compactor", retention=0.2, sketch=sketch)
        plan = compress_bundle(bundle, policy)
        for l in range(2):
            for h in range(2):
                ht = bundle.head(l, h)
                ht64 = HeadTensors(*(None if m is None else m.astype(np.float64) for m in astuple(ht)))
                assert list(plan.retained[l][h]) == _head_indices(policy, ht64, l, h, 0.2).tolist()
                assert set(planted_needles(profile)) <= set(plan.retained[l][h])


def _blas():
    """(set, get) of the loaded OpenBLAS's thread count, or None."""
    try:
        return _pool._openblas()
    except OSError:
        return None


needs_openblas = pytest.mark.skipif(_blas() is None, reason="thread pinning needs a loaded OpenBLAS")

POOL_ATTN = AttnScoreConfig(chunk_size=32, baseline_window=8)
POOL_POLICIES = [
    *(EvictionPolicy(kind=kind, retention=0.2, sketch=SketchSpec("srht", 8, seed=1), attn=POOL_ATTN) for kind in POLICY_KINDS),
    EvictionPolicy(kind="snapkv", retention=0.2, attn=AttnScoreConfig(chunk_size=32, baseline_window=8, snap_keep_window=False)),
    EvictionPolicy(kind="compactor", retention=(0.1, 0.4), attn=POOL_ATTN),
]


@pytest.fixture(scope="module")
def pool_bundle():
    profile = SynthProfile(kind="needle", N=300, d=16, needle_count=2, noise_sigma=0.1, seed=8)
    return synth_bundle(profile, n_layers=2, n_kv_heads=3)


class TestHeadPool:
    @pytest.mark.parametrize("policy", POOL_POLICIES, ids=[f"{p.kind}-{i}" for i, p in enumerate(POOL_POLICIES)])
    def test_plan_independent_of_worker_count(self, monkeypatch, pool_bundle, policy):
        plans = []
        for cores in (1, 2):
            monkeypatch.setattr(_pool, "_cores", lambda cores=cores: cores)
            plans.append(compress_bundle(pool_bundle, policy))
        assert plans[0] == plans[1]

    @needs_openblas
    def test_tasks_overlap_with_blas_at_one_thread(self, monkeypatch):
        monkeypatch.setattr(_pool, "_cores", lambda: 2)
        _, get_threads = _blas()
        before = get_threads()
        barrier = threading.Barrier(2, timeout=10)

        def task(x):
            barrier.wait()  # breaks unless two tasks run at once
            return x, get_threads()

        assert _pool.map_heads(lambda _, h: task(h), 1, 4)[0] == [(x, 1) for x in range(4)]
        assert get_threads() == before

    @needs_openblas
    def test_overlapping_pools_share_one_pin(self, monkeypatch):
        monkeypatch.setattr(_pool, "_cores", lambda: 2)
        _, get_threads = _blas()
        before, inside, errors = get_threads(), [], []

        def caller():
            try:
                for _ in range(20):
                    assert _pool.map_heads(lambda _, x: (x, inside.append(get_threads()))[0], 1, 3)[0] == [0, 1, 2]
            except BaseException as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller) for _ in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers) and not errors
        # a pool that restored its own saved count would unpin another that is still running
        assert inside == [1] * (4 * 20 * 3)
        assert get_threads() == before

    @needs_openblas
    @pytest.mark.parametrize("caller", ["compress_bundle", "sweep_policies", "kvc score"])
    def test_h2o_heads_overlap_with_blas_at_one_thread(self, monkeypatch, tmp_path, pool_bundle, caller):
        monkeypatch.setattr(_pool, "_cores", lambda: 2)
        _, get_threads = _blas()
        before, seen = get_threads(), []
        barrier = threading.Barrier(2, timeout=10)
        original = evict.head_scores

        def overlapping(policy, *args):
            barrier.wait()  # breaks unless two heads are scored at once
            seen.append((args[-2:], get_threads()))
            return original(policy, *args)

        for module in (evict, sweep, cli):
            monkeypatch.setattr(module, "head_scores", overlapping)
        policy = EvictionPolicy(kind="h2o", retention=0.3)
        if caller == "compress_bundle":
            compress_bundle(pool_bundle, policy)
        elif caller == "sweep_policies":
            sweep_policies(pool_bundle, [policy], [0.3])
        else:
            save_bundle(pool_bundle, tmp_path / "b.kvt")
            (tmp_path / "p.json").write_text(json.dumps(policy.to_json_dict()))
            argv = ["score", "--bundle", tmp_path / "b.kvt", "--policy", tmp_path / "p.json", "--out", tmp_path / "s.csv"]
            assert cli.main([str(a) for a in argv]) == 0
        assert sorted(seen) == [((l, h), 1) for l in range(2) for h in range(3)]
        assert get_threads() == before

    def test_h2o_memory_bounded_by_one_logits_block_per_worker(self, monkeypatch):
        monkeypatch.setattr(_pool, "_cores", lambda: 2)
        # float32 heads at N=8192: each head's causal blocks fill the logits budget
        bundle = synth_bundle(SynthProfile(kind="gaussian_iid", N=8192, d=16, seed=3), n_layers=1, n_kv_heads=2)
        tracemalloc.start()
        try:
            compress_bundle(bundle, EvictionPolicy(kind="h2o", retention=0.25))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * attnscore._LOGITS_BYTES + (4 << 20)

    @needs_openblas
    def test_blas_threads_restored(self, monkeypatch, pool_bundle):
        monkeypatch.setattr(_pool, "_cores", lambda: 2)
        set_threads, get_threads = _blas()
        old = get_threads()
        set_threads(2)  # a count the pool's pin of 1 would visibly leave behind
        try:
            compress_bundle(pool_bundle, EvictionPolicy(kind="compactor", retention=0.5))
            assert get_threads() == 2
            no_queries = KVBundle(keys=pool_bundle.keys, values=pool_bundle.values, keys_prerope=pool_bundle.keys_prerope)
            with pytest.raises(DataError):
                compress_bundle(no_queries, EvictionPolicy(kind="compactor", retention=0.5))
            assert get_threads() == 2
        finally:
            set_threads(old)

    @pytest.mark.parametrize("cores", [1, 2])
    def test_first_head_error_raised(self, monkeypatch, pool_bundle, cores):
        monkeypatch.setattr(_pool, "_cores", lambda: cores)
        original = evict.head_scores

        def naming(policy, *args):
            layer, head = args[-2:]
            if (layer, head) == (0, 0):
                time.sleep(0.05)  # let later heads fail first
            try:
                return original(policy, *args)
            except DataError as exc:
                raise DataError(f"head ({layer}, {head}): {exc}") from exc

        monkeypatch.setattr(evict, "head_scores", naming)
        no_queries = KVBundle(keys=pool_bundle.keys, values=pool_bundle.values, keys_prerope=pool_bundle.keys_prerope)
        with pytest.raises(DataError, match=r"^head \(0, 0\): snapkv policy needs queries$"):
            compress_bundle(no_queries, EvictionPolicy(kind="snapkv", retention=0.5))

    @pytest.mark.parametrize("cores", [1, 2])
    def test_map_heads_returns_layers_of_heads(self, monkeypatch, cores):
        monkeypatch.setattr(_pool, "_cores", lambda: cores)
        assert _pool.map_heads(lambda l, h: (l, h), 2, 3) == [[(l, h) for h in range(3)] for l in range(2)]

    @pytest.mark.parametrize("cores", [1, 2])
    def test_map_heads_reraises_first_failing_head(self, monkeypatch, cores):
        monkeypatch.setattr(_pool, "_cores", lambda: cores)

        def task(l, h):
            if (l, h) == (0, 2):
                time.sleep(0.05)  # let the later head fail first
            if (l, h) in ((0, 2), (1, 0)):
                raise DataError(f"head ({l}, {h})")
            return l, h

        with pytest.raises(DataError, match=r"^head \(0, 2\)$"):
            _pool.map_heads(task, 2, 3)


class TestPolicySerialization:
    def test_round_trip(self):
        policy = EvictionPolicy(
            kind="compactor",
            retention=0.25,
            lam=0.35,
            sketch=SketchSpec("srht", 32, seed=9),
            attn=AttnScoreConfig(chunk_size=128, pool_window=5, scale=1.0, value_norm=False, baseline_window=16),
            seed=4,
        )
        assert EvictionPolicy.from_json_dict(policy.to_json_dict()) == policy

    def test_per_layer_retention_round_trip(self):
        policy = EvictionPolicy(kind="h2o", retention=(0.1, 0.9))
        assert EvictionPolicy.from_json_dict(policy.to_json_dict()) == policy

    def test_validation(self):
        with pytest.raises(ParameterError):
            EvictionPolicy(kind="mystery", retention=0.5)
        with pytest.raises(ParameterError):
            EvictionPolicy(kind="compactor", retention=0.0)
        with pytest.raises(ParameterError):
            EvictionPolicy(kind="compactor", retention=0.5, lam=-0.1)

    @pytest.mark.parametrize(
        "name, value",
        [("sketch", {"kind": "gaussian", "k": 4, "seed": 0}), ("attn", None)],
        ids=["dict_sketch", "none_attn"],
    )
    def test_nested_config_types_checked(self, name, value):
        # each was once accepted, and compress_bundle then failed with an AttributeError
        with pytest.raises(ParameterError, match=f"^{name} must be"):
            EvictionPolicy(kind="compactor", retention=0.5, **{name: value})

    def test_omitted_attn_keys_take_their_defaults(self):
        doc = EvictionPolicy(kind="compactor", retention=0.5).to_json_dict()
        assert EvictionPolicy.from_json_dict({**doc, "attn": {"chunk_size": 32}}).attn == AttnScoreConfig(chunk_size=32)

    def test_empty_per_layer_retention_rejected(self):
        with pytest.raises(ParameterError, match="empty"):
            EvictionPolicy(kind="compactor", retention=())
        doc = EvictionPolicy(kind="compactor", retention=0.5).to_json_dict()
        with pytest.raises(ParameterError, match="empty"):
            EvictionPolicy.from_json_dict({**doc, "retention": []})
