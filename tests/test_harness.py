import numpy as np
import pytest

from kvcompactor import EvictionPolicy, evict, exact_leverage
from kvcompactor.errors import ParameterError
from kvcompactor.harness import (
    SynthProfile,
    bench_scaling,
    conditioned_matrix,
    leverage_sample,
    planted_needles,
    sample_size,
    sandwich_margins,
    sweep_policies,
    synth_bundle,
    verify_spectral,
    verify_thm2,
)


class TestSynth:
    def test_deterministic(self):
        p = SynthProfile(kind="low_rank_plus_noise", N=40, d=8, rank=3, noise_sigma=0.1, seed=5)
        a, b = synth_bundle(p), synth_bundle(p)
        assert np.array_equal(a.keys[0][0], b.keys[0][0])
        assert np.array_equal(a.queries[0][0], b.queries[0][0])

    def test_needle_has_unit_leverage(self):
        p = SynthProfile(kind="needle", N=100, d=8, needle_count=1, seed=0)
        bundle = synth_bundle(p)
        pos = planted_needles(p)
        scores = exact_leverage(bundle.head(0, 0).keys_prerope).scores.scores
        assert abs(scores[pos[0]] - 1.0) < 1e-6

    def test_multiple_needles(self):
        p = SynthProfile(kind="needle", N=60, d=16, needle_count=3, noise_sigma=0.2, seed=4)
        bundle = synth_bundle(p)
        pos = planted_needles(p)
        assert pos.shape == (3,)
        scores = exact_leverage(bundle.head(0, 0).keys_prerope).scores.scores
        assert np.abs(scores[pos] - 1.0).max() < 1e-6

    def test_gaussian_full_rank(self):
        bundle = synth_bundle(SynthProfile(kind="gaussian_iid", N=64, d=64, seed=1))
        assert exact_leverage(bundle.head(0, 0).keys_prerope).effective_rank == 64

    def test_low_rank_effective_rank(self):
        bundle = synth_bundle(SynthProfile(kind="low_rank_plus_noise", N=80, d=16, rank=5, seed=2))
        assert exact_leverage(bundle.head(0, 0).keys_prerope).effective_rank == 5

    def test_clustered_shape(self):
        bundle = synth_bundle(SynthProfile(kind="clustered", N=33, d=7, noise_sigma=0.3, seed=3))
        assert bundle.seq_len == 33 and bundle.head_dim == 7

    def test_heads_differ(self):
        bundle = synth_bundle(SynthProfile(kind="gaussian_iid", N=16, d=4, seed=0), n_layers=2, n_kv_heads=2)
        assert not np.array_equal(bundle.keys[0][0], bundle.keys[0][1])
        assert not np.array_equal(bundle.keys[0][0], bundle.keys[1][0])

    def test_prerope_keys_are_the_keys(self):
        bundle = synth_bundle(SynthProfile(kind="gaussian_iid", N=16, d=4, seed=0), n_layers=2, n_kv_heads=2)
        assert bundle.keys_prerope[0][0] is bundle.keys[0][0]
        assert bundle.keys_prerope[1][1] is bundle.keys[1][1]

    def test_validation(self):
        with pytest.raises(ParameterError):
            SynthProfile(kind="needle", N=10, d=4, needle_count=10)
        with pytest.raises(ParameterError):
            SynthProfile(kind="low_rank_plus_noise", N=10, d=4, rank=5)
        with pytest.raises(ParameterError):
            SynthProfile(kind="gaussian_iid", N=10, d=4, noise_sigma=-1.0)


class TestVerifySpectral:
    def test_all_rows_deterministic_case(self):
        # orthogonal K, every row taken once with its exact weight: the
        # sandwich is tight at eps -> 0
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((16, 16)))
        lo, hi = sandwich_margins(q.T @ q, q.T @ q, 1e-12)
        assert lo > -1e-6 and hi > -1e-6

    def test_sampled_gram_unbiased_shape(self):
        rng = np.random.default_rng(1)
        K = rng.standard_normal((300, 8))
        khat = leverage_sample(K, 50, rng)
        assert khat.shape == (50, 8)

    def test_success_counts(self):
        rec = verify_spectral(300, 8, sample_size(8, 0.5, 0.1, 4), trials=10, epsilon=0.5, seed=0)
        assert rec["successes"] == 10
        assert rec["success_rate"] == 1.0

    def test_degenerate_k_fails(self):
        rec = verify_spectral(200, 16, 1, trials=20, epsilon=0.5, seed=0)
        assert rec["success_rate"] < 0.5

    def test_monotone_in_k(self):
        rates = [verify_spectral(400, 8, k, trials=50, epsilon=0.5, seed=1)["success_rate"] for k in (8, 64, 512)]
        assert rates[0] <= rates[1] <= rates[2]

    def test_sample_size_formula(self):
        # ceil(C d log(d/delta) / eps^2)
        assert sample_size(16, 0.5, 0.1, 4) == 1300
        with pytest.raises(ParameterError):
            sample_size(16, 1.5, 0.1, 4)


class TestVerifyThm2:
    def test_kappa_one_square_sketch_exact(self):
        rec = verify_thm2(256, 16, 16, trials=5, kappa=1.0, seed=0)
        assert rec["max_epsilon"] < 1e-4

    def test_identity_matrix_ratios_one(self):
        from kvcompactor import SketchSpec, approx_leverage

        ell = approx_leverage(np.eye(12), SketchSpec("gaussian", 12, 0)).scores.scores
        assert np.abs(ell - 1.0).max() < 1e-9

    def test_conditioned_matrix_kappa(self):
        K = conditioned_matrix(128, 8, 10.0, np.random.default_rng(2))
        s = np.linalg.svd(K, compute_uv=False)
        assert abs(s[0] / s[-1] - 10.0) < 1e-8

    def test_finite_epsilons_reported(self):
        rec = verify_thm2(256, 16, 8, trials=10, kappa=10.0, seed=3)
        assert len(rec["epsilons"]) == 10
        assert np.isfinite(rec["epsilons"]).all()
        assert rec["fraction_within_target"] is None


class TestBench:
    def test_rows_and_slope(self):
        policy = EvictionPolicy(kind="leverage_only", retention=0.5)
        result = bench_scaling(policy, [256, 512], repeats=1, warmup=0, d=16, seed=0)
        assert [row["n"] for row in result["rows"]] == [256, 512]
        assert all(row["median_s"] > 0 for row in result["rows"])
        assert np.isfinite(result["loglog_slope"])

    def test_random_policy(self):
        result = bench_scaling(EvictionPolicy(kind="random", retention=0.3), [64, 128], repeats=1, warmup=0, d=4)
        assert all(row["median_s"] > 0 for row in result["rows"])

    def test_snapkv_times_keep_window_selection(self, monkeypatch):
        # kvc bench must time the same per-head selection that kvc evict runs
        calls = []
        original = evict._topk_with_window

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(evict, "_topk_with_window", counted)
        bench_scaling(EvictionPolicy(kind="snapkv", retention=0.5), [64, 128], repeats=1, warmup=1, d=8)
        assert len(calls) == 4

    def test_rejects_unsorted(self):
        with pytest.raises(ParameterError):
            bench_scaling(EvictionPolicy(kind="random", retention=0.5), [512, 256], repeats=1)


@pytest.fixture(scope="module")
def needle_fixture():
    profile = SynthProfile(kind="needle", N=200, d=16, needle_count=1, seed=9)
    return synth_bundle(profile), planted_needles(profile)


class TestSweep:
    def test_full_retention_rows(self, needle_fixture):
        bundle, needles = needle_fixture
        rows = sweep_policies(
            bundle,
            [EvictionPolicy(kind="compactor", retention=1.0), EvictionPolicy(kind="random", retention=1.0)],
            [1.0],
            needle_indices=needles,
        )
        assert all(row["retained_per_head"] == 200 for row in rows)
        assert all(row["needle_retained"] == 1 for row in rows)
        assert all(row["exact_leverage_overlap"] == 1.0 for row in rows)

    def test_compactor_beats_random_on_needle(self, needle_fixture):
        bundle, needles = needle_fixture
        rows = sweep_policies(
            bundle,
            [EvictionPolicy(kind="compactor", retention=0.1), EvictionPolicy(kind="random", retention=0.1)],
            [0.1],
            needle_indices=needles,
        )
        compactor_row = next(r for r in rows if r["policy"] == "compactor")
        assert compactor_row["needle_retained"] == 1

    def test_duplicate_policy_identical_rows(self, needle_fixture):
        bundle, _ = needle_fixture
        p = EvictionPolicy(kind="leverage_only", retention=0.2)
        rows = sweep_policies(bundle, [p, p], [0.2, 0.6])
        a = [{k: v for k, v in row.items() if k != "policy_index"} for row in rows[:2]]
        b = [{k: v for k, v in row.items() if k != "policy_index"} for row in rows[2:]]
        assert a == b

    def test_exact_leverage_once_per_head(self, monkeypatch):
        from kvcompactor.harness import sweep

        calls = []

        def counting(K, *args, **kwargs):
            calls.append(1)
            return exact_leverage(K, *args, **kwargs)

        monkeypatch.setattr(sweep, "exact_leverage", counting)
        bundle = synth_bundle(SynthProfile(kind="gaussian_iid", N=64, d=8, seed=4), n_layers=2, n_kv_heads=2)
        policies = [EvictionPolicy(kind="compactor", retention=0.5), EvictionPolicy(kind="random", retention=0.5)]
        rows = sweep_policies(bundle, policies, [0.2, 0.5, 1.0])
        assert len(rows) == 6
        assert len(calls) == bundle.n_layers * bundle.n_kv_heads
