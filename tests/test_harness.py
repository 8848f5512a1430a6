from dataclasses import replace

import numpy as np
import pytest

from kvcompactor import AttnScoreConfig, EvictionPolicy, compress_bundle, evict, exact_leverage
from kvcompactor.errors import ParameterError
from kvcompactor.harness import synth
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


def _whole_matrix_head(profile, l, h):
    """One head's keys, values and queries, each drawn whole in float64 and then cast to float32."""
    n, d, sigma = profile.N, profile.d, profile.noise_sigma
    rng = np.random.Generator(np.random.Philox(evict.child_seed(profile.seed, l, h)))
    if profile.kind == "gaussian_iid":
        keys = rng.standard_normal((n, d))
    elif profile.kind == "low_rank_plus_noise":
        keys = rng.standard_normal((n, profile.rank)) @ rng.standard_normal((profile.rank, d))
        if sigma > 0:
            keys += sigma * rng.standard_normal((n, d))
    elif profile.kind == "clustered":
        centers = 3.0 * rng.standard_normal((4, d))
        keys = centers[rng.integers(0, 4, size=n)] + sigma * rng.standard_normal((n, d))
    else:
        m = profile.needle_count
        ortho, _ = np.linalg.qr(rng.standard_normal((d, d)))
        coeff = rng.standard_normal((n - m, d - m))
        if sigma > 0:
            coeff += sigma * rng.standard_normal((n - m, d - m))
        keys, pos = np.empty((n, d)), planted_needles(profile)
        keys[np.setdiff1d(np.arange(n), pos)] = coeff @ ortho[:, : d - m].T
        keys[pos] = ortho[:, d - m :].T * np.sqrt(d - m)
    return [mat.astype(np.float32) for mat in (keys, rng.standard_normal((n, d)), rng.standard_normal((n, d)))]


# profiles whose rows the block edges are checked on, and the row counts
_BLOCK_CASES = {
    "gaussian": {"kind": "gaussian_iid"},
    "low_rank": {"kind": "low_rank_plus_noise", "rank": 3, "noise_sigma": 0.2},
    "low_rank_no_noise": {"kind": "low_rank_plus_noise", "rank": 24},
    "clustered": {"kind": "clustered", "noise_sigma": 0.3},
    "needle": {"kind": "needle", "needle_count": 1},
    "needle_noise": {"kind": "needle", "needle_count": 2, "noise_sigma": 0.3},
}
_BLOCK_NS = (1, 2, 1023, 1024, 1025, 1026, 2049, 2051)


class TestSynth:
    @pytest.mark.parametrize(
        "name, n",
        [(name, n) for name, fields in _BLOCK_CASES.items() for n in _BLOCK_NS if fields.get("needle_count", 0) < n],
    )
    def test_row_blocks_match_whole_matrix_draws(self, name, n):
        # block edges, one-row tails (n or n - needles = 1025, 2049) and single rows all give the whole-matrix bytes
        fields = _BLOCK_CASES[name]
        profile = SynthProfile(N=n, d=32, seed=3, **fields)
        bundle = synth_bundle(profile, n_layers=1, n_kv_heads=2)
        for h in range(2):
            want = _whole_matrix_head(profile, 0, h)
            got = [bundle.keys[0][h], bundle.values[0][h], bundle.queries[0][h]]
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), f"head {h}"

    @pytest.mark.parametrize("n", [1, 2, 1023, 1024, 1025, 1026, 2048, 2049, 3000])
    def test_blocks_tile_rows_as_one_product_would(self, n):
        # blocks start on multiples of _BLOCK (GEMM tiles line up with a whole product's) and none is a one-row GEMV
        blocks = synth._blocks(n)
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert all(b.start % synth._BLOCK == 0 and 1 < b.stop - b.start <= synth._BLOCK + 1 for b in blocks) or n == 1

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

    @pytest.mark.parametrize(
        "field",
        [
            {"N": 2.5},
            {"d": 4.0},
            {"N": True},
            {"seed": 1.5},
            {"seed": -1},
            {"rank": 1.5},
            {"needle_count": 1.0},
            {"noise_sigma": float("nan")},
            {"noise_sigma": float("inf")},
            {"noise_sigma": True},
        ],
    )
    def test_field_types(self, field):
        for kind in ("gaussian_iid", "clustered"):
            with pytest.raises(ParameterError):
                SynthProfile(**{"kind": kind, "N": 10, "d": 4, **field})

    @pytest.mark.parametrize("counts", [(2.0, 1), (1, 2.0), (1, True), (True, 1), (0, 1), (1, -1), (1, "2")])
    def test_head_counts_are_checked(self, counts):
        with pytest.raises(ParameterError, match="n_layers|n_kv_heads"):
            synth_bundle(SynthProfile("gaussian_iid", N=4, d=2), *counts)

    def test_fields_checked_only_for_their_kind(self):
        # needle_count constrains only needle profiles, rank only low-rank ones
        assert synth_bundle(SynthProfile("gaussian_iid", N=1, d=4)).seq_len == 1
        assert synth_bundle(SynthProfile("clustered", N=4, d=2, rank=3)).head_dim == 2


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
        original = evict._select

        def counted(policy, *args):
            calls.append((policy.kind, policy.attn.snap_keep_window))
            return original(policy, *args)

        monkeypatch.setattr(evict, "_select", counted)
        bench_scaling(EvictionPolicy(kind="snapkv", retention=0.5), [64, 128], repeats=1, warmup=1, d=8)
        assert calls == [("snapkv", True)] * 4

    def test_rejects_unsorted(self):
        with pytest.raises(ParameterError):
            bench_scaling(EvictionPolicy(kind="random", retention=0.5), [512, 256], repeats=1)


@pytest.fixture(scope="module")
def needle_fixture():
    profile = SynthProfile(kind="needle", N=200, d=16, needle_count=1, seed=9)
    return synth_bundle(profile), planted_needles(profile)


class TestSweep:
    @pytest.mark.parametrize("bad", ["0.5", None, True, 0.0, float("nan")])
    def test_bad_rate_is_parameter_error(self, needle_fixture, bad):
        bundle, _ = needle_fixture
        with pytest.raises(ParameterError):
            sweep_policies(bundle, [EvictionPolicy(kind="random", retention=0.5)], [0.5, bad])

    @pytest.mark.parametrize("bad", [1.7, True, "1", np.float64(1.0), None], ids=["float", "bool", "str", "np_float", "none"])
    def test_non_integer_needle_position_is_parameter_error(self, needle_fixture, bad):
        # 1.7 once truncated to position 1, and True counted as position 1
        bundle, _ = needle_fixture
        with pytest.raises(ParameterError, match="^needle position must be an integer, got "):
            sweep_policies(bundle, [EvictionPolicy(kind="random", retention=0.5)], [0.5], needle_indices=[0, bad])

    def test_needle_position_beyond_int64_is_parameter_error(self, needle_fixture):
        # once an OverflowError, which `kvc sweep` does not report as an input error
        bundle, _ = needle_fixture
        with pytest.raises(ParameterError, match=r"^needle positions must lie in \[0, 200\)"):
            sweep_policies(bundle, [EvictionPolicy(kind="random", retention=0.5)], [0.5], needle_indices=[2**70])

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

    def test_each_policy_head_scored_once(self, monkeypatch):
        from kvcompactor.harness import sweep

        calls = []
        original = evict.head_scores

        def counting(*args):
            calls.append(args[-2:])
            return original(*args)

        monkeypatch.setattr(evict, "head_scores", counting)
        monkeypatch.setattr(sweep, "head_scores", counting)
        bundle = synth_bundle(SynthProfile(kind="gaussian_iid", N=64, d=8, seed=4), n_layers=2, n_kv_heads=2)
        policies = [EvictionPolicy(kind="compactor", retention=0.5), EvictionPolicy(kind="random", retention=0.5)]
        rows = sweep_policies(bundle, policies, [0.2, 0.5, 1.0])
        assert len(rows) == 6
        assert sorted(calls) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_rows_match_compress_bundle(self):
        profile = SynthProfile(kind="needle", N=128, d=16, needle_count=2, noise_sigma=0.1, seed=3)
        bundle, needles = synth_bundle(profile, n_layers=2, n_kv_heads=2), set(planted_needles(profile).tolist())
        attn = AttnScoreConfig(chunk_size=32, baseline_window=8)
        policies = [EvictionPolicy(kind=kind, retention=0.5, attn=attn) for kind in evict.POLICY_KINDS]
        policies.append(EvictionPolicy(kind="snapkv", retention=0.5, attn=replace(attn, snap_keep_window=False)))
        r_list = [0.05, 0.3, 0.9]
        rows = sweep_policies(bundle, policies, r_list, needle_indices=sorted(needles))
        heads = [(l, h) for l in range(2) for h in range(2)]
        exact = {lh: exact_leverage(bundle.head(*lh).keys_prerope).scores for lh in heads}
        for row in rows:
            plan = compress_bundle(bundle, replace(policies[row["policy_index"]], retention=row["r"]))
            kept = {(l, h): set(plan.retained[l][h]) for l, h in heads}
            refs = {lh: set(evict.select_topk(exact[lh], row["r"]).tolist()) for lh in heads}
            assert row["retained_per_head"] == len(plan.retained[0][0])
            assert row["needle_retained"] == int(all(needles <= kept[lh] for lh in heads))
            assert row["exact_leverage_overlap"] == float(
                np.mean([len(kept[lh] & refs[lh]) / len(refs[lh]) for lh in heads])
            )
        assert len(rows) == len(policies) * len(r_list)
