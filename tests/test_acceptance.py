"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the scaling criterion dominates the runtime (about a minute).
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from kvcompactor import (
    AttnScoreConfig,
    CalibTriple,
    CalibrationModel,
    EvictionPolicy,
    ScoreVector,
    SketchSpec,
    approx_leverage,
    blend_scores,
    calib_value,
    compress_bundle,
    exact_leverage,
    fit_calibration,
    h2o_scores,
    invert_retention,
    noncausal_scores,
    select_topk,
    snapkv_scores,
)
from kvcompactor.evict import child_seed, random_eviction
from kvcompactor.harness import SynthProfile, bench_scaling, planted_needles, sample_size, synth_bundle, verify_spectral, verify_thm2
from kvcompactor.harness.cli import main as cli_main
from kvcompactor.leverage import BasisMethod


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] {name}: FAIL")
        raise
    print(f"[criterion {num:02d}] {name}: PASS")


def oracle_leverage(K):
    u, s, _ = np.linalg.svd(K, full_matrices=False)
    rank = int((s > 1e-10 * s.max(initial=0.0)).sum())
    return (u[:, :rank] ** 2).sum(axis=1)


def dense_softmax(logits):
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def test_c01_fast_path_matches_full_svd_oracle():
    with criterion(1, "Gram fast path vs full-SVD oracle (50x 1024x64, 1e-5, <5s)"):
        start = time.perf_counter()
        for seed in range(50):
            K = np.random.default_rng(seed).standard_normal((1024, 64))
            got = exact_leverage(K).scores.scores
            assert np.abs(got - oracle_leverage(K)).max() < 1e-5
        assert time.perf_counter() - start < 5.0


def test_c02_leverage_axioms():
    with criterion(2, "leverage axioms on 100 random matrices"):
        rng = np.random.default_rng(123)
        for _ in range(100):
            n = int(rng.integers(8, 200))
            d = int(rng.integers(2, min(n, 32) + 1))
            res = exact_leverage(rng.standard_normal((n, d)))
            scores = res.scores.scores
            assert scores.min() >= 0.0
            assert scores.max() <= 1.0 + 1e-6
            assert abs(scores.sum() - res.effective_rank) < 1e-3


def test_c03_square_gaussian_sketch_invariance():
    with criterion(3, "square Gaussian sketch (k=d=64) matches exact, 20 seeds, 1e-4"):
        for seed in range(20):
            K = np.random.default_rng(500 + seed).standard_normal((512, 64))
            exact = exact_leverage(K).scores.scores
            approx = approx_leverage(K, SketchSpec("gaussian", 64, seed)).scores.scores
            assert np.abs(approx - exact).max() < 1e-4


def test_c04_thm2_empirical_sandwich():
    with criterion(4, "condition-number sandwich (kappa<=2, eps=0.9) in >=95/100 seeds"):
        rec = verify_thm2(1024, 64, 64, trials=100, kappa=2.0, seed=0, target_epsilon=0.9)
        assert rec["fraction_within_target"] >= 0.95


def test_c05_thm1_spectral_sampling():
    with criterion(5, "leverage-sampling spectral sandwich (d=16, eps=0.5, C=4) >=90%, <60s"):
        start = time.perf_counter()
        k = sample_size(16, 0.5, 0.1, 4)
        rec = verify_spectral(2000, 16, k, trials=50, epsilon=0.5, delta=0.1, seed=0)
        assert rec["success_rate"] >= 0.9
        assert time.perf_counter() - start < 60.0


def test_c06_subroutine_and_srht_robustness():
    with criterion(6, "basis subroutines agree; SRHT vs Gaussian Spearman >= 0.9"):
        from kvcompactor import apply_sketch

        for seed in range(20):
            K = np.random.default_rng(900 + seed).standard_normal((512, 64))
            khat = apply_sketch(K, SketchSpec("gaussian", 32, seed))
            none = SketchSpec("none", 32)
            svd = approx_leverage(khat, none, BasisMethod("svd_gram")).scores.scores
            qr = approx_leverage(khat, none, BasisMethod("qr")).scores.scores
            eig = approx_leverage(khat, none, BasisMethod("eig_gram", sigma_clamp=1e-6)).scores.scores
            assert np.abs(svd - qr).max() < 1e-4
            assert np.abs(svd - eig).max() < 1e-3

        K = np.random.default_rng(5).standard_normal((2048, 64))
        gauss = approx_leverage(K, SketchSpec("gaussian", 64, 0)).scores.scores
        srht = approx_leverage(K, SketchSpec("srht", 64, 0)).scores.scores
        rank_of = lambda v: np.argsort(np.argsort(v))
        rho = np.corrcoef(rank_of(gauss), rank_of(srht))[0, 1]
        assert rho >= 0.9


def test_c07_attention_oracles():
    with criterion(7, "attention scores match dense softmax oracles (1e-5), chunk mass (1e-4)"):
        rng = np.random.default_rng(7)
        n, d = 512, 32
        Q, K = rng.standard_normal((n, d)), rng.standard_normal((n, d))
        scale = 1.0 / np.sqrt(d)

        full = dense_softmax(scale * Q @ K.T).sum(axis=0)
        got = noncausal_scores(Q, K, AttnScoreConfig(chunk_size=n)).scores
        assert np.abs(got - full).max() < 1e-5

        chunked_oracle = np.empty(n)
        for s in range(0, n, 64):
            e = s + 64
            chunked_oracle[s:e] = dense_softmax(scale * Q[s:e] @ K[s:e].T).sum(axis=0)
        got64 = noncausal_scores(Q, K, AttnScoreConfig(chunk_size=64)).scores
        assert np.abs(got64 - chunked_oracle).max() < 1e-5
        for s in range(0, n, 64):
            assert abs(got64[s : s + 64].sum() - 64) < 1e-4

        causal = scale * Q @ K.T
        causal[np.triu_indices(n, k=1)] = -np.inf
        assert np.abs(h2o_scores(Q, K).scores - dense_softmax(causal).sum(axis=0)).max() < 1e-5

        w = 32
        snap = scale * Q[n - w :] @ K.T
        for i in range(w):
            snap[i, n - w + i + 1 :] = -np.inf
        got_snap = snapkv_scores(Q, K, AttnScoreConfig(baseline_window=w)).scores
        assert np.abs(got_snap - dense_softmax(snap).sum(axis=0)).max() < 1e-5


def test_c08_blending_and_selection_arithmetic():
    with criterion(8, "z-score affine invariance; top-k matches brute force on small cases"):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(4, 64))
            a = ScoreVector(rng.standard_normal(n))
            o = ScoreVector(rng.standard_normal(n))
            base = select_topk(blend_scores(a, o, 0.3), 0.5)
            scaled = select_topk(
                blend_scores(
                    ScoreVector(3.0 * a.scores + 11.0),
                    ScoreVector(0.5 * o.scores - 4.0),
                    0.3,
                ),
                0.5,
            )
            assert np.array_equal(base, scaled)

        for n in range(1, 9):
            for step in range(1, 21):
                r = step * 0.05
                scores = np.round(rng.standard_normal(n), 1)
                k = max(1, -(-(step * n) // 20))  # exact ceil(r * n) via integers
                expected = sorted(sorted(range(n), key=lambda i: (-scores[i], i))[:k])
                assert select_topk(scores, r).tolist() == expected


def test_c09_needle_retention():
    with criterion(9, "needle retained 100/100 by compactor; ~10% by random baseline"):
        policy = EvictionPolicy(kind="compactor", retention=0.1, lam=0.3)
        for seed in range(100):
            profile = SynthProfile(kind="needle", N=1000, d=64, needle_count=1, seed=seed)
            bundle = synth_bundle(profile)
            pos = int(planted_needles(profile)[0])
            plan = compress_bundle(bundle, policy)
            assert pos in plan.retained[0][0], f"needle lost at fixture seed {seed}"

        pos = int(planted_needles(SynthProfile(kind="needle", N=1000, d=64, needle_count=1, seed=0))[0])
        hits = sum(1 for seed in range(200) if pos in random_eviction(1000, 0.1, child_seed(seed, 0, 0)))
        assert 10 <= hits <= 30  # 10% +- 5% of 200 seeds


def test_c10_calibration():
    with criterion(10, "calibration endpoints, closed-form inversion, parameter recovery"):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            model = CalibrationModel(alpha=float(rng.uniform(-5, 5)), beta=float(rng.uniform(-5, 5)))
            nll = float(rng.uniform(0, 20))
            assert calib_value(1.0, nll, model) == 1.0
            assert calib_value(0.0, nll, model) == 0.0

        model = CalibrationModel(alpha=0.3, beta=0.2)
        for nll in np.linspace(0.0, 12.0, 20):
            for tau in np.linspace(0.05, 1.0, 20):
                closed = invert_retention(float(nll), float(tau), model)
                lo, hi = 0.0, 1.0
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    if calib_value(mid, float(nll), model) >= tau:
                        hi = mid
                    else:
                        lo = mid
                assert abs(closed - hi) < 1e-8

        truth = CalibrationModel(alpha=0.2, beta=1.0)
        clean = [
            CalibTriple(float(r), float(nll), calib_value(float(r), float(nll), truth))
            for r in np.arange(0.1, 0.95, 0.1)
            for nll in (1.0, 2.0, 3.0)
        ]
        fit = fit_calibration(clean, under_penalty=1.0)
        assert abs(fit.alpha - 0.2) < 1e-3 and abs(fit.beta - 1.0) < 1e-3

        noise_rng = np.random.default_rng(0)
        noisy = [CalibTriple(t.r, t.nll_c, t.y + 0.01 * noise_rng.standard_normal()) for t in clean]
        fit_noisy = fit_calibration(noisy, under_penalty=1.0)
        assert abs(fit_noisy.alpha - 0.2) < 0.05 and abs(fit_noisy.beta - 1.0) < 0.05


def test_c12_end_to_end_determinism(tmp_path):
    with criterion(12, "synth -> evict -> apply -> save is bit-reproducible"):
        policy_doc = {
            "kind": "compactor",
            "lambda": 0.3,
            "retention": 0.25,
            "sketch": {"kind": "gaussian", "k": 64, "seed": 0},
            "attn": {
                "chunk_size": 256,
                "pool_window": 7,
                "scale": None,
                "value_norm": True,
                "baseline_window": 32,
                "snap_keep_window": True,
            },
            "seed": 0,
        }
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps(policy_doc))
        artifacts = []
        for tag in ("run1", "run2"):
            bundle = tmp_path / f"{tag}.kvt"
            plan = tmp_path / f"{tag}.plan.json"
            compact = tmp_path / f"{tag}.compact.kvt"
            for argv in (
                ["synth", "--profile", "needle", "--n", "600", "--d", "64", "--seed", "42", "--out", str(bundle)],
                ["evict", "--bundle", str(bundle), "--policy", str(policy), "--out", str(plan)],
                ["apply", "--bundle", str(bundle), "--plan", str(plan), "--out", str(compact)],
            ):
                assert cli_main(argv) == 0
            artifacts.append((bundle.read_bytes(), plan.read_bytes(), compact.read_bytes()))
        assert artifacts[0] == artifacts[1]


@pytest.mark.slow
def test_c11_scaling_shape():
    with criterion(11, "near-linear scoring scaling (slope in [0.8, 1.3]; doubling <= 2.6)"):
        start = time.perf_counter()
        compactor = EvictionPolicy(kind="compactor", retention=0.5)
        ns = [16384, 32768, 65536, 131072, 262144]
        result = bench_scaling(compactor, ns, repeats=3, warmup=1, d=64, seed=0)
        assert 0.8 <= result["loglog_slope"] <= 1.3, result["rows"]

        lev = EvictionPolicy(kind="leverage_only", retention=0.5)
        lev_result = bench_scaling(lev, [65536, 131072, 262144], repeats=3, warmup=1, d=64, seed=0)
        medians = [row["median_s"] for row in lev_result["rows"]]
        for small, big in zip(medians, medians[1:]):
            assert big / small <= 2.6, medians
        assert time.perf_counter() - start < 600.0
