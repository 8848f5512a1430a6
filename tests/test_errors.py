"""Every scalar argument is checked against its documented interval, and every matrix argument for its shape."""

import math
import warnings

import numpy as np
import pytest

from kvcompactor import AttnScoreConfig, BasisMethod, CalibTriple, CalibrationModel, EvictionPolicy, RetentionPlan
from kvcompactor import ScoreVector, SketchSpec, apply_sketch, approx_leverage, blend_scores, calib_value
from kvcompactor import exact_leverage, fit_calibration, gaussian_sketch, h2o_scores, invert_retention, mean_pool
from kvcompactor import noncausal_scores, random_eviction, retained_count, snapkv_scores, value_norm_scale
from kvcompactor.errors import ConvergenceError, DataError, ParameterError, _check_field
from kvcompactor.harness import SynthProfile, bench_scaling, conditioned_matrix, sample_size, synth_bundle
from kvcompactor.harness import verify_spectral, verify_thm2

_MODEL = CalibrationModel(alpha=0.2, beta=1.0)
_SCORES = ScoreVector(np.arange(1.0, 6.0))
_POLICY = EvictionPolicy(kind="compactor", retention=0.5, sketch=SketchSpec(kind="gaussian", target_dim=2))
_TRIPLES = [CalibTriple(r, nll, calib_value(r, nll, _MODEL)) for r in (0.3, 0.5, 0.7) for nll in (1.0, 2.0)]


def _fit_iterations(max_iter):
    """fit_calibration of _TRIPLES in max_iter iterations; running out of them is a result here, not a domain error."""
    try:
        return fit_calibration(_TRIPLES, max_iter=max_iter)
    except ConvergenceError as exc:
        return exc.model


# (argument's name in the message, kind, interval, error, call with the argument set to v)
SCALARS = {
    "retained_count.r": ("retention rate", "real", "(0, 1]", ParameterError, lambda v: retained_count(v, 10)),
    "policy.retention": ("retention rate", "real", "(0, 1]", ParameterError, lambda v: EvictionPolicy("h2o", v)),
    "policy.layer_retention": (
        "retention rate", "real", "(0, 1]", ParameterError, lambda v: EvictionPolicy("h2o", [0.5, v])
    ),
    "plan.retention_target": (
        "retention rate", "real", "(0, 1]", DataError, lambda v: RetentionPlan((((0,),),), v, "x")
    ),
    "policy.lambda": ("lambda", "real", "[0, inf)", ParameterError, lambda v: EvictionPolicy("h2o", 0.5, lam=v)),
    "policy.seed": ("policy seed", "int", "[0, inf)", ParameterError, lambda v: EvictionPolicy("h2o", 0.5, seed=v)),
    "triple.r": ("r", "real", "(0, 1]", DataError, lambda v: CalibTriple(v, 1.0, 0.5)),
    "triple.nll_c": ("nll_c", "real", "[0, inf)", DataError, lambda v: CalibTriple(0.5, v, 0.5)),
    "triple.y": ("y", "real", "(0, inf)", DataError, lambda v: CalibTriple(0.5, 1.0, v)),
    "model.alpha": ("alpha", "real", None, ParameterError, lambda v: CalibrationModel(v, 1.0)),
    "model.k_min": ("k_min", "real", "(0, inf)", ParameterError, lambda v: CalibrationModel(0.2, 1.0, k_min=v)),
    "model.fit_rmse": (
        "fit_rmse", "real", "[0, inf)", ParameterError, lambda v: CalibrationModel(0.2, 1.0, fit_rmse=v)
    ),
    "model.n_points": ("n_points", "int", "[0, inf)", ParameterError, lambda v: CalibrationModel(0.2, 1.0, n_points=v)),
    "calib_value.r": ("r", "real", "[0, 1]", ParameterError, lambda v: calib_value(v, 1.0, _MODEL)),
    "calib_value.nll_c": ("nll_c", "real", "[0, inf)", ParameterError, lambda v: calib_value(0.5, v, _MODEL)),
    "invert_retention.tau": ("tau", "real", "(0, 1]", ParameterError, lambda v: invert_retention(1.0, v, _MODEL)),
    "fit.under_penalty": (
        "under_penalty", "real", "[1.0, inf)", ParameterError, lambda v: fit_calibration(_TRIPLES, under_penalty=v)
    ),
    "fit.max_iter": ("max_iter", "int", "[1, inf)", ParameterError, _fit_iterations),
    "basis.sigma_clamp": ("sigma_clamp", "real", "[1e-7, 1)", ParameterError, lambda v: BasisMethod(sigma_clamp=v)),
    "sketch.target_dim": ("target_dim", "int", "[1, inf)", ParameterError, lambda v: SketchSpec("srht", v)),
    "sketch.seed": ("sketch seed", "int", "[0, inf)", ParameterError, lambda v: SketchSpec("srht", 4, seed=v)),
    "gaussian_sketch.d": (
        "d", "int", "[1, inf)", ParameterError, lambda v: gaussian_sketch(v, SketchSpec("gaussian", 1))
    ),
    "attn.chunk_size": ("chunk_size", "int", "[1, inf)", ParameterError, lambda v: AttnScoreConfig(chunk_size=v)),
    "attn.pool_window": ("pool_window", "int", "[1, inf)", ParameterError, lambda v: AttnScoreConfig(pool_window=v)),
    "attn.scale": ("scale", "real", None, ParameterError, lambda v: AttnScoreConfig(scale=v)),
    "attn.baseline_window": (
        "baseline_window", "int", "[1, inf)", ParameterError, lambda v: AttnScoreConfig(baseline_window=v)
    ),
    "mean_pool.window": ("window", "int", "[1, inf)", ParameterError, lambda v: mean_pool(_SCORES, v)),
    "blend.lambda": ("lambda", "real", None, ParameterError, lambda v: blend_scores(_SCORES, _SCORES, v)),
    "random_eviction.n": ("n", "int", "[1, inf)", ParameterError, lambda v: random_eviction(v, 0.5, 0)),
    "random_eviction.seed": ("seed", "int", "[0, inf)", ParameterError, lambda v: random_eviction(6, 0.5, v)),
    "sample_size.d": ("d", "int", "[1, inf)", ParameterError, lambda v: sample_size(v, 0.5, 0.1, 1.0)),
    "sample_size.epsilon": ("epsilon", "real", "(0, 1)", ParameterError, lambda v: sample_size(4, v, 0.1, 1.0)),
    "sample_size.delta": ("delta", "real", "(0, 1)", ParameterError, lambda v: sample_size(4, 0.5, v, 1.0)),
    "sample_size.c": ("c", "real", "(0, inf)", ParameterError, lambda v: sample_size(4, 0.5, 0.1, v)),
    "spectral.epsilon": ("epsilon", "real", "(0, 1)", ParameterError, lambda v: verify_spectral(8, 2, 4, 1, v)),
    "spectral.delta": ("delta", "real", "(0, 1)", ParameterError, lambda v: verify_spectral(8, 2, 4, 1, 0.5, v)),
    "spectral.k": ("k", "int", "[1, inf)", ParameterError, lambda v: verify_spectral(8, 2, v, 1, 0.5)),
    "spectral.seed": ("seed", "int", "[0, inf)", ParameterError, lambda v: verify_spectral(8, 2, 4, 1, 0.5, seed=v)),
    "conditioned.kappa": (
        "kappa", "real", "[1, inf)", ParameterError, lambda v: conditioned_matrix(4, 2, v, np.random.default_rng(0))
    ),
    "conditioned.N": (
        "N", "int", "[2, inf)", ParameterError, lambda v: conditioned_matrix(v, 2, 2.0, np.random.default_rng(0))
    ),
    "thm2.k": ("k", "int", "[1, inf)", ParameterError, lambda v: verify_thm2(8, 2, v, 1, 2.0)),
    "thm2.trials": ("trials", "int", "[1, inf)", ParameterError, lambda v: verify_thm2(8, 2, 2, v, 2.0)),
    "thm2.seed": ("seed", "int", "[0, inf)", ParameterError, lambda v: verify_thm2(8, 2, 2, 1, 2.0, seed=v)),
    "thm2.target_epsilon": (
        "target_epsilon", "real", "[0, 1)", ParameterError, lambda v: verify_thm2(8, 2, 2, 1, 2.0, target_epsilon=v)
    ),
    "bench.repeats": (
        "repeats", "int", "[1, inf)", ParameterError, lambda v: bench_scaling(_POLICY, [8], repeats=v, warmup=0, d=4)
    ),
    "bench.warmup": (
        "warmup", "int", "[0, inf)", ParameterError, lambda v: bench_scaling(_POLICY, [8], repeats=1, warmup=v, d=4)
    ),
    "bench.seed": (
        "seed", "int", "[0, inf)", ParameterError, lambda v: bench_scaling(_POLICY, [8], repeats=1, warmup=0, d=4, seed=v)
    ),
    "synth.N": ("N", "int", "[1, inf)", ParameterError, lambda v: SynthProfile("gaussian_iid", v, 4)),
    "synth.noise_sigma": (
        "noise_sigma", "real", "[0, inf)", ParameterError, lambda v: SynthProfile("gaussian_iid", 4, 4, noise_sigma=v)
    ),
    "synth.rank": ("rank", "int", "[1, 4]", ParameterError, lambda v: SynthProfile("low_rank_plus_noise", 8, 4, v)),
    "synth.needle_count": (
        "needle_count", "int", "[1, 4)", ParameterError, lambda v: SynthProfile("needle", 8, 4, needle_count=v)
    ),
    "synth.n_layers": (
        "n_layers", "int", "[1, inf)", ParameterError, lambda v: synth_bundle(SynthProfile("gaussian_iid", 2, 2), v)
    ),
}


def _probes(kind, interval):
    """(value, accepted) at each finite end of `interval` and one step beyond it, then values of no allowed kind.

    A real is also probed with ints beyond float range, which are not finite as floats.
    """
    probes = []
    if interval is not None:
        low, high = (float(end) for end in interval[1:-1].split(","))
        step, cast = (1, int) if kind == "int" else (1e-9, float)
        if math.isfinite(low):
            probes += [(cast(low), interval[0] == "["), (cast(low) - step, False)]
        if math.isfinite(high):
            probes += [(cast(high), interval[-1] == "]"), (cast(high) + step, False)]
    if kind == "real":
        probes += [(10**400, False), (-(10**400), False)]
    return probes + [(math.nan, False), (math.inf, False), (-math.inf, False), (True, False), ("1", False)]


@pytest.mark.parametrize(
    "case, value, accepted",
    [(case, value, ok) for case, (_, kind, interval, *_) in SCALARS.items() for value, ok in _probes(kind, interval)],
    ids=lambda v: ("-10**400" if v < 0 else "10**400") if isinstance(v, int) and abs(v) > 10**300 else None,
)
def test_scalar_argument_domain(case, value, accepted):
    name, _, _, error, call = SCALARS[case]
    if accepted:
        call(value)
        return
    with pytest.raises(error) as info:
        call(value)
    assert type(info.value) is error and str(info.value).startswith(f"{name} must be "), info.value


_EMPTY = np.zeros((5, 0))
_FULL = np.ones((5, 3))


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda m: exact_leverage(m), "K"),
        (lambda m: approx_leverage(m, SketchSpec("gaussian", 1)), "K"),
        (lambda m: noncausal_scores(m, m), "Q"),
        (lambda m: h2o_scores(m, m), "Q"),
        (lambda m: snapkv_scores(m, m), "Q"),
        (lambda m: noncausal_scores(_FULL, m), "K"),
        (lambda m: apply_sketch(m, SketchSpec("gaussian", 1)), "K"),
        (lambda m: apply_sketch(m, SketchSpec("none", 1)), "K"),
        (lambda m: value_norm_scale(_SCORES, m), "V"),
    ],
    ids=["exact", "approx", "noncausal", "h2o", "snapkv", "noncausal_K", "sketch", "sketch_none", "value_norm"],
)
@pytest.mark.parametrize("matrix", [_EMPTY, _EMPTY.T, np.ones(5), np.ones((1, 5, 3))], ids=["no_cols", "no_rows", "1d", "3d"])
def test_matrix_argument_shape(call, name, matrix):
    with pytest.raises(ParameterError, match=f"^{name} must be 2-D with at least one row and one column, got shape"):
        call(matrix)


_NUMPY_NON_FINITE = [dtype(text) for dtype in (np.float16, np.float32, np.float64) for text in ("inf", "-inf", "nan")]


@pytest.mark.parametrize("value", _NUMPY_NON_FINITE, ids=lambda v: f"{type(v).__name__}({v})")
@pytest.mark.parametrize("case", [case for case, (_, kind, *_) in SCALARS.items() if kind == "real"])
def test_numpy_non_finite_real_rejected(case, value):
    # a narrow float's inf once passed as finite, or met the interval test first and was misreported
    name, _, _, error, call = SCALARS[case]
    with pytest.raises(error) as info:
        call(value)
    assert type(info.value) is error and str(info.value).startswith(f"{name} must be a finite real number"), info.value


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
def test_numpy_real_checked_without_warning(dtype):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _check_field("x", dtype(0.5), "real", "(0, 1]")
        _check_field("x", dtype(-3.0), "real")
        with pytest.raises(ParameterError, match="^x must be a finite real number"):
            _check_field("x", -int("9" * 400), "real")
