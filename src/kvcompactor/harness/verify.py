"""Empirical verification of the spectral-preservation and approximation bounds.

These are report generators, not assertions: each returns a record of
observed success rates or tightest distortions for the caller (or the test
suite) to judge. Desk-scale sketch sizes sit far below the theoretical
sample-size bounds, which are known to be loose in practice, so the
interesting output is the empirical margin.
"""

import math

import numpy as np

from ..errors import ParameterError, _check_field
from ..leverage import approx_leverage, exact_leverage
from ..sketch import SketchSpec, _rng, child_seed

_PSD_TOL = 1e-9


def _check_sampling(epsilon: float, delta: float) -> None:
    """The distortion epsilon and failure probability delta of a sampling bound, each in (0, 1)."""
    _check_field("epsilon", epsilon, "real", "(0, 1)")
    _check_field("delta", delta, "real", "(0, 1)")


def sample_size(d: int, epsilon: float, delta: float, c: float) -> int:
    """Row-sample count C * d * log(d / delta) / epsilon^2, rounded up."""
    _check_field("d", d, "int", "[1, inf)")
    _check_sampling(epsilon, delta)
    _check_field("c", c, "real", "(0, inf)")
    return math.ceil(c * d * math.log(d / delta) / (epsilon * epsilon))


def sandwich_margins(gram: np.ndarray, gram_hat: np.ndarray, epsilon: float):
    """Normalized smallest eigenvalues of the two PSD difference matrices.

    Both margins >= 0 means (1-eps) K^T K <= Khat^T Khat <= (1+eps) K^T K.
    Margins are divided by the largest eigenvalue of K^T K so tolerances
    are scale-free.
    """
    scale = float(np.linalg.eigvalsh(gram)[-1])
    if scale <= 0:
        raise ParameterError("gram matrix must be nonzero")
    lo = float(np.linalg.eigvalsh(gram_hat - (1.0 - epsilon) * gram)[0]) / scale
    hi = float(np.linalg.eigvalsh((1.0 + epsilon) * gram - gram_hat)[0]) / scale
    return lo, hi


def leverage_sample(K: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k rows sampled with replacement proportional to leverage/d, rescaled.

    Row i is drawn with probability ell_i / d and scaled by
    sqrt(d / (k * ell_i)), the reweighting that makes the sampled Gram an
    unbiased estimate of K^T K.
    """
    n, d = K.shape
    ell = exact_leverage(K).scores.scores
    p = ell / ell.sum()
    idx = rng.choice(n, size=k, replace=True, p=p)
    return K[idx] * np.sqrt(d / (k * ell[idx]))[:, None]


def verify_spectral(
    N: int,
    d: int,
    k: int,
    trials: int,
    epsilon: float,
    delta: float = 0.1,
    seed: int = 0,
) -> dict:
    """Success rate of the two-sided spectral sandwich under leverage sampling."""
    for name, value in (("N", N), ("d", d), ("k", k), ("trials", trials)):
        _check_field(name, value, "int", "[1, inf)")
    _check_sampling(epsilon, delta)
    successes = 0
    worst = math.inf
    for t in range(trials):
        rng = _rng(child_seed(seed, t))
        K = rng.standard_normal((N, d))
        khat = leverage_sample(K, k, rng)
        lo, hi = sandwich_margins(K.T @ K, khat.T @ khat, epsilon)
        margin = min(lo, hi)
        worst = min(worst, margin)
        if margin >= -_PSD_TOL:
            successes += 1
    return {
        "n": N,
        "d": d,
        "k": k,
        "epsilon": epsilon,
        "delta": delta,
        "trials": trials,
        "successes": successes,
        "success_rate": successes / trials,
        "worst_margin": worst,
        "seed": seed,
    }


def conditioned_matrix(N: int, d: int, kappa: float, rng: np.random.Generator) -> np.ndarray:
    """Random N x d matrix with condition number exactly `kappa`."""
    _check_field("d", d, "int", "[1, inf)")
    _check_field("N", N, "int", f"[{d}, inf)")
    _check_field("kappa", kappa, "real", "[1, inf)")
    left, _ = np.linalg.qr(rng.standard_normal((N, d)))
    right, _ = np.linalg.qr(rng.standard_normal((d, d)))
    spectrum = np.geomspace(kappa, 1.0, d)
    return (left * spectrum) @ right.T


def tightest_epsilon(ell: np.ndarray, ell_approx: np.ndarray, kappa: float) -> float:
    """Smallest eps for which the condition-number sandwich holds at every index.

    The two-sided bound kappa^-1 (1-eps)/(1+eps) <= ell~/ell <= kappa
    (1+eps)/(1-eps) holds iff t = (1+eps)/(1-eps) >= max(gamma/kappa,
    1/(gamma kappa)) for every ratio gamma.
    """
    gamma = ell_approx / np.maximum(ell, 1e-300)
    t = max(1.0, float(np.max(gamma / kappa)), float(np.max(1.0 / (gamma * kappa))))
    return (t - 1.0) / (t + 1.0)


def verify_thm2(
    N: int,
    d: int,
    k: int,
    trials: int,
    kappa: float,
    seed: int = 0,
    target_epsilon: float | None = None,
) -> dict:
    """Per-trial tightest distortion of approximate vs exact leverage scores."""
    _check_field("k", k, "int", "[1, inf)")
    _check_field("trials", trials, "int", "[1, inf)")
    if target_epsilon is not None:
        _check_field("target_epsilon", target_epsilon, "real", "[0, 1)")
    eps_values = []
    within = 0
    for t in range(trials):
        rng = _rng(child_seed(seed, t))
        K = conditioned_matrix(N, d, kappa, rng)
        ell = exact_leverage(K).scores.scores
        spec = SketchSpec(kind="gaussian", target_dim=k, seed=child_seed(seed, t, 1))
        ell_approx = approx_leverage(K, spec).scores.scores
        eps = tightest_epsilon(ell, ell_approx, kappa)
        eps_values.append(eps)
        if target_epsilon is not None and eps <= target_epsilon:
            within += 1
    eps_arr = np.array(eps_values)
    return {
        "n": N,
        "d": d,
        "k": k,
        "kappa": kappa,
        "trials": trials,
        "max_epsilon": float(eps_arr.max()),
        "mean_epsilon": float(eps_arr.mean()),
        "epsilons": eps_values,
        "target_epsilon": target_epsilon,
        "fraction_within_target": (within / trials) if target_epsilon is not None else None,
        "seed": seed,
    }
