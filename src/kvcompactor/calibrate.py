"""Context-calibrated compression: fit, evaluate, and invert the quality curve.

The degradation a context tolerates is modeled by a two-parameter family.
A per-context steepness k = alpha * NLL(c) + beta (clamped below at the
model's k_min) sets the shape of

    f(r) = (exp(r*k - k) - exp(-k)) / (1 - exp(-k))

which is strictly increasing in the retention rate r with exact endpoints
f(0) = 0, f(1) = 1. Internally f is evaluated as
exp((r-1)k) * expm1(-r*k) / expm1(-k) so neither large nor tiny k
overflows or cancels. Given a quality budget tau, the smallest viable
retention has the closed form

    r*(c, tau) = 1 + ln(tau + (1 - tau) * exp(-k)) / k

(algebraically the inverse of f), clamped to (0, 1].

Fitting minimizes an asymmetric squared loss over observed
(r, NLL(c), y) triples: residuals where the curve over-predicts quality
(f > y) are up-weighted by ``under_penalty``, because optimism there
drives under-estimation of the retention a context actually needs. The
optimizer is a damped Gauss-Newton iteration multi-started from a coarse
(alpha, beta) grid; NLL values always arrive from files, never from a
model run here. Fits clamp k at the fixed floor 1e-3, which is the k_min
of every fitted model; a model loaded from a file uses its own k_min.
"""

import csv
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import ConvergenceError, DataError, DegenerateFitError, FormatError, _check_field
from .kvstore import _naming, _read_json, _write_json

_GRID_ALPHA = (-2.0, -1.0, -0.5, -0.1, 0.0, 0.1, 0.5, 1.0, 2.0)
_GRID_BETA = (0.05, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0)
_K_MIN = 1e-3
_NLL = "[0, inf)"  # the domain of a context NLL, in a triple, a queries file or an argument


@dataclass(frozen=True)
class CalibTriple:
    """One observation: retention r, context NLL, observed NLL ratio y."""

    r: float
    nll_c: float
    y: float

    def __post_init__(self):
        _check_field("r", self.r, "real", "(0, 1]", DataError)
        _check_field("nll_c", self.nll_c, "real", _NLL, DataError)
        _check_field("y", self.y, "real", "(0, inf)", DataError)


@dataclass(frozen=True)
class CalibrationModel:
    """Fitted curve parameters plus fit diagnostics."""

    alpha: float
    beta: float
    k_min: float = _K_MIN
    fit_rmse: float = 0.0
    n_points: int = 0

    def __post_init__(self):
        _check_field("alpha", self.alpha, "real")
        _check_field("beta", self.beta, "real")
        _check_field("k_min", self.k_min, "real", "(0, inf)")
        _check_field("fit_rmse", self.fit_rmse, "real", "[0, inf)")
        _check_field("n_points", self.n_points, "int", "[0, inf)")


def _steepness(nll_c: float, model: CalibrationModel) -> float:
    _check_field("nll_c", nll_c, "real", _NLL)
    return max(model.alpha * nll_c + model.beta, model.k_min)


def calib_value(r: float, nll_c: float, model: CalibrationModel) -> float:
    """Predicted NLL ratio when retaining fraction r of a context with the given NLL."""
    _check_field("r", r, "real", "[0, 1]")
    k = _steepness(nll_c, model)
    return math.exp((r - 1.0) * k) * math.expm1(-r * k) / math.expm1(-k)


def invert_retention(nll_c: float, tau: float, model: CalibrationModel) -> float:
    """Smallest retention rate whose predicted quality reaches tau (closed form)."""
    _check_field("tau", tau, "real", "(0, 1]")
    k = _steepness(nll_c, model)
    r = 1.0 + math.log(tau + (1.0 - tau) * math.exp(-k)) / k
    return min(1.0, max(r, 1e-12))


def _curve(rs: np.ndarray, ks: np.ndarray):
    """f and df/dk, written in overflow-free form (all exponents <= 0)."""
    a = np.exp((rs - 1.0) * ks) * (-np.expm1(-rs * ks))
    b = -np.expm1(-ks)
    da = (rs - 1.0) * a + rs * np.exp(-ks)
    db = np.exp(-ks)
    return a / b, (da * b - a * db) / (b * b)


def _objective(ab, rs, nlls, ys, penalty):
    """Residuals, their weights, the weighted loss, and df/dk at (alpha, beta) = ab."""
    f, dfdk = _curve(rs, np.maximum(ab[0] * nlls + ab[1], _K_MIN))
    res = f - ys
    w = np.where(res > 0, penalty, 1.0)
    return res, w, float((w * res * res).sum()), dfdk


def _descend(start, rs, nlls, ys, penalty, max_iter):
    """One damped Gauss-Newton run from `start`: (objective, alpha, beta, converged)."""
    ab = np.array(start, dtype=np.float64)
    res, w, obj, dfdk = _objective(ab, rs, nlls, ys, penalty)
    mu = 1e-3
    converged = False
    for _ in range(max_iter):
        live = (ab[0] * nlls + ab[1] > _K_MIN).astype(np.float64)
        jac = np.stack([dfdk * nlls * live, dfdk * live], axis=1)
        jtj = (jac * w[:, None]).T @ jac
        g = jac.T @ (w * res)
        try:
            step = np.linalg.solve(jtj + mu * np.eye(2), -g)
        except np.linalg.LinAlgError:
            step = -g
        new_ab = ab + step
        new = _objective(new_ab, rs, nlls, ys, penalty)
        if new[2] <= obj:
            moved = np.abs(step).max()
            ab, (res, w, obj, dfdk) = new_ab, new
            mu = max(mu * 0.3, 1e-12)
            if moved < 1e-13 * (1.0 + np.abs(ab).max()):
                converged = True
                break
        else:
            mu *= 10.0
            if mu > 1e12:
                converged = obj < 1e-30 or np.abs(g).max() < 1e-10 * (1.0 + obj)
                break
    return obj, float(ab[0]), float(ab[1]), converged


def fit_calibration(triples, under_penalty: float = 4.0, max_iter: int = 200) -> CalibrationModel:
    """Fit (alpha, beta) by damped Gauss-Newton with coarse-grid multi-start.

    Parameters
    ----------
    triples : sequence of CalibTriple
        Needs at least two observations with two distinct retention rates.
    under_penalty : float
        Weight on residuals where the curve over-predicts quality; >= 1.
        1.0 gives the symmetric least-squares fit.
    max_iter : int
        Gauss-Newton iterations allowed per start; >= 1.

    The lowest-objective converged run wins, ties going to the smaller
    (alpha, beta). If none converges, ConvergenceError carries the model of
    the lowest-objective run.
    """
    triples = list(triples)
    _check_field("under_penalty", under_penalty, "real", "[1.0, inf)")
    _check_field("max_iter", max_iter, "int", "[1, inf)")
    rs = np.array([t.r for t in triples])
    if rs.size < 2 or np.unique(rs).size < 2:
        raise DegenerateFitError("need at least 2 triples with 2 distinct retention rates")
    nlls = np.array([t.nll_c for t in triples])
    ys = np.array([t.y for t in triples])

    starts = sorted(
        ((a, b) for a in _GRID_ALPHA for b in _GRID_BETA),
        key=lambda ab: _objective(np.array(ab), rs, nlls, ys, under_penalty)[2],
    )[:3]
    runs = [_descend(start, rs, nlls, ys, under_penalty, max_iter) for start in starts]
    _, alpha, beta, converged = min([run for run in runs if run[3]] or runs, key=lambda run: run[:3])
    res = _objective(np.array([alpha, beta]), rs, nlls, ys, under_penalty)[0]
    model = CalibrationModel(alpha, beta, _K_MIN, float(np.sqrt(np.mean(res * res))), rs.size)
    if not converged:
        raise ConvergenceError(f"no start converged within {max_iter} iterations", model=model)
    return model


def _csv_rows(path, header: tuple, make, exact: bool) -> list:
    """make(*floats) of each row's first len(header) fields, below a header that starts with `header`.

    With `exact`, the header and every row have exactly those fields. Names
    are compared unpadded and blank lines are skipped. A bad header, width or
    number, or a line csv cannot parse, is a FormatError and a value `make`
    rejects a DataError, each naming its line.
    """
    out, width = [], len(header)
    with _naming(path), open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            names = [name.strip() for name in next(reader, [])]
            if (names if exact else names[:width]) != list(header):
                raise FormatError(f"line 1: expected header {','.join(header)}, got {','.join(names)!r}")
            for lineno, row in enumerate(reader, start=2):
                if len(row) < 2 and not "".join(row).strip():
                    continue
                if exact and len(row) != width:
                    raise FormatError(f"line {lineno}: expected {width} fields, got {len(row)}")
                try:
                    values = [float(x) for x in row[:width]]
                except ValueError as exc:
                    raise FormatError(f"line {lineno}: {exc}") from exc
                try:
                    out.append(make(*values))
                except DataError as exc:
                    raise DataError(f"line {lineno}: {exc}") from exc
        except csv.Error as exc:  # a NUL byte, or a field over csv's size limit
            raise FormatError(f"line {reader.line_num}: {exc}") from exc
    return out


def load_triples(path) -> list:
    """Parse a CSV of training triples with header ``r,nll_c,y``."""
    return _csv_rows(path, ("r", "nll_c", "y"), CalibTriple, exact=True)


def _checked_nll(nll_c: float) -> float:
    _check_field("nll_c", nll_c, "real", _NLL, DataError)
    return nll_c


def _read_nlls(path) -> list:
    """The context NLLs of a ``calib plan --queries`` CSV: header ``nll_c,...``, one NLL first on each line."""
    return _csv_rows(path, ("nll_c",), _checked_nll, exact=False)


def save_model(model: CalibrationModel, path) -> None:
    _write_json(path, asdict(model), indent=1)


def load_model(path) -> CalibrationModel:
    names = [f.name for f in fields(CalibrationModel)]
    return _read_json(path, "model", lambda doc: CalibrationModel(**{name: doc[name] for name in names}))
