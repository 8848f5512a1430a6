import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvcompactor import CalibTriple, CalibrationModel, calib_value, fit_calibration, invert_retention, load_triples
from kvcompactor.calibrate import load_model, save_model
from kvcompactor.errors import ConvergenceError, DataError, DegenerateFitError, FormatError, ParameterError


def bisect_inverse(nll, tau, model, iters=60):
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if calib_value(mid, nll, model) >= tau:
            hi = mid
        else:
            lo = mid
    return hi


def curve_triples(alpha, beta, rs, nlls, noise=0.0, seed=0):
    truth = CalibrationModel(alpha=alpha, beta=beta)
    rng = np.random.default_rng(seed)
    out = []
    for r in rs:
        for nll in nlls:
            y = calib_value(float(r), float(nll), truth) + noise * rng.standard_normal()
            out.append(CalibTriple(float(r), float(nll), max(float(y), 1e-3)))
    return out


def pinned_triples():
    return curve_triples(0.2, 1.0, np.linspace(0.05, 1.0, 20), (1.0, 2.0, 3.0), noise=0.02, seed=0)


class TestCurve:
    def test_endpoints_exact(self):
        model = CalibrationModel(alpha=0.4, beta=0.7)
        for nll in (0.0, 1.0, 5.0, 50.0):
            assert calib_value(1.0, nll, model) == 1.0
            assert calib_value(0.0, nll, model) == 0.0

    def test_known_value(self):
        model = CalibrationModel(alpha=0.0, beta=1.0)  # k = 1
        expected = (math.exp(-0.5) - math.exp(-1.0)) / (1.0 - math.exp(-1.0))
        assert abs(calib_value(0.5, 2.0, model) - expected) < 1e-12
        assert abs(expected - 0.3775) < 1e-4

    def test_strictly_increasing(self):
        model = CalibrationModel(alpha=-1.0, beta=0.5)  # k clamps at k_min for big nll
        rs = np.linspace(0.0, 1.0, 101)
        for nll in (0.0, 0.4, 10.0):
            vals = [calib_value(float(r), nll, model) for r in rs]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_r_out_of_range(self):
        with pytest.raises(ParameterError):
            calib_value(1.2, 1.0, CalibrationModel(alpha=0.0, beta=1.0))

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-5, 5), st.floats(-5, 5), st.floats(0, 20))
    def test_endpoints_exact_random_models(self, alpha, beta, nll):
        model = CalibrationModel(alpha=alpha, beta=beta)
        assert calib_value(1.0, nll, model) == 1.0
        assert calib_value(0.0, nll, model) == 0.0


class TestInvert:
    def test_tau_one(self):
        assert invert_retention(3.0, 1.0, CalibrationModel(alpha=0.1, beta=0.5)) == 1.0

    def test_known_inverse(self):
        model = CalibrationModel(alpha=0.0, beta=1.0)
        tau = calib_value(0.5, 1.0, model)
        assert abs(invert_retention(1.0, tau, model) - 0.5) < 1e-12

    def test_matches_bisection_grid(self):
        model = CalibrationModel(alpha=0.3, beta=0.2)
        for nll in np.linspace(0.0, 12.0, 10):
            for tau in np.linspace(0.05, 1.0, 10):
                closed = invert_retention(float(nll), float(tau), model)
                assert abs(closed - bisect_inverse(float(nll), float(tau), model)) < 1e-8

    def test_quality_met_at_inverse(self):
        model = CalibrationModel(alpha=-0.2, beta=2.5)
        for nll in (0.0, 1.0, 9.0):
            for tau in (0.05, 0.5, 0.9, 0.999):
                r = invert_retention(nll, tau, model)
                assert calib_value(r, nll, model) >= tau - 1e-9

    def test_monotone_in_tau(self):
        model = CalibrationModel(alpha=0.5, beta=1.0)
        taus = np.linspace(0.01, 1.0, 40)
        rs = [invert_retention(2.0, float(t), model) for t in taus]
        assert all(b >= a for a, b in zip(rs, rs[1:]))

    def test_huge_steepness_no_overflow(self):
        model = CalibrationModel(alpha=100.0, beta=0.0)
        r = invert_retention(50.0, 0.95, model)  # k = 5000
        assert 0.0 < r <= 1.0
        assert calib_value(r, 50.0, model) >= 0.95 - 1e-9

    def test_tau_out_of_range(self):
        with pytest.raises(ParameterError):
            invert_retention(1.0, 0.0, CalibrationModel(alpha=0.0, beta=1.0))

    @pytest.mark.parametrize("nll", [math.nan, math.inf, -math.inf, -0.5])
    def test_nll_outside_domain(self, nll):
        # the domain CalibTriple enforces on its nll_c
        model = CalibrationModel(alpha=0.2, beta=1.0)
        with pytest.raises(ParameterError):
            invert_retention(nll, 0.95, model)
        with pytest.raises(ParameterError):
            calib_value(0.5, nll, model)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(-3, 3),
        st.floats(-3, 3),
        st.floats(0, 15),
        st.floats(0.01, 1.0),
    )
    def test_inverse_consistency_property(self, alpha, beta, nll, tau):
        model = CalibrationModel(alpha=alpha, beta=beta)
        r = invert_retention(nll, tau, model)
        assert 0.0 < r <= 1.0
        assert calib_value(r, nll, model) >= tau - 1e-9


class TestFit:
    def test_noiseless_recovery(self):
        triples = curve_triples(0.2, 1.0, np.arange(0.1, 0.95, 0.1), (1.0, 2.0, 3.0))
        model = fit_calibration(triples, under_penalty=1.0)
        assert abs(model.alpha - 0.2) < 1e-3
        assert abs(model.beta - 1.0) < 1e-3
        assert model.fit_rmse < 1e-6
        assert model.n_points == len(triples)

    def test_noisy_recovery(self):
        triples = curve_triples(0.2, 1.0, np.arange(0.1, 0.95, 0.1), (1.0, 2.0, 3.0), noise=0.01, seed=0)
        model = fit_calibration(triples, under_penalty=1.0)
        assert abs(model.alpha - 0.2) < 0.05
        assert abs(model.beta - 1.0) < 0.05

    def test_single_triple_degenerate(self):
        with pytest.raises(DegenerateFitError):
            fit_calibration([CalibTriple(0.5, 1.0, 0.8)])

    def test_single_distinct_r_degenerate(self):
        triples = [CalibTriple(0.5, float(n), 0.8) for n in (1, 2, 3)]
        with pytest.raises(DegenerateFitError):
            fit_calibration(triples)

    def test_refit_idempotent(self):
        triples = curve_triples(0.35, 0.8, np.arange(0.1, 1.0, 0.2), (0.5, 1.5), noise=0.02, seed=1)
        first = fit_calibration(triples, under_penalty=1.0)
        refit_data = [
            CalibTriple(t.r, t.nll_c, calib_value(t.r, t.nll_c, first)) for t in triples
        ]
        second = fit_calibration(refit_data, under_penalty=1.0)
        assert abs(second.alpha - first.alpha) < 1e-6
        assert abs(second.beta - first.beta) < 1e-6

    def test_asymmetry_pushes_residuals_down(self):
        triples = curve_triples(0.25, 1.2, np.arange(0.05, 1.0, 0.05), (1.0, 3.0), noise=0.05, seed=2)

        def mean_residual(model):
            return float(np.mean([calib_value(t.r, t.nll_c, model) - t.y for t in triples]))

        sym = fit_calibration(triples, under_penalty=1.0)
        asym = fit_calibration(triples, under_penalty=4.0)
        assert mean_residual(asym) <= mean_residual(sym) + 1e-12

    def test_iteration_budget_exhausted(self):
        triples = curve_triples(0.2, 1.0, np.linspace(0.05, 1.0, 20), (1.0, 2.0, 3.0), noise=0.02, seed=0)
        with pytest.raises(ConvergenceError) as info:
            fit_calibration(triples, max_iter=1)
        model = info.value.model
        assert isinstance(model, CalibrationModel)
        assert all(math.isfinite(v) for v in (model.alpha, model.beta, model.fit_rmse))
        assert model.n_points == len(triples)
        assert model.k_min == 1e-3

    def test_bad_penalty(self):
        with pytest.raises(ParameterError):
            fit_calibration(curve_triples(0.2, 1.0, (0.2, 0.8), (1.0,)), under_penalty=0.5)

    @pytest.mark.parametrize("penalty", [float("nan"), float("inf"), True])
    def test_non_finite_or_bool_penalty(self, penalty):
        with pytest.raises(ParameterError):
            fit_calibration(curve_triples(0.2, 1.0, (0.2, 0.8), (1.0,)), under_penalty=penalty)

    # Recorded results on one noisy set. rel_tol 1e-9 tolerates another BLAS's
    # last ulp but not a different start choice or stopping rule.
    @pytest.mark.parametrize(
        "penalty, alpha, beta, rmse",
        [
            (1.0, 0.17553342962913143, 1.0172953389740933, 0.017746263263274584),
            (4.0, 0.14725717948095254, 1.1765392293048247, 0.019845161125381764),
        ],
    )
    def test_pinned_fit(self, penalty, alpha, beta, rmse):
        model = fit_calibration(pinned_triples(), under_penalty=penalty)
        assert math.isclose(model.alpha, alpha, rel_tol=1e-9)
        assert math.isclose(model.beta, beta, rel_tol=1e-9)
        assert math.isclose(model.fit_rmse, rmse, rel_tol=1e-9)
        assert (model.k_min, model.n_points) == (1e-3, 60)

    def test_pinned_partial_model(self):
        with pytest.raises(ConvergenceError, match="no start converged within 1 iterations") as info:
            fit_calibration(pinned_triples(), max_iter=1)
        model = info.value.model
        assert math.isclose(model.alpha, 0.13472786001911657, rel_tol=1e-9)
        assert math.isclose(model.beta, 1.1522405379925194, rel_tol=1e-9)
        assert math.isclose(model.fit_rmse, 0.018536424834094945, rel_tol=1e-9)
        assert (model.k_min, model.n_points) == (1e-3, 60)


class TestTriplesCsv:
    def test_happy_path(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("r,nll_c,y\n0.5,2.0,0.8\n")
        triples = load_triples(path)
        assert triples == [CalibTriple(0.5, 2.0, 0.8)]

    def test_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("r,nll_c,y\n")
        assert load_triples(path) == []

    def test_invariant_violation_with_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("r,nll_c,y\n0.5,2.0,0.8\n1.5,2.0,0.8\n")
        with pytest.raises(DataError, match="line 3"):
            load_triples(path)

    def test_malformed_row_with_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("r,nll_c,y\n0.5,zap,0.8\n")
        with pytest.raises(FormatError, match="line 2"):
            load_triples(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(FormatError):
            load_triples(path)

    @pytest.mark.parametrize(
        "text, line",
        [("", 1), ("r,nll_c\n", 1), ("r,nll_c,y\n0.5,2.0\n", 2), ("r,nll_c,y\n0.5,2.0,0.8\n\n0.5,2.0,0.8,1\n", 4)],
        ids=["empty", "short_header", "short_row", "long_row"],
    )
    def test_bad_layout_names_the_line(self, tmp_path, text, line):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(FormatError, match=f"t.csv: line {line}: "):
            load_triples(path)

    def test_padding_and_blank_lines(self, tmp_path):
        # the layouts a calib plan --queries file accepts, read by the same row reader
        path = tmp_path / "t.csv"
        path.write_text(" r , nll_c,y \r\n0.5,2.0,0.8\r\n\n  \n 0.25 ,1.0,0.5\n")
        assert load_triples(path) == [CalibTriple(0.5, 2.0, 0.8), CalibTriple(0.25, 1.0, 0.5)]

    @pytest.mark.parametrize("data", [b"\xff\xfe", b"r,nll_c,y\n0.5,2.0,0.8\n\xff\n"], ids=["first_byte", "after_a_row"])
    def test_not_utf8_is_format_error(self, tmp_path, data):
        path = tmp_path / "t.csv"
        path.write_bytes(data)
        with pytest.raises(FormatError, match="t.csv: not UTF-8"):
            load_triples(path)


class TestModelJson:
    def test_round_trip(self, tmp_path):
        model = CalibrationModel(alpha=0.21, beta=1.3, k_min=1e-3, fit_rmse=0.004, n_points=27)
        path = tmp_path / "m.json"
        save_model(model, path)
        assert load_model(path) == model

    def test_numpy_fields_written_as_numbers(self, tmp_path):
        model, plain = CalibrationModel(alpha=np.float32(1.0), beta=0.5), CalibrationModel(alpha=1.0, beta=0.5)
        path, plain_path = tmp_path / "m.json", tmp_path / "plain.json"
        save_model(model, path)
        save_model(plain, plain_path)
        assert load_model(path) == model
        assert path.read_bytes() == plain_path.read_bytes()

    def test_exact_text(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(CalibrationModel(alpha=0.21, beta=1.3, k_min=1e-3, fit_rmse=0.004, n_points=27), path)
        assert path.read_text() == (
            '{\n "alpha": 0.21,\n "beta": 1.3,\n "k_min": 0.001,\n "fit_rmse": 0.004,\n "n_points": 27\n}\n'
        )

    def test_loaded_k_min_kept(self, tmp_path):
        # the fit always clamps at 1e-3; a model file may carry its own floor
        path = tmp_path / "m.json"
        path.write_text('{"alpha": -1.0, "beta": 0.5, "k_min": 0.25, "fit_rmse": 0.0, "n_points": 0}')
        model = load_model(path)
        assert model.k_min == 0.25
        assert invert_retention(10.0, 0.5, model) == invert_retention(10.0, 0.5, CalibrationModel(0.0, 0.25))

    def test_missing_key(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"alpha": 1.0}')
        with pytest.raises(FormatError):
            load_model(path)
