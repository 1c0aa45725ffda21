import warnings

import numpy as np
import pytest

from flunowcast import evaluation, parallel
from flunowcast.errors import InsufficientHistory, SeriesTooShort
from flunowcast.evaluation import ModelSpec, backtest
from flunowcast.features import SplitPlan
from flunowcast.models import (
    css_innovations,
    fit_arima,
    forecast_arima,
    model_from_json,
    model_to_json,
)
from flunowcast.models.arima import (
    _innovations_and_jacobian,
    _lags,
    _ma_filter,
    css_gradient,
    css_objective,
)
from flunowcast.rng import Xorshift64Star

from oracles import central_difference, lapack_ma_filter, yule_walker_ar
from test_acceptance import _panel


def ar1_series(phi=0.8, n=500, seed=42, sd=1.0):
    rng = Xorshift64Star(seed)
    z = [0.0]
    for _ in range(n - 1):
        z.append(phi * z[-1] + rng.normal(sd=sd))
    return np.array(z)


class TestFit:
    def test_random_walk_has_no_parameters(self):
        model = fit_arima(np.cumsum(np.ones(20)) + 3.0, order=(0, 1, 0))
        assert model.ar.size == 0 and model.ma.size == 0
        assert model.intercept == 0.0
        assert model.n_params == 0

    def test_ar1_recovery_against_yule_walker(self):
        z = ar1_series()
        model = fit_arima(z, order=(1, 0, 0))
        yw = yule_walker_ar(z, 1)[0]
        assert abs(model.ar[0] - 0.8) < 0.1
        assert abs(yw - 0.8) < 0.1
        assert abs(model.ar[0] - yw) < 0.05  # two estimators agree on AR(1)

    def test_spurious_ma_coefficient_vanishes(self):
        z = ar1_series()
        model = fit_arima(z, order=(1, 0, 1))
        assert abs(model.ma[0]) < 0.1

    def test_series_too_short(self):
        with pytest.raises(SeriesTooShort):
            fit_arima(np.array([1.0, 2.0, 3.0, 5.0]), order=(0, 1, 0))

    def test_noise_variance_positive(self):
        model = fit_arima(ar1_series(n=200), order=(2, 0, 1))
        assert model.noise_variance > 0.0


class TestForecast:
    def test_random_walk_forecasts_last_value(self):
        model = fit_arima(np.cumsum(np.ones(20)), order=(0, 1, 0))
        out = forecast_arima(model, np.array([1.0, 2.0, 5.0]), 3)
        assert out.tolist() == [5.0, 5.0, 5.0]

    def test_ar1_hand_iterated_recursion(self):
        from flunowcast.models import ArimaModel

        model = ArimaModel(order=(1, 0, 0), ar=np.array([0.5]),
                           ma=np.zeros(0), intercept=0.0, noise_variance=1.0)
        out = forecast_arima(model, np.array([8.0]), 3)
        assert out.tolist() == [4.0, 2.0, 1.0]

    def test_forecast_prefix_consistency(self):
        model = fit_arima(ar1_series(n=300), order=(2, 1, 1))
        hist = ar1_series(n=300)
        assert forecast_arima(model, hist, 1)[0] == forecast_arima(model, hist, 3)[0]

    def test_insufficient_history(self):
        model = fit_arima(ar1_series(n=100), order=(3, 1, 0))
        with pytest.raises(InsufficientHistory):
            forecast_arima(model, np.array([1.0, 2.0, 3.0]), 1)  # needs p + d = 4

    def test_translation_invariance_with_differencing(self):
        rng = Xorshift64Star(3)
        y = np.cumsum(np.array(rng.normals(300))) + 10.0
        shift = 1000.0
        f_base = forecast_arima(fit_arima(y, order=(3, 1, 2)), y, 5)
        f_shift = forecast_arima(fit_arima(y + shift, order=(3, 1, 2)), y + shift, 5)
        assert np.abs(f_shift - f_base - shift).max() < 1e-8


class TestCssInternals:
    def test_innovations_definition(self):
        # AR(1) with known parameters: e_t = z_t - c - phi z_{t-1}
        z = np.array([1.0, 2.0, 1.5, 3.0])
        e = css_innovations(z, c=0.5, ar=np.array([0.4]), ma=np.zeros(0))
        expected = [2.0 - 0.5 - 0.4 * 1.0,
                    1.5 - 0.5 - 0.4 * 2.0,
                    3.0 - 0.5 - 0.4 * 1.5]
        assert np.allclose(e, expected, atol=1e-14)

    def test_ma_feedback(self):
        z = np.array([1.0, 2.0, 1.0])
        e = css_innovations(z, c=0.0, ar=np.zeros(0), ma=np.array([0.5]))
        # e_0 = 1; e_1 = 2 - 0.5*1 = 1.5; e_2 = 1 - 0.5*1.5 = 0.25
        assert np.allclose(e, [1.0, 1.5, 0.25], atol=1e-14)

    def test_gradient_matches_central_differences(self):
        rng = Xorshift64Star(17)
        z = np.array(rng.normals(80))
        params = np.array([0.1, 0.3, -0.2, 0.25, -0.15])  # c, ar(2), ma(2)
        analytic = css_gradient(z, params, 2, 2, True)
        numeric = central_difference(
            lambda par: css_objective(z, par, 2, 2, True), params, eps=1e-7)
        rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
        assert rel.max() < 1e-6

        _, jac = _innovations_and_jacobian(z, params, 2, 2, True)
        numeric_jac = np.array([
            central_difference(
                lambda par: css_innovations(z, par[0], par[1:3], par[3:])[t],
                params, eps=1e-7)
            for t in range(jac.shape[1])]).T
        rel = np.abs(jac - numeric_jac) / np.maximum(1.0, np.abs(numeric_jac))
        assert rel.max() < 1e-6


class TestMaFilter:
    @pytest.mark.parametrize("columns", [None, 1, 4])
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_matches_lapack_band_solve(self, q, columns):
        # the Python recursion rounds each product and difference, where
        # the BLAS kernel fuses them, so the two agree to rounding only
        rng = Xorshift64Star(30 + q)
        for trial in range(20):
            ma = np.array(rng.normals(q, sd=0.4))
            shape = (160,) if columns is None else (160, columns)
            u = np.array(rng.normals(int(np.prod(shape)), sd=3.0)).reshape(shape)
            got, want = _ma_filter(ma, u), lapack_ma_filter(ma, u)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (q, trial)

    def test_explosive_filter_overflows_without_warning(self):
        # roots of x^2 + 3x + 2.5 have modulus sqrt(2.5): e grows as 1.58^t,
        # past the largest double after about 1540 rows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e = _ma_filter(np.array([3.0, 2.5]), np.ones((2000, 2)))
        assert np.isfinite(e[:1500]).all()
        assert not np.isfinite(e[-1]).any()

    def test_empty_ma_returns_u(self):
        u = np.arange(6.0).reshape(3, 2)
        assert _ma_filter(np.zeros(0), u) is u

    @pytest.mark.parametrize("p,q,with_const", [(3, 2, False), (2, 2, True), (0, 3, True),
                                                (2, 1, False)])
    def test_ma_jacobian_rows_are_lags_of_one_filtered_column(self, p, q, with_const):
        # the full block of forcings, one filter pass per parameter, gives
        # the same Jacobian bit for bit
        rng = Xorshift64Star(23)
        z = np.array(rng.normals(120))
        params = np.array(rng.normals(p + q + with_const, sd=0.3))
        e, jac = _innovations_and_jacobian(z, params, p, q, with_const)
        ma = params[p + with_const:]
        forcing = np.hstack([np.ones((e.size, int(with_const))), _lags(z, p),
                             _lags(np.r_[np.zeros(q), e], q)])
        assert np.array_equal(jac, -_ma_filter(ma, forcing).T)


def test_contaminated_panels_give_finite_invertible_fits(monkeypatch):
    # criterion 10(c)'s panels: reporting-glitch spikes in the training era;
    # one CPU, so that every fit runs in this process, where it is recorded
    monkeypatch.setattr(parallel, "cpus", lambda: 1)
    fitted = []

    def recording_fit(*args, **kwargs):
        fitted.append(fit_arima(*args, **kwargs))
        return fitted[-1]

    monkeypatch.setattr(evaluation, "fit_arima", recording_fit)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for seed in range(1000, 1020):
            panel, _ = _panel(seed, contaminate=True, proxy_noise=200.0)
            plan = SplitPlan.of(panel.start + 53, [(panel.start + 210, panel.start + 229)])
            run = backtest(panel, {}, ModelSpec("arima"), plan)[0]
            assert all(np.isfinite(pred) for _, _, pred in run.predictions), seed
    assert len(fitted) == 20 * 20
    for model in fitted:
        # roots of the MA polynomial 1 + sum_j ma_j B^(j+1)
        assert np.abs(np.roots(np.r_[model.ma[::-1], 1.0])).min() > 1.0


def test_json_round_trip_bitwise():
    model = fit_arima(ar1_series(n=150), order=(2, 1, 1))
    clone = model_from_json(model_to_json(model))
    assert clone.order == model.order
    assert np.array_equal(clone.ar, model.ar)
    assert np.array_equal(clone.ma, model.ma)
    assert clone.intercept == model.intercept
