import numpy as np
import pytest

from flunowcast.errors import NoData
from flunowcast.models import (
    fit_huber,
    huber_loss,
    huber_loss_gradient,
    model_from_json,
    model_to_json,
)

from oracles import central_difference, ols_fit


def outlier_dataset(seed, n=20, jump=100.0):
    """y = x with one gross response outlier."""
    rs = np.random.RandomState(seed)
    x = np.linspace(0.0, 10.0, n) + rs.normal(0, 0.05, n)
    y = x + rs.normal(0, 0.1, n)
    y[rs.randint(n)] += jump
    return x[:, None], y


class TestLossFunction:
    def test_branch_continuity_at_delta(self):
        # both branches equal 1 at a = delta = 1, both derivatives equal 2
        assert huber_loss([1.0], sigma=1.0, delta=1.0) == pytest.approx(1.0)
        assert 2 * abs(1.0) - 1 == pytest.approx(1.0 ** 2)
        eps = 1e-8
        inner = (huber_loss([1.0], 1.0) - huber_loss([1.0 - eps], 1.0)) / eps
        outer = (huber_loss([1.0 + eps], 1.0) - huber_loss([1.0], 1.0)) / eps
        assert inner == pytest.approx(2.0, abs=1e-6)
        assert outer == pytest.approx(2.0, abs=1e-6)

    def test_doubled_form_is_twice_canonical(self):
        rs = np.random.RandomState(0)
        r = rs.normal(0, 3, 50)
        doubled = huber_loss(r, sigma=1.5, form="doubled")
        canon = huber_loss(r, sigma=1.5, form="canonical")
        assert doubled == pytest.approx(2.0 * canon, rel=1e-12)

    def test_analytic_gradient_matches_central_differences(self):
        rs = np.random.RandomState(11)
        X = rs.normal(size=(30, 3))
        y = X @ np.array([1.0, -2.0, 0.5]) + rs.normal(0, 1.0, 30)
        worst = 0.0
        for _ in range(10):
            beta = rs.normal(size=3)
            intercept = float(rs.normal())
            sigma = float(rs.uniform(0.5, 2.0))

            def f(params):
                return huber_loss(y - X @ params[:3] - params[3], sigma)

            analytic_b, analytic_c = huber_loss_gradient(X, y, beta, intercept, sigma)
            numeric = central_difference(f, np.append(beta, intercept))
            ref = np.append(analytic_b, analytic_c)
            rel = np.abs(numeric - ref) / np.maximum(1.0, np.abs(ref))
            worst = max(worst, float(rel.max()))
        assert worst < 1e-5


class TestFit:
    def test_exact_linear_data_reduces_to_least_squares(self):
        x = np.arange(10, dtype=float)[:, None]
        y = 2.0 * x.ravel() + 1.0
        model = fit_huber(x, y, sigma=1.0)
        assert model.beta[0] == pytest.approx(2.0, abs=1e-6)
        assert model.intercept == pytest.approx(1.0, abs=1e-6)

    def test_outlier_robustness_beats_ols(self):
        X, y = outlier_dataset(seed=3)
        huber = fit_huber(X, y)
        beta_ols, _ = ols_fit(X, y)
        assert abs(huber.beta[0] - 1.0) < abs(beta_ols[0] - 1.0)
        assert model_sigma_positive(huber)

    def test_heldout_prediction_closer_than_ols(self):
        X, y = outlier_dataset(seed=8)
        huber = fit_huber(X, y)
        beta_ols, c_ols = ols_fit(X, y)
        x_new = 20.0
        truth = 20.0
        assert abs(huber.predict(np.array([x_new])) - truth) < \
            abs(beta_ols[0] * x_new + c_ols - truth)

    def test_doubled_and_canonical_forms_coincide(self):
        X, y = outlier_dataset(seed=21)
        a = fit_huber(X, y, form="doubled")
        b = fit_huber(X, y, form="canonical")
        assert abs(a.beta[0] - b.beta[0]) < 1e-6
        assert abs(a.intercept - b.intercept) < 1e-6

    @pytest.mark.parametrize("call", [
        lambda X, y: huber_loss(y, sigma=1.0, form="bogus"),
        lambda X, y: huber_loss_gradient(X, y, np.zeros(1), 0.0, 1.0, form="bogus"),
        lambda X, y: fit_huber(X, y, form="bogus"),
    ], ids=["loss", "loss_gradient", "fit_huber"])
    def test_unknown_form_rejected(self, call):
        X, y = outlier_dataset(seed=21)
        with pytest.raises(ValueError, match="unknown loss form 'bogus'"):
            call(X, y)

    def test_fixed_sigma_respected(self):
        X, y = outlier_dataset(seed=4)
        model = fit_huber(X, y, sigma=2.5)
        assert model.sigma == 2.5

    def test_intercept_flag(self):
        x = np.arange(8, dtype=float)[:, None]
        y = 3.0 * x.ravel()
        model = fit_huber(x, y, sigma=1.0, include_intercept=False)
        assert model.intercept == 0.0
        assert model.beta[0] == pytest.approx(3.0, abs=1e-8)

    def test_too_few_rows(self):
        with pytest.raises(NoData):
            fit_huber(np.ones((1, 1)), np.ones(1))


def model_sigma_positive(model):
    return model.sigma > 0.0


def test_json_round_trip_bitwise():
    X, y = outlier_dataset(seed=13)
    model = fit_huber(X, y)
    clone = model_from_json(model_to_json(model))
    assert np.array_equal(clone.beta, model.beta)
    assert clone.intercept == model.intercept
    assert clone.sigma == model.sigma and clone.delta == model.delta


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 160, 161, 398, 399])
def test_median_matches_numpy_bitwise(size):
    from flunowcast.models.huber import _median

    rng = np.random.default_rng(size)
    cases = [
        rng.standard_normal(size),
        rng.integers(-3, 4, size).astype(float),  # ties
        rng.choice([0.0, -0.0], size),            # signed zeros only
        rng.choice([0.0, -0.0, 1.0, -1.0], size),
        rng.standard_normal(size) * 1e300,        # a middle pair that overflows
        np.abs(rng.standard_normal(size)) * 1e-310,  # subnormals
    ]
    for x in cases:
        assert np.float64(_median(x)).tobytes() == np.median(x).tobytes(), x
