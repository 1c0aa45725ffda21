import numpy as np
import pytest

from flunowcast.errors import NoData, ShapeMismatch
from flunowcast.features import LagSpec, SplitPlan, build_dataset, expanding_splits
from flunowcast.models import (
    LassoModel,
    fit_lasso,
    lasso_objective,
    lasso_stationarity_violation,
    model_from_json,
    model_to_json,
)
from flunowcast.rng import derive_seed
from flunowcast.series import (
    UGC_RESOURCES,
    WeekIndex,
    align,
    standardize_apply,
    standardize_fit,
)
from flunowcast.synth import ProxyConfig, SynthConfig, gen_flu, gen_proxy

from oracles import lasso_grid_search_1d, ols_fit


class TestHandExamples:
    def test_soft_threshold_construction(self):
        # x = (1, -1), y = (3, -3): stationarity gives beta = 3 - lam/4
        X = np.array([[1.0], [-1.0]])
        y = np.array([3.0, -3.0])
        for lam in [0.0, 1.0, 4.0, 8.0]:
            model = fit_lasso(X, y, lam=lam, include_intercept=False)
            assert model.beta[0] == pytest.approx(3.0 - lam / 4.0, abs=1e-10)
            grid = lasso_grid_search_1d(X, y, lam, lo=-5.0, hi=5.0)
            assert model.beta[0] == pytest.approx(grid, abs=1e-4)

    def test_lam_zero_matches_least_squares(self):
        rs = np.random.RandomState(1)
        X = rs.normal(size=(25, 3))
        y = X @ np.array([1.5, -2.0, 0.5]) + 0.3 + rs.normal(0, 0.1, 25)
        model = fit_lasso(X, y, lam=0.0)
        beta_ols, c_ols = ols_fit(X, y)
        assert np.abs(model.beta - beta_ols).max() < 1e-6
        assert abs(model.intercept - c_ols) < 1e-6

    def test_full_shrinkage(self):
        rs = np.random.RandomState(2)
        X = rs.normal(size=(20, 4))
        y = rs.normal(size=20) + 7.0
        model = fit_lasso(X, y, lam=1e9)
        assert np.all(model.beta == 0.0)
        assert model.intercept == pytest.approx(y.mean(), abs=1e-12)


class TestStationarity:
    def test_random_problems_satisfy_subgradient_conditions(self):
        rs = np.random.RandomState(42)
        for trial in range(20):
            n = rs.randint(5, 31)
            p = rs.randint(1, 9)
            X = rs.normal(size=(n, p))
            y = rs.normal(size=n)
            lam = float(rs.uniform(0.01, 5.0))
            model = fit_lasso(X, y, lam=lam)
            viol = lasso_stationarity_violation(X, y, model.beta,
                                                model.intercept, lam)
            assert viol < 1e-4, f"trial {trial}: violation {viol}"

    def test_solution_beats_coordinate_perturbations(self):
        rs = np.random.RandomState(5)
        X = rs.normal(size=(15, 4))
        y = rs.normal(size=15)
        model = fit_lasso(X, y, lam=2.0)
        base = lasso_objective(X, y, model.beta, model.intercept, 2.0)
        for j in range(4):
            for delta in (-1e-3, 1e-3):
                bumped = model.beta.copy()
                bumped[j] += delta
                assert lasso_objective(X, y, bumped, model.intercept, 2.0) >= base - 1e-9


def certificate_scale(X, y, include_intercept=True):
    """The solver's own scale, max(1, 2 max|Xc'yc|) on the centered data."""
    if include_intercept:
        X, y = X - X.mean(axis=0), y - y.mean()
    return max(1.0, float(np.abs(2.0 * (X.T @ y)).max()))


def degenerate_problems(count=48, seed=77):
    """Seeded designs that defeat a naive solver: fewer rows than columns,
    a duplicated column, a zero column."""
    rs = np.random.RandomState(seed)
    for case in range(count):
        n = int(rs.randint(2, 25))
        p = int(rs.randint(2, 20))
        if case % 3 == 0:
            n = min(n, p - 1) if p > 2 else 2  # n < p
        X = rs.normal(size=(n, p)) * rs.choice([1.0, 100.0])
        X[:, rs.randint(p)] = X[:, rs.randint(p)]
        if case % 2 == 0:
            X[:, rs.randint(p)] = 0.0
        y = rs.normal(size=n) * rs.choice([1.0, 1000.0])
        lam = [0.0, 1e-3, 1.0, 1e3][case % 4]
        yield case, X, y, lam, case % 5 < 3


class TestDegenerateDesigns:
    def test_every_fit_meets_the_certificate_and_reruns_bitwise(self):
        for case, X, y, lam, intercept in degenerate_problems():
            model = fit_lasso(X, y, lam=lam, include_intercept=intercept)
            viol = lasso_stationarity_violation(X, y, model.beta, model.intercept,
                                                lam, include_intercept=intercept)
            scale = certificate_scale(X, y, intercept)
            assert viol <= 1e-8 * scale, f"case {case}: violation {viol / scale}"
            again = fit_lasso(X, y, lam=lam, include_intercept=intercept)
            assert model_to_json(again) == model_to_json(model), f"case {case}"


class TestRealBacktestFit:
    def test_first_split_of_cli_panel_meets_certificate_to_rounding(self):
        # the CLI tests' panel: `synth --years 5 --proxies 4 --seed 42`, lags
        # 2..53, every proxy kept; lambda=1 on raw counts is nearly OLS on 52
        # collinear lag columns, the regime that stalled coordinate descent
        flu = gen_flu(SynthConfig(years=5, seed=42))
        proxies = [gen_proxy(flu, ProxyConfig(name=f"proxy_{i + 1:02d}", resource=kind,
                                              lead_weeks=2, gain=0.05, noise_sd=150.0,
                                              seed=derive_seed(42, i + 1)))
                   for i, kind in enumerate(UGC_RESOURCES)]
        panel = align([flu, *proxies])
        selected = {p.resource: [p.name] for p in proxies}
        week = WeekIndex.parse("2017-10-30")
        plan = SplitPlan.of(WeekIndex.parse("2014-10-06"), [(week, week + 1)])
        dataset = build_dataset(panel, selected, LagSpec(min_lag=2, max_lag=53), 2,
                                start=plan.train_start, end=plan.last_week)
        split = next(expanding_splits(dataset, plan))
        x_train = dataset.X[split.train_idx]
        X = standardize_apply(x_train, standardize_fit(x_train))
        y = dataset.y[split.train_idx]
        model = fit_lasso(X, y)
        viol = lasso_stationarity_violation(X, y, model.beta, model.intercept, 1.0)
        assert viol <= 1e-12 * certificate_scale(X, y)


class TestPredictAndSerialize:
    def test_linear_form(self):
        model = LassoModel(beta=np.array([2.0]), intercept=0.0, lam=1.0)
        assert model.predict(np.array([3.0])) == 6.0

    def test_shape_mismatch(self):
        model = LassoModel(beta=np.array([2.0, 1.0]), intercept=0.0, lam=1.0)
        with pytest.raises(ShapeMismatch):
            model.predict(np.array([[1.0, 2.0, 3.0]]))

    def test_json_round_trip_bitwise(self):
        rs = np.random.RandomState(9)
        X = rs.normal(size=(30, 5))
        y = rs.normal(size=30)
        model = fit_lasso(X, y, lam=0.7)
        clone = model_from_json(model_to_json(model))
        assert np.array_equal(clone.beta, model.beta)
        assert clone.intercept == model.intercept and clone.lam == model.lam


def test_no_data():
    with pytest.raises(NoData):
        fit_lasso(np.zeros((0, 3)), np.zeros(0), lam=1.0)


def test_negative_lambda_rejected():
    with pytest.raises(ValueError):
        fit_lasso(np.ones((2, 1)), np.ones(2), lam=-1.0)
