import numpy as np
import pytest

from flunowcast import parallel
from flunowcast.errors import NoData, ShapeMismatch
from flunowcast.models import (
    dual_objective,
    fit_svr_linear,
    model_from_json,
    model_to_json,
    primal_objective,
)

from flunowcast.models.svr import _recover_bias

from oracles import svr_exact_dual, svr_recover_bias_loop


def random_problem(seed, n=15, p=2):
    rs = np.random.RandomState(seed)
    X = rs.normal(size=(n, p))
    y = X @ rs.normal(size=p) + rs.normal(0, 0.3, n)
    return X, y


class TestHandExamples:
    def test_constant_targets_zero_weight_optimum(self):
        X = np.arange(5, dtype=float)[:, None]
        y = np.full(5, 5.0)
        model = fit_svr_linear(X, y, c_penalty=1.0, epsilon=1.0)
        assert np.abs(model.predict(X) - y).max() <= 1.0 + 1e-9
        assert abs(model.weights[0]) < 1e-9
        assert model.bias == pytest.approx(5.0, abs=1e-6)

    def test_line_fit_feasibility(self):
        X = np.arange(10, dtype=float)[:, None]
        y = 2.0 * X.ravel() + 1.0
        model = fit_svr_linear(X, y, c_penalty=10.0, epsilon=0.5)
        assert np.abs(model.predict(X) - y).max() <= 0.5 + 1e-3

    def test_complementarity_by_construction(self):
        X, y = random_problem(0)
        model = fit_svr_linear(X, y, c_penalty=2.0, epsilon=0.1)
        assert float(np.max(model.alphas * model.alpha_stars)) <= 1e-6


class TestOptimality:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_duality_gap_small(self, seed):
        X, y = random_problem(seed)
        model = fit_svr_linear(X, y, c_penalty=1.0, epsilon=0.1)
        p_obj = primal_objective(model, X, y)
        d_obj = dual_objective(model, X, y)
        assert d_obj <= p_obj + 1e-9  # weak duality
        assert p_obj - d_obj < 1e-3 * max(abs(p_obj), 1e-12)

    def test_dual_matches_the_exact_optimum(self):
        X, y = random_problem(7, n=12)
        model = fit_svr_linear(X, y, c_penalty=1.0, epsilon=0.2)
        optimum = svr_exact_dual(X, y, c_penalty=1.0, epsilon=0.2)
        value = dual_objective(model, X, y)
        assert value >= optimum - 1e-6
        # no feasible point beats the optimum, beyond the rounding of a value
        assert value <= optimum + 1e-12 * max(1.0, abs(optimum))

    def test_dual_feasibility(self):
        X, y = random_problem(10)
        c = 1.5
        model = fit_svr_linear(X, y, c_penalty=c, epsilon=0.1)
        for arr in (model.alphas, model.alpha_stars):
            assert float(arr.min()) >= -1e-12
            assert float(arr.max()) <= c + 1e-12
        assert abs(float((model.alphas - model.alpha_stars).sum())) < 1e-9

    def test_weights_are_dual_combination(self):
        X, y = random_problem(11)
        model = fit_svr_linear(X, y)
        theta = model.alphas - model.alpha_stars
        assert np.abs(model.weights - X.T @ theta).max() < 1e-12


class TestDuplicateRows:
    """Duplicated rows make pairs whose kernel curvature eta is exactly 0;
    SMO then steps to the nearer cap instead of the Newton step."""

    def test_constant_feature(self):
        # every pair has eta = 0; the optimum is w = 0 and b = the median
        X = np.ones((5, 1))
        y = np.arange(5.0)
        model = fit_svr_linear(X, y, c_penalty=1.0, epsilon=0.1)
        assert model.weights[0] == 0.0
        assert model.bias == pytest.approx(2.0, abs=1e-12)
        assert primal_objective(model, X, y) == pytest.approx(5.6, abs=1e-12)
        assert dual_objective(model, X, y) == pytest.approx(5.6, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 3, 5])
    def test_duality_gap_and_complementarity(self, seed):
        # three distinct rows, four copies each; every seed here takes at
        # least one eta = 0 step
        rs = np.random.RandomState(seed)
        X = np.repeat(rs.normal(size=(3, 2)), 4, axis=0)
        y = X @ rs.normal(size=2) + rs.normal(0, 1.0, 12)
        for epsilon in (0.0, 0.1):
            model = fit_svr_linear(X, y, c_penalty=1.0, epsilon=epsilon)
            p_obj = primal_objective(model, X, y)
            d_obj = dual_objective(model, X, y)
            assert d_obj <= p_obj + 1e-9
            assert p_obj - d_obj < 1e-3 * max(abs(p_obj), 1e-12)
            assert float(np.max(model.alphas * model.alpha_stars)) <= 1e-6


def bias_case(kind, seed, n=40, c=2.0):
    """Margins spread over six decades and multipliers that reach one branch
    of the bias."""
    rs = np.random.RandomState(seed)
    wx, y = rs.normal(0, 3, (2, n)) * 10.0 ** rs.uniform(-3, 3, (2, n))
    zeros, at_c = np.zeros(n), np.full(n, c)
    if kind == "interior":  # zeros and interior values, on both sides of a point too
        alpha, alpha_star = rs.uniform(0.0, c, (2, n)) * rs.randint(0, 2, (2, n))
    elif kind == "bounds":  # 0 or C on one side, 0 on the other; some right at the slack
        slack = 1e-9 * c
        side = rs.choice([0.0, slack, c - slack, c], n)
        on_alpha = rs.randint(0, 2, n).astype(bool)
        alpha, alpha_star = np.where(on_alpha, side, 0.0), np.where(on_alpha, 0.0, side)
    elif kind == "zero":
        alpha, alpha_star = zeros, zeros
    elif kind == "lower_only":  # alpha at 0, alpha* at C: every side bounds b from below
        alpha, alpha_star = zeros, at_c
    else:  # "upper_only": alpha at C, alpha* at 0: every side bounds b from above
        alpha, alpha_star = at_c, zeros
    return wx, y, alpha, alpha_star, c


class TestRecoverBias:
    """The masked KKT bias equals the per-point loop bit for bit."""

    @pytest.mark.parametrize("kind", ["interior", "bounds", "zero", "lower_only", "upper_only"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("epsilon", [0.0, 0.25])
    def test_matches_loop(self, kind, seed, epsilon):
        wx, y, alpha, alpha_star, c = bias_case(kind, seed)
        got = _recover_bias(wx, y, alpha, alpha_star, c, epsilon)
        want = svr_recover_bias_loop(wx, y, alpha, alpha_star, c, epsilon)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("c", [0.05, 1.0, 100.0])
    def test_matches_loop_on_fits(self, c):
        for seed in range(5):
            X, y = random_problem(seed)
            for epsilon in (0.0, 0.1):
                model = fit_svr_linear(X, y, c_penalty=c, epsilon=epsilon)
                want = svr_recover_bias_loop(X @ model.weights, y, model.alphas,
                                             model.alpha_stars, c, epsilon)
                assert np.float64(model.bias).tobytes() == np.float64(want).tobytes()


class TestEdges:
    def test_no_data(self):
        with pytest.raises(NoData):
            fit_svr_linear(np.zeros((0, 2)), np.zeros(0))

    def test_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            fit_svr_linear(np.ones((2, 1)), np.ones(2), c_penalty=0.0)
        with pytest.raises(ValueError):
            fit_svr_linear(np.ones((2, 1)), np.ones(2), epsilon=-0.5)

    def test_predict_shape_mismatch(self):
        X, y = random_problem(12)
        model = fit_svr_linear(X, y)
        with pytest.raises(ShapeMismatch):
            model.predict(np.ones((3, 5)))

    def test_epsilon_zero_still_complementary(self):
        X, y = random_problem(13, n=10)
        model = fit_svr_linear(X, y, c_penalty=1.0, epsilon=0.0)
        assert np.all((model.alphas == 0.0) | (model.alpha_stars == 0.0))


def test_json_round_trip_bitwise():
    X, y = random_problem(14)
    model = fit_svr_linear(X, y)
    clone = model_from_json(model_to_json(model))
    assert np.array_equal(clone.weights, model.weights)
    assert clone.bias == model.bias
    assert np.array_equal(clone.alphas, model.alphas)
    assert np.array_equal(clone.alpha_stars, model.alpha_stars)


BLAS = parallel._openblas_threads()


@pytest.mark.skipif(BLAS is None, reason="numpy links no OpenBLAS")
def test_fit_bytes_do_not_depend_on_the_blas_pool():
    # OpenBLAS rounds X @ X.T of these shapes differently on one thread and
    # on two, and these fits carry that into their bytes unless the fit forms
    # its Gram matrix on one thread under any pool
    get, put = BLAS
    problems = []
    for seed, n in enumerate((150, 161, 190)):
        rs = np.random.RandomState(seed)
        problems.append((rs.normal(size=(n, 56)), 100.0 * rs.normal(size=n)))
    before = get()
    fits = []
    try:
        for threads in (1, 2):
            put(threads)
            fits.append([model_to_json(fit_svr_linear(X, y)) for X, y in problems])
            assert get() == threads
    finally:
        put(before)
    assert fits[0] == fits[1]
