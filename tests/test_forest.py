import dataclasses
import itertools
import random

import numpy as np
import pytest

from flunowcast import parallel
from flunowcast.errors import NoData, ShapeMismatch
from flunowcast.models import ForestModel, fit_forest, model_from_json, model_to_json

from oracles import reference_forest_trees


def seeded_dataset(seed, n=40, p=5):
    rs = np.random.RandomState(seed)
    X = rs.normal(size=(n, p))
    y = X[:, 0] * 3.0 + np.sin(X[:, 1]) + rs.normal(0, 0.2, n)
    return X, y


class TestHandExamples:
    def test_memorization_configuration(self):
        X = np.arange(4, dtype=float)[:, None]
        y = np.arange(4, dtype=float)
        model = fit_forest(X, y, n_trees=1, bootstrap=False, min_leaf=1,
                           max_depth=None, max_features=1, seed=0)
        assert model.predict(X).tolist() == y.tolist()

    def test_constant_targets(self):
        X, _ = seeded_dataset(0)
        y = np.full(X.shape[0], 3.25)
        model = fit_forest(X, y, n_trees=5, seed=1)
        assert np.all(model.predict(X) == 3.25)

    def test_same_seed_bitwise_identical(self):
        X, y = seeded_dataset(1)
        a = fit_forest(X, y, n_trees=12, seed=99).predict(X)
        b = fit_forest(X, y, n_trees=12, seed=99).predict(X)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        X, y = seeded_dataset(1)
        a = fit_forest(X, y, n_trees=12, seed=1).predict(X)
        b = fit_forest(X, y, n_trees=12, seed=2).predict(X)
        assert not np.array_equal(a, b)


class TestInvariants:
    @pytest.mark.parametrize("seed", range(20))
    def test_predictions_bounded_by_training_range(self, seed):
        X, y = seeded_dataset(seed)
        model = fit_forest(X, y, n_trees=10, seed=seed)
        rs = np.random.RandomState(seed + 1000)
        probe = rs.normal(0, 3, size=(30, X.shape[1]))  # well outside train hull
        preds = model.predict(probe)
        assert preds.min() >= y.min() - 1e-12
        assert preds.max() <= y.max() + 1e-12

    def test_tree_order_permutation_invariance(self):
        X, y = seeded_dataset(3)
        model = fit_forest(X, y, n_trees=9, seed=7)
        shuffled = ForestModel(trees=list(reversed(model.trees)),
                               n_trees=model.n_trees, max_depth=model.max_depth,
                               min_leaf=model.min_leaf,
                               max_features=model.max_features,
                               bootstrap=model.bootstrap, seed=model.seed,
                               n_features=model.n_features)
        probe = X[:8]
        assert np.allclose(model.predict(probe), shuffled.predict(probe),
                           rtol=0, atol=1e-12)

    def test_min_leaf_respected(self):
        # without bootstrap, every split keeps >= min_leaf rows per side,
        # so a tree on n=30 with min_leaf=5 has at most floor(30/5) leaves
        X, y = seeded_dataset(4, n=30)
        model = fit_forest(X, y, n_trees=3, min_leaf=5, bootstrap=False, seed=0)

        def count_leaves(node):
            if "value" in node:
                return 1
            return count_leaves(node["left"]) + count_leaves(node["right"])

        assert all(count_leaves(t) <= 6 for t in model.trees)


class TestEdges:
    def test_no_data(self):
        with pytest.raises(NoData):
            fit_forest(np.zeros((0, 2)), np.zeros(0))

    def test_predict_shape_mismatch(self):
        X, y = seeded_dataset(5)
        model = fit_forest(X, y, n_trees=2, seed=0)
        with pytest.raises(ShapeMismatch):
            model.predict(np.ones((2, 9)))

    @pytest.mark.parametrize("option", [
        {"n_trees": 0}, {"n_trees": -3}, {"min_leaf": 0},
        {"max_features": 0}, {"max_depth": -1}])
    def test_bad_option_rejected(self, option):
        X, y = seeded_dataset(5)
        name = next(iter(option))
        with pytest.raises(ValueError, match=name):
            fit_forest(X, y, seed=0, **option)

    def test_none_options_and_depth_zero_accepted(self):
        X, y = seeded_dataset(5)
        model = fit_forest(X, y, n_trees=2, max_depth=0, bootstrap=False,
                           max_features=None, seed=0)
        assert model.trees == [{"value": float(y.mean())}] * 2

    @pytest.mark.parametrize("bad", ["x_nan", "x_inf", "y_nan", "y_ninf"])
    def test_non_finite_input_rejected(self, bad):
        X, y = seeded_dataset(5)
        X, y = X.copy(), y.copy()
        if bad.startswith("x"):
            X[3, 1] = np.nan if bad == "x_nan" else np.inf
        else:
            y[7] = np.nan if bad == "y_nan" else -np.inf
        with pytest.raises(ValueError, match="finite"):
            fit_forest(X, y, n_trees=2, seed=0)

    def test_single_row(self):
        model = fit_forest(np.array([[1.0, 2.0]]), np.array([5.0]),
                           n_trees=3, seed=0)
        assert model.predict(np.array([[0.0, 0.0]])) == 5.0


def test_json_round_trip_bitwise():
    X, y = seeded_dataset(6, n=25)
    model = fit_forest(X, y, n_trees=4, seed=3)
    clone = model_from_json(model_to_json(model))
    probe = X[:10]
    assert np.array_equal(clone.predict(probe), model.predict(probe))


# The lockstep builder against the recursive one, tree for tree: model JSON
# must match byte for byte. Columns cover continuous, integer-valued (value
# ties), duplicated (feature ties) and constant (no split) data; targets
# alternate between continuous and integer-valued (equal-target leaves).
# n = 300 takes the sort keys past uint8.
ORACLE_CONFIGS = list(itertools.product(
    [1, 2, 5],                  # min_leaf
    [None, 0, 2],               # max_depth
    [True, False],              # bootstrap
    ["none", "one", "p", "p+3"],  # max_features
    [1, 7]))                    # n_trees


def oracle_dataset(n, p, seed):
    rs = np.random.RandomState(seed)
    base = rs.normal(size=n)
    kinds = {
        "normal": base,
        "integer": rs.randint(0, 4, size=n).astype(float),
        "duplicate": base,
        "constant": np.full(n, 1.5),
        "other": rs.normal(size=n),
    }
    names = list(kinds) if p == 5 else [["normal", "integer", "constant"][seed % 3]]
    X = np.column_stack([kinds[name] for name in names])
    if seed % 2:
        y = rs.randint(0, 3, size=n).astype(float)
    else:
        y = 2.0 * X[:, 0] + rs.normal(0, 0.5, n)
    return X, y


def oracle_cases():
    rng = random.Random(20261018)
    for n, p in itertools.product([1, 2, 3, 7, 40, 300], [1, 5]):
        for config in rng.sample(ORACLE_CONFIGS, 24):
            yield (n, p) + config


ORACLE_CASES = list(oracle_cases())


def test_oracle_grid_covers_every_option_value():
    for position, values in enumerate(zip(*ORACLE_CONFIGS)):
        assert set(values) == {case[position + 2] for case in ORACLE_CASES}


@pytest.mark.parametrize("n,p", list(itertools.product([1, 2, 3, 7, 40, 300], [1, 5])))
def test_lockstep_trees_match_recursive_oracle(n, p):
    for seed, (_, _, min_leaf, max_depth, bootstrap, features, n_trees) in enumerate(
            case for case in ORACLE_CASES if case[:2] == (n, p)):
        X, y = oracle_dataset(n, p, seed)
        max_features = {"none": None, "one": 1, "p": p, "p+3": p + 3}[features]
        model = fit_forest(X, y, n_trees=n_trees, max_depth=max_depth,
                           min_leaf=min_leaf, bootstrap=bootstrap,
                           max_features=max_features, seed=seed)
        trees = reference_forest_trees(X, y, n_trees, max_depth, min_leaf, bootstrap,
                                       model.max_features, seed)
        assert model_to_json(model) == model_to_json(dataclasses.replace(model, trees=trees)), \
            (n, p, min_leaf, max_depth, bootstrap, features, n_trees, seed)


# The oracle grid stops at 7 trees. A fit of many grows them all in one
# lockstep in the calling process, whatever the CPU count.

@pytest.mark.parametrize("bootstrap", [True, False])
def test_fits_of_many_trees_match_oracle(monkeypatch, fork_log, bootstrap):
    X, y = seeded_dataset(21, n=30, p=4)
    monkeypatch.setattr(parallel, "cpus", lambda: 4)
    for n_trees in (1, 2, 61, 100):
        model = fit_forest(X, y, n_trees=n_trees, bootstrap=bootstrap, seed=5)
        trees = reference_forest_trees(X, y, n_trees, None, 2, bootstrap,
                                       model.max_features, 5)
        assert model_to_json(model) == model_to_json(dataclasses.replace(model, trees=trees)), \
            n_trees
    assert fork_log.read_bytes() == b""
