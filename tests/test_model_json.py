"""Golden bytes of the model JSON codec.

The digests pin ``model_to_json`` for fixed-seed fits of every model kind,
so a change to the codec or to a model's fields that alters a single byte
fails here. Inputs come from the package's own Xorshift64* stream, which
does not depend on the numpy version; the fits themselves run on this
numpy/LAPACK build.
"""

import hashlib
import json

import numpy as np
import pytest

from flunowcast.models import (
    fit_arima,
    fit_forest,
    fit_huber,
    fit_lasso,
    fit_svr_linear,
    model_from_json,
    model_to_json,
)
from flunowcast.rng import Xorshift64Star


def regression_problem(seed=11, n=40, p=4):
    rng = Xorshift64Star(seed)
    X = np.array(rng.normals(n * p)).reshape(n, p)
    y = X @ np.array([1.5, -2.0, 0.0, 0.5]) + np.array(rng.normals(n, sd=0.3))
    return X, y


def tie_problem(seed=13, n=30):
    """Integer X with a duplicated column and integer y: SSE ties across
    features and across thresholds."""
    rng = Xorshift64Star(seed)
    X = np.array([rng.randint(4) for _ in range(n * 3)], dtype=float).reshape(n, 3)
    X = np.column_stack([X, X[:, 1]])
    y = np.array([rng.randint(3) for _ in range(n)], dtype=float)
    return X, y


def ar_series(n=120, seed=5):
    rng = Xorshift64Star(seed)
    z = [0.0]
    for _ in range(n - 1):
        z.append(0.6 * z[-1] + rng.normal())
    return np.array(z) + 10.0


def fitted(kind):
    X, y = regression_problem()
    if kind == "lasso":
        return fit_lasso(X, y, lam=0.7)
    if kind == "huber":
        return fit_huber(X, y)
    if kind == "svr":
        return fit_svr_linear(X, y, c_penalty=2.0, epsilon=0.1)
    if kind == "svr_at_c":
        return fit_svr_linear(X, y, c_penalty=0.05, epsilon=0.1)
    if kind == "svr_wide_tube":
        return fit_svr_linear(X, y, c_penalty=2.0, epsilon=2.0)
    if kind == "forest":
        return fit_forest(X, y, n_trees=3, seed=4)
    if kind == "forest_ties":
        X, y = tie_problem()
        return fit_forest(X, y, n_trees=3, min_leaf=1, bootstrap=False,
                          max_features=X.shape[1], seed=6)
    if kind == "forest_shallow":
        return fit_forest(X, y, n_trees=3, max_depth=2, max_features=1,
                          min_leaf=5, seed=8)
    if kind == "arima_211":
        return fit_arima(np.cumsum(ar_series()), order=(2, 1, 1))
    if kind == "arima_100":
        return fit_arima(ar_series(), order=(1, 0, 0))
    raise ValueError(kind)


GOLDEN = {
    "lasso":
        "99d07e839e2fc7badcbb8aca98b9dfb245e02a6e0fad2c50856aeb996d49a68d",
    # the scale is a certified MAD root, no longer the end of an alternation:
    # sigma moved by 4.0e-8 and the predictions by at most 2.3e-8 (relative)
    "huber":
        "4e89dd1b744f43b215a42940094ceab35e85932ca649c3f2d916c6a7ede06eb0",
    "svr":
        "bf8afa5eb252a0ec0c905e0840d7031dc62f8f1584498927194a50c861cd239c",
    # 34 of 40 multipliers end at C, and 3 are free
    "svr_at_c":
        "1c022c3b55ada40a5ad3c35b61bbc2a7a2d85604bd87ed665a67361e4267c6e0",
    # a tube 2 wide leaves 4 multipliers off 0, none at C
    "svr_wide_tube":
        "c7631f7b0f55a54fd457973e5429e97e2f03d89c97c1b38cbe45e47995aa9c82",
    # trees grow one level at a time on their bootstrap counts, and a tree's
    # i-th searching node in level order takes its i-th feature subset:
    # "forest" keeps its roots, and its other subsets land on other nodes
    # (85 -> 87 nodes, predictions on X moved by up to 1.45); "forest_shallow"
    # keeps every split, and its predictions moved by at most 4.4e-16 (the
    # weighted sums round apart); "forest_ties" has no bootstrap and takes
    # every column at every node, so it holds
    "forest":
        "f7226f1210147ab933984b406f24d3e00b7cfa3be351ab085e55bddf07b8d9cd",
    "forest_ties":
        "71f9ea518874b5f4473b7fee5f983649dd670a8aab70218169b7b4357ecb8fab",
    "forest_shallow":
        "55004d7754d7801b8027ee010cc849698432d9009d0e59f2506833dbee7eb3dd",
    # the MA filter runs in Python floats, which round each product where
    # the BLAS band solve it replaced fused them: the coefficients moved by
    # at most 8.4e-14
    "arima_211":
        "a02bfb2b2ea0ab9e30f24fbc5a5226818e92f8cd1a84d55674243a112921a671",
    "arima_100":
        "264e2451b60258357b4594995e0d749b1a32214299d80739d23756048fb17ad0",
}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_model_json_bytes_are_pinned(kind):
    text = model_to_json(fitted(kind))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN[kind]


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_json_round_trip_reproduces_text(kind):
    text = model_to_json(fitted(kind))
    assert model_to_json(model_from_json(text)) == text


def test_forest_json_with_the_dropped_range_fields_still_loads():
    # forest JSON used to carry the training target's range as well; the
    # codec reads only the model's own fields, so such a text still loads
    text = model_to_json(fitted("forest"))
    older = json.loads(text)
    older.update(train_y_min=-6.270488572016403, train_y_max=6.7833035633679755)
    assert model_to_json(model_from_json(json.dumps(older, sort_keys=True))) == text
