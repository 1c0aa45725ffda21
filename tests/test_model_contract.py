"""One input contract for every fit in ``MODELS``.

Non-finite data, a ``y`` of the wrong length, too few rows and every option
outside its range must raise at once, before a solver step, and print
nothing: a solver fed such input can spin through its whole budget, return
NaN coefficients or end in a LAPACK error with lines on stderr.
"""

import inspect
import time

import numpy as np
import pytest

from flunowcast import models
from flunowcast.errors import NoData
from flunowcast.models import MODELS
from flunowcast.rng import Xorshift64Star

NAN, INF = float("nan"), float("inf")

# kind -> fit keyword -> values outside the keyword's range; a new kind in
# MODELS fails here until its ranges are listed
BAD_OPTIONS = {
    "lasso": {"lam": [NAN, INF, -1.0]},
    "huber": {"delta": [0.0, -1.0, NAN, INF], "sigma": [0.0, -1.0, NAN, INF]},
    "svr": {"c_penalty": [0.0, -1.0, NAN, INF], "epsilon": [-1.0, NAN, INF]},
    "forest": {"n_trees": [0], "min_leaf": [0], "max_features": [0], "max_depth": [-1]},
    "arima": {"order": [(-1, 1, 2), (3, -1, 2), (3, 1, -1)]},
}


def _design(n=60, p=8):
    rng = Xorshift64Star(5)
    X = np.array(rng.normals(n * p)).reshape(n, p)
    return X, X @ np.arange(1.0, p + 1) + np.array(rng.normals(n))


def _with(values, index, value):
    values = values.copy()
    values[index] = value
    return values


def _cases():
    """(kind, label, positional data, fit keywords, expected error)."""
    X, y = _design()
    for kind, entry in MODELS.items():
        fit = getattr(models, entry.fit)
        if next(iter(inspect.signature(fit).parameters)) == "series":
            clean = (np.cumsum(y),)
            bad_data = {"nan_in_series": (_with(clean[0], 7, NAN),),
                        "inf_in_series": (_with(clean[0], -1, INF),)}
        else:
            clean = (X, y)
            bad_data = {"nan_in_X": (_with(X, (3, 2), NAN), y),
                        "inf_in_y": (X, _with(y, 5, INF)),
                        "y_one_row_short": (X, y[:-1])}
            yield kind, "no_rows", (X[:0], y[:0]), {}, NoData
        for label, data in bad_data.items():
            yield kind, label, data, {}, ValueError
        for keyword, values in BAD_OPTIONS[kind].items():
            for value in values:
                yield kind, f"{keyword}={value}", clean, {keyword: value}, ValueError


CASES = list(_cases())


@pytest.mark.parametrize("kind, label, data, options, error", CASES,
                         ids=[f"{kind}-{label}" for kind, label, *_ in CASES])
def test_bad_input_raises_at_once_and_quietly(capfd, kind, label, data, options, error):
    fit = getattr(models, MODELS[kind].fit)
    start = time.perf_counter()
    with pytest.raises(error):
        fit(*data, **options)
    assert time.perf_counter() - start < 1.0
    assert capfd.readouterr().err == ""
