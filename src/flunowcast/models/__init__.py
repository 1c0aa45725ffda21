"""The five predictors and their shared serialization.

Fitted models are plain dataclasses, immutable in practice and safe for
concurrent prediction. ``model_to_json``/``model_from_json`` round-trip
every coefficient bitwise (Python's shortest-round-trip decimal floats).
"""

from __future__ import annotations

import dataclasses
import json
import typing

import numpy as np

from .arima import ArimaModel, fit_arima, forecast_arima, css_innovations
from .forest import ForestModel, fit_forest
from .huber import HuberModel, fit_huber
from .huber import loss as huber_loss
from .huber import loss_gradient as huber_loss_gradient
from .lasso import LassoModel, fit_lasso
from .lasso import objective as lasso_objective
from .lasso import stationarity_violation as lasso_stationarity_violation
from .svr import SvrModel, dual_objective, fit_svr_linear, primal_objective

__all__ = [
    "ArimaModel", "ForestModel", "HuberModel", "LassoModel", "SvrModel",
    "fit_arima", "fit_forest", "fit_huber", "fit_lasso", "fit_svr_linear",
    "forecast_arima", "css_innovations",
    "huber_loss", "huber_loss_gradient",
    "lasso_objective", "lasso_stationarity_violation",
    "dual_objective", "primal_objective",
    "ModelEntry", "MODELS", "MODEL_CLASSES", "model_to_json", "model_from_json",
]


class ModelEntry(typing.NamedTuple):
    fit: str                 # name of the fit function in this package
    options: dict[str, str]  # run-config option -> the fit keyword it sets
    seeded: bool = False     # the fit takes a per-split ``seed``
    features: bool = True    # the fit reads the feature rows (X, y), not the flu history


# The model kinds, in report order. Option defaults live in the fit
# signatures. Callers look fits up by name when they run, so a function
# swapped into the caller's namespace takes effect.
MODELS = {
    "lasso": ModelEntry("fit_lasso", {"lambda": "lam", "intercept": "include_intercept"}),
    "huber": ModelEntry("fit_huber", {"delta": "delta", "sigma": "sigma",
                                      "intercept": "include_intercept"}),
    "svr": ModelEntry("fit_svr_linear", {"c": "c_penalty", "epsilon": "epsilon"}),
    "forest": ModelEntry("fit_forest", {"n_trees": "n_trees", "max_depth": "max_depth",
                                        "min_leaf": "min_leaf", "bootstrap": "bootstrap",
                                        "max_features": "max_features"},
                         seeded=True),
    "arima": ModelEntry("fit_arima", {"order": "order"}, features=False),
}

# kind -> fitted-model class, the return type of the kind's fit; the JSON
# codec and the "kind" tag come from here
MODEL_CLASSES = {kind: typing.get_type_hints(globals()[entry.fit])["return"]
                 for kind, entry in MODELS.items()}

_JSON_KEYS = {"lam": "lambda"}  # field -> JSON key, where the two differ


def _floats(arr) -> list[float]:
    return [float(v) for v in np.asarray(arr, dtype=float)]


# field type -> (to JSON, from JSON); fields of other types pass through
_CODECS = {
    np.ndarray: (_floats, np.array),
    tuple[int, int, int]: (list, tuple),
}
_PLAIN = (lambda value: value,) * 2

# kind -> [(field name, JSON key, (encode, decode))]
_FIELDS = {kind: [(f.name, _JSON_KEYS.get(f.name, f.name),
                   _CODECS.get(typing.get_type_hints(cls)[f.name], _PLAIN))
                  for f in dataclasses.fields(cls)]
           for kind, cls in MODEL_CLASSES.items()}


def model_to_json(model) -> str:
    kind = next((k for k, cls in MODEL_CLASSES.items() if isinstance(model, cls)), None)
    if kind is None:
        raise TypeError(f"not a serializable model: {type(model).__name__}")
    payload = {key: encode(getattr(model, name))
               for name, key, (encode, _) in _FIELDS[kind]}
    return json.dumps({"kind": kind, **payload}, sort_keys=True)


def model_from_json(text: str):
    data = json.loads(text)
    kind = data["kind"]
    if kind not in MODEL_CLASSES:
        raise ValueError(f"unknown model kind {kind!r}")
    return MODEL_CLASSES[kind](**{name: decode(data[key])
                                  for name, key, (_, decode) in _FIELDS[kind]})
