"""Prediction shared by the linear models: f(x) = coef . x + offset."""

from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatch


def linear_predict(X, coef: np.ndarray, offset: float):
    """One float for a single row, an array for a 2-D batch."""
    X = np.asarray(X, dtype=float)
    one_row = X.ndim == 1
    if one_row:
        X = X[None, :]
    if X.shape[1] != coef.size:
        raise ShapeMismatch(f"model has {coef.size} features, X has {X.shape[1]}")
    out = X @ coef + offset
    return float(out[0]) if one_row else out
