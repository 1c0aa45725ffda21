"""The one door for a feature model's data, and the linear models' predict.

``fit_data`` gives a fit a 2-D float X (a 1-D X is one column) and one finite y
per row of a finite X, else raises ``NoData`` (too few rows) or ``ValueError``.
``predict_rows`` checks every predict's rows. Linear models: coef . x + offset.
"""

from __future__ import annotations

import numpy as np

from ..errors import NoData, ShapeMismatch


def fit_data(X, y, fit: str, min_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """``X`` as a 2-D float array and ``y`` as one finite float per row."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim == 2 and X.shape[0] < min_rows:
        raise NoData(f"{fit} needs at least "
                     + ("one row" if min_rows == 1 else f"{min_rows} rows"))
    if X.ndim != 2 or y.shape != X.shape[:1]:
        raise ValueError(f"{fit} needs a 2-D X and one y per row, got {X.shape}, {y.shape}")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError(f"{fit} needs finite X and y")
    return X, y


def predict_rows(X, n_features: int) -> tuple[np.ndarray, bool]:
    """``X`` as a 2-D batch of ``n_features`` columns, and whether it was one row."""
    X = np.asarray(X, dtype=float)
    one_row = X.ndim == 1
    X = np.atleast_2d(X)
    if X.shape[1] != n_features:
        raise ShapeMismatch(f"model has {n_features} features, X has {X.shape[1]}")
    return X, one_row


def linear_predict(X, coef: np.ndarray, offset: float):
    """One float for a single row, an array for a 2-D batch."""
    X, one_row = predict_rows(X, coef.size)
    out = X @ coef + offset
    return float(out[0]) if one_row else out
