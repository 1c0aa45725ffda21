"""L1-penalized least squares by cyclic coordinate descent.

Objective (intercept unpenalized when present):

    f(beta, c) = ||y - X beta - c||_2^2 + lambda * ||beta||_1

The unpenalized intercept is handled by centering: at any optimum
c = mean(y - X beta), so the solver works on mean-centered X and y and
recovers the intercept afterwards. Updates use the Gram matrix
("covariance" form): the full gradient X'(y - X beta) is maintained
exactly, which makes every coordinate step O(p) and the stationarity
certificate free.

Stopping: the subgradient stationarity conditions within ``tol`` of the
problem scale (the certified exit), or -- on ill-conditioned designs where
coordinate descent creeps along a flat valley -- a stall of the maximum
coordinate update below 1e-12 of the coefficient scale, the conventional
CD fallback. ``stationarity_violation`` reports the certificate either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NoData, NonConvergence
from .linear import linear_predict


def _sweep(gram, grad, beta, col_sq, half_lam):
    """One cyclic pass; returns (max coordinate step, stationarity violation).

    grad is X_c'(y_c - X_c beta), updated exactly via the Gram column after
    each coordinate move, so the violation comes for free.
    """
    p = beta.shape[0]
    max_step = 0.0
    for j in range(p):
        aj = col_sq[j]
        if aj == 0.0:
            continue
        old = beta[j]
        zj = grad[j] + aj * old
        if zj > half_lam:
            new = (zj - half_lam) / aj
        elif zj < -half_lam:
            new = (zj + half_lam) / aj
        else:
            new = 0.0
        if new != old:
            diff = new - old
            for k in range(p):
                grad[k] -= diff * gram[k, j]
            beta[j] = new
            if abs(diff) > max_step:
                max_step = abs(diff)
    viol = 0.0
    lam = 2.0 * half_lam
    for j in range(p):
        gj = 2.0 * grad[j]
        if beta[j] > 0.0:
            v = abs(gj - lam)
        elif beta[j] < 0.0:
            v = abs(gj + lam)
        else:
            v = abs(gj) - lam
            if v < 0.0:
                v = 0.0
        if v > viol:
            viol = v
    return max_step, viol


try:  # hot loop; identical arithmetic with or without the JIT
    from numba import njit

    _sweep = njit(cache=True)(_sweep)
except ImportError:  # pragma: no cover
    pass


@dataclass
class LassoModel:
    beta: np.ndarray
    intercept: float
    lam: float

    def predict(self, X):
        return linear_predict(X, self.beta, self.intercept)


def objective(X: np.ndarray, y: np.ndarray, beta: np.ndarray,
              intercept: float, lam: float) -> float:
    r = y - X @ beta - intercept
    return float(r @ r + lam * np.abs(beta).sum())


def stationarity_violation(X: np.ndarray, y: np.ndarray, beta: np.ndarray,
                           intercept: float, lam: float,
                           include_intercept: bool = True) -> float:
    """Max violation of the subgradient optimality conditions.

    For beta_j != 0:  |2 X_j . r - lam * sign(beta_j)|  must vanish;
    for beta_j == 0:  |2 X_j . r| <= lam;
    for the intercept: 2 * sum(r) must vanish.
    """
    r = y - X @ beta - intercept
    g = 2.0 * (X.T @ r)
    nonzero = beta != 0.0
    viol_nz = np.abs(g[nonzero] - lam * np.sign(beta[nonzero]))
    viol_z = np.maximum(0.0, np.abs(g[~nonzero]) - lam)
    viol = 0.0
    if viol_nz.size:
        viol = max(viol, float(viol_nz.max()))
    if viol_z.size:
        viol = max(viol, float(viol_z.max()))
    if include_intercept:
        viol = max(viol, abs(2.0 * r.sum()))
    return viol


def fit_lasso(X, y, lam: float = 1.0, include_intercept: bool = True,
              tol: float = 1e-8, max_iter: int = 100_000) -> LassoModel:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    n, p = X.shape
    if n == 0:
        raise NoData("fit_lasso needs at least one row")
    if lam < 0:
        raise ValueError("lambda must be non-negative")

    if include_intercept:
        x_mean = X.mean(axis=0)
        y_mean = float(y.mean())
        Xc = X - x_mean
        yc = y - y_mean
    else:
        Xc, yc = X, y

    beta = np.zeros(p)
    if p == 0:
        return LassoModel(beta=beta, intercept=y_mean if include_intercept else 0.0,
                          lam=lam)

    gram = Xc.T @ Xc
    xty = Xc.T @ yc
    col_sq = np.diag(gram).copy()
    grad = xty.copy()  # X_c' (y_c - X_c beta), kept exact by covariance updates

    scale = max(1.0, float(np.abs(2.0 * xty).max()))
    threshold = tol * scale
    half_lam = lam / 2.0

    for _ in range(max_iter):
        max_step, viol = _sweep(gram, grad, beta, col_sq, half_lam)
        if viol <= threshold:
            break
        if max_step <= 1e-12 * max(1.0, float(np.abs(beta).max())):
            break  # flat-valley stall: optimum in objective to working precision
    else:
        raise NonConvergence(f"coordinate descent did not settle in {max_iter} sweeps")

    intercept = y_mean - float(x_mean @ beta) if include_intercept else 0.0
    return LassoModel(beta=beta, intercept=intercept, lam=lam)
