"""L1-penalized least squares by an exact active-set (feature-sign) search.

Objective (intercept unpenalized when present):

    f(beta, c) = ||y - X beta - c||_2^2 + lambda * ||beta||_1

The unpenalized intercept is handled by centering: at any optimum
c = mean(y - X beta), so the solver works on mean-centered X and y and
recovers the intercept afterwards.

The search (Lee, Battle, Raina & Ng, NIPS 2007; Osborne, Presnell &
Turlach, IMA J. Numer. Anal. 2000) keeps the nonzero coefficients A and
their signs s. Once A meets its optimality conditions, the zero coefficient
with the largest gradient joins A with that gradient's sign. Each step
solves G_AA b = X_A'y - (lambda/2) s by least squares, so a singular G_AA
(n < p, duplicated columns) still gives a step, and moves to the point of
lowest true objective among the full step and the zero crossings on the
way; coefficients that reach zero leave A. When the right side lies
outside the range of G_AA, the residual of that solve is a null direction
along which the objective falls, and its zero crossings are candidates too.

The only exit is the certificate: every subgradient optimality condition
holds within ``TOL`` of the problem scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NonConvergence
from .linear import fit_data, linear_predict

TOL = 1e-8          # certificate: stationarity violation over the problem scale
MAX_ITER = 100_000  # active-set steps


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
    viol = float(_violations(2.0 * (X.T @ r), beta, lam).max(initial=0.0))
    if include_intercept:
        viol = max(viol, abs(2.0 * r.sum()))
    return viol


def _violations(g, beta, lam):
    """Per-coefficient violation of the optimality conditions, g = 2 X'r."""
    return np.where(beta != 0.0, np.abs(g - lam * np.sign(beta)),
                    np.maximum(0.0, np.abs(g) - lam))


def _line_search(gram, g, b, d, t_max, lam):
    """Lowest objective on b + t d over the zero crossings in 0 < t < t_max
    and t_max itself when finite; returns (objective change, point).

    g is X'r at b, so the squared loss changes by t^2 d'Gd - 2t g'd.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = -b / d
    t = cross[(cross > 0.0) & (cross < t_max)]
    if t_max < np.inf:
        t = np.append(t, t_max)
    if t.size == 0:
        return np.inf, b
    points = b + t[:, None] * d
    points[cross == t[:, None]] = 0.0  # crossing coefficients leave exactly
    change = (t * t * (d @ gram @ d) - 2.0 * t * (g @ d)
              + lam * (np.abs(points).sum(axis=1) - np.abs(b).sum()))
    k = int(np.argmin(change))
    return change[k], points[k]


def fit_lasso(X, y, lam: float = 1.0, include_intercept: bool = True) -> LassoModel:
    """Exact LASSO fit.

    Returns once the stationarity violation on the centered problem is at
    most ``TOL * max(1, 2 max|X_c'y_c|)``; raises ``NonConvergence`` when
    ``MAX_ITER`` active-set steps do not get there. Needs a finite ``lam`` >= 0
    and 1+ rows that ``fit_data`` takes.
    """
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError(f"lambda must be finite and non-negative, got {lam}")
    X, y = fit_data(X, y, "fit_lasso", 1)

    if include_intercept:
        x_mean = X.mean(axis=0)
        y_mean = float(y.mean())
        Xc = X - x_mean
        yc = y - y_mean
    else:
        Xc, yc = X, y

    beta = np.zeros(X.shape[1])
    if beta.size == 0:
        return LassoModel(beta=beta, intercept=y_mean if include_intercept else 0.0,
                          lam=lam)

    gram = Xc.T @ Xc
    threshold = TOL * max(1.0, float(np.abs(2.0 * (Xc.T @ yc)).max()))

    for _ in range(MAX_ITER):
        g = Xc.T @ (yc - Xc @ beta)
        viol = _violations(2.0 * g, beta, lam)
        if viol.max() <= threshold:
            break
        signs = np.sign(beta)
        if viol[beta != 0.0].max(initial=0.0) <= threshold:  # grow the active set
            j = int(np.argmax(np.where(beta == 0.0, np.abs(g), -1.0)))
            signs[j] = np.sign(g[j])
        active = np.flatnonzero(signs)
        gram_a = gram[np.ix_(active, active)]
        rhs = g[active] - 0.5 * lam * signs[active]
        step = np.linalg.lstsq(gram_a, rhs, rcond=None)[0]
        moves = [_line_search(gram_a, g[active], beta[active], d, t_max, lam)
                 for d, t_max in ((step, 1.0), (rhs - gram_a @ step, np.inf))]
        beta[active] = min(moves, key=lambda move: move[0])[1]
    else:
        raise NonConvergence(f"active-set search did not certify in {MAX_ITER} steps")

    intercept = y_mean - float(x_mean @ beta) if include_intercept else 0.0
    return LassoModel(beta=beta, intercept=intercept, lam=lam)
