"""Epsilon-insensitive support vector regression, linear kernel.

Solves the standard dual in one multiplier per point, theta = a - a*:

    min  1/2 theta^T K theta + eps * sum |theta| - y^T theta
    s.t. sum(theta) = 0,   -C <= theta_i <= C

by sequential minimal optimization on the maximal violating pair (Flake &
Lawrence, Machine Learning 46, 2002). The loop has two exits: the pair's
gain reaches -TOL (certified), or MAX_ITER pair updates pass
(``NonConvergence``). Every step it takes is positive, so it needs no other.
A step stops where theta_i reaches 0, so the model's a_i = max(theta_i, 0)
and a*_i = max(-theta_i, 0) are complementary by construction. With the
linear kernel the weight vector collapses to w = sum_i theta_i x_i and
predictions are f(x) = w.x + b; the bias is recovered from the KKT interval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import parallel
from ..errors import NonConvergence
from .linear import fit_data, linear_predict

TOL = 1e-6            # worst KKT pair violation at exit
MAX_ITER = 1_000_000  # SMO pair updates


@dataclass
class SvrModel:
    weights: np.ndarray
    bias: float
    c_penalty: float
    epsilon: float
    alphas: np.ndarray
    alpha_stars: np.ndarray

    def predict(self, X):
        return linear_predict(X, self.weights, self.bias)


def primal_objective(model: SvrModel, X, y) -> float:
    """1/2 ||w||^2 + C * sum of epsilon-insensitive slacks."""
    X, y = fit_data(X, y, "primal_objective", 0)
    f = X @ model.weights + model.bias
    slack = np.maximum(0.0, np.abs(y - f) - model.epsilon)
    return float(0.5 * model.weights @ model.weights + model.c_penalty * slack.sum())


def dual_objective(model: SvrModel, X, y) -> float:
    """Value of the maximized dual at the stored multipliers."""
    X, y = fit_data(X, y, "dual_objective", 0)
    theta = model.alphas - model.alpha_stars
    w = X.T @ theta
    return float(-0.5 * w @ w - model.epsilon * (model.alphas + model.alpha_stars).sum()
                 + y @ theta)


def fit_svr_linear(X, y, c_penalty: float = 1.0, epsilon: float = 0.1) -> SvrModel:
    """SMO on the dual; ``TOL`` bounds the worst KKT pair violation. Needs finite
    ``c_penalty`` > 0, finite ``epsilon`` >= 0, and 1+ rows that ``fit_data`` takes."""
    if not (np.isfinite(c_penalty) and c_penalty > 0 and np.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"need finite C > 0 and epsilon >= 0, got {c_penalty=}, {epsilon=}")
    X, y = fit_data(X, y, "fit_svr_linear", 1)
    n = X.shape[0]

    with parallel.one_blas_thread():  # the same Gram bytes under any BLAS pool
        K = X @ X.T
    diag = np.diag(K).copy()
    theta = np.zeros(n)  # alpha - alpha*; a point never holds both
    s = np.zeros(n)  # K @ theta, maintained incrementally

    # Per-unit objective change of raising theta_i ("up") and of lowering
    # theta_j ("down"); a step pairs one of each, so sum(theta) stays 0. A
    # move takes the slope of the side of 0 that it moves into.
    for _ in range(MAX_ITER):
        g_inc_a = s + epsilon - y          # d/d theta_i on the side theta_i > 0
        g_dec_as = s - epsilon - y         # d/d theta_i on the side theta_i < 0
        up = np.where(theta < c_penalty, np.where(theta < 0.0, g_dec_as, g_inc_a), np.inf)
        down = np.where(theta > -c_penalty, np.where(theta > 0.0, -g_inc_a, -g_dec_as), np.inf)

        i = int(np.argmin(up))
        j = int(np.argmin(down))
        gain = up[i] + down[j]
        if gain >= -TOL:  # i == j always lands here: up[i] + down[i] >= 0
            break

        # Each move stops at 0 or at the far bound, so theta never crosses 0
        # in one step and each cap is positive.
        cap_i = -theta[i] if theta[i] < 0.0 else c_penalty - theta[i]
        cap_j = theta[j] if theta[j] > 0.0 else c_penalty + theta[j]
        eta = diag[i] + diag[j] - 2.0 * K[i, j]
        t = min(cap_i, cap_j) if eta <= 1e-300 else min(-gain / eta, cap_i, cap_j)
        theta[i] += t
        theta[j] -= t
        s += t * (K[:, i] - K[:, j])
    else:
        raise NonConvergence(f"SMO did not converge within {MAX_ITER} pair updates")

    alpha = np.where(theta > 0.0, theta, 0.0)
    alpha_star = np.where(theta < 0.0, -theta, 0.0)
    w = X.T @ theta
    bias = _recover_bias(X @ w, y, alpha, alpha_star, c_penalty, epsilon)
    return SvrModel(weights=w, bias=bias, c_penalty=c_penalty, epsilon=epsilon,
                    alphas=alpha, alpha_stars=alpha_star)


def _recover_bias(wx: np.ndarray, y: np.ndarray, alpha: np.ndarray,
                  alpha_star: np.ndarray, c: float, epsilon: float) -> float:
    """KKT bias: average over interior points, else feasible-interval midpoint.

    Column 0 of the (n x 2) arrays is each point's alpha side, column 1 its
    alpha* side. A side at 0 bounds b from below on the alpha side and from
    above on the alpha* side; a side at C does the reverse. Every point has
    a side at 0, since a fit holds at most one multiplier per point, so at
    least one bound is finite.
    """
    bound_slack = 1e-9 * max(1.0, c)
    margin = y - wx
    b = np.column_stack([margin - epsilon, margin + epsilon])
    sides = np.column_stack([alpha, alpha_star])
    free = sides > bound_slack
    interior = free & (sides < c - bound_slack)
    if interior.any():
        return float(np.mean(b[interior]))
    at_c = free & ~interior
    alpha_side = np.array([True, False])
    lo = float(b[np.where(alpha_side, ~free, at_c)].max(initial=-np.inf))
    hi = float(b[np.where(alpha_side, at_c, ~free)].min(initial=np.inf))
    if not np.isfinite(hi):
        return lo
    if not np.isfinite(lo):
        return hi
    return (lo + hi) / 2.0
