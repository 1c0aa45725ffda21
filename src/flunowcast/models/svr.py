"""Epsilon-insensitive support vector regression, linear kernel.

Solves the standard dual

    min  1/2 (a - a*)^T K (a - a*) + eps * sum(a + a*) - y^T (a - a*)
    s.t. sum(a - a*) = 0,   0 <= a_i, a*_i <= C

by sequential minimal optimization on the maximal violating pair. With the
linear kernel the weight vector collapses to w = sum_i (a_i - a*_i) x_i and
predictions are f(x) = w.x + b. Complementarity a_i * a*_i = 0 is restored
exactly after convergence (subtracting min(a_i, a*_i) from both never
increases the objective), and the bias is recovered from the KKT interval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NoData, NonConvergence
from .linear import linear_predict

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
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    f = X @ model.weights + model.bias
    slack = np.maximum(0.0, np.abs(y - f) - model.epsilon)
    return float(0.5 * model.weights @ model.weights + model.c_penalty * slack.sum())


def dual_objective(model: SvrModel, X, y) -> float:
    """Value of the maximized dual at the stored multipliers."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    theta = model.alphas - model.alpha_stars
    w = X.T @ theta
    return float(-0.5 * w @ w - model.epsilon * (model.alphas + model.alpha_stars).sum()
                 + y @ theta)


def fit_svr_linear(X, y, c_penalty: float = 1.0, epsilon: float = 0.1) -> SvrModel:
    """SMO on the dual; ``TOL`` bounds the worst KKT pair violation."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    n = X.shape[0]
    if n == 0:
        raise NoData("fit_svr_linear needs at least one row")
    if c_penalty <= 0 or epsilon < 0:
        raise ValueError("need C > 0 and epsilon >= 0")

    K = X @ X.T
    diag = np.diag(K).copy()
    alpha = np.zeros(n)
    alpha_star = np.zeros(n)
    s = np.zeros(n)  # K @ (alpha - alpha_star), maintained incrementally

    # Per-unit objective change of the four admissible moves. "up" moves
    # raise sum(theta) by 1, "down" moves lower it by 1; a step pairs one
    # of each so the equality constraint is preserved.
    for _ in range(MAX_ITER):
        g_inc_a = s + epsilon - y          # d/d alpha_i (increase)
        g_dec_as = s - epsilon - y         # -d/d alpha*_i (decrease alpha*)
        up = np.where(alpha < c_penalty, g_inc_a, np.inf)
        up = np.minimum(up, np.where(alpha_star > 0.0, g_dec_as, np.inf))
        down = np.where(alpha > 0.0, -g_inc_a, np.inf)
        down = np.minimum(down, np.where(alpha_star < c_penalty, -g_dec_as, np.inf))

        i = int(np.argmin(up))
        j = int(np.argmin(down))
        gain = up[i] + down[j]
        if gain >= -TOL:
            break
        if i == j:
            # Only possible as (decrease alpha*, decrease alpha): both positive,
            # objective slope -2*eps. Shrink the common mass and move on.
            shrink = min(alpha[i], alpha_star[i])
            if shrink <= 0.0:
                break
            alpha[i] -= shrink
            alpha_star[i] -= shrink
            continue

        # theta_i moves +t, theta_j moves -t; choose which variable carries it.
        use_a_i = alpha[i] < c_penalty and g_inc_a[i] <= (
            g_dec_as[i] if alpha_star[i] > 0.0 else np.inf)
        use_as_j = alpha_star[j] < c_penalty and -g_dec_as[j] <= (
            -g_inc_a[j] if alpha[j] > 0.0 else np.inf)

        cap_i = (c_penalty - alpha[i]) if use_a_i else alpha_star[i]
        cap_j = (c_penalty - alpha_star[j]) if use_as_j else alpha[j]
        eta = diag[i] + diag[j] - 2.0 * K[i, j]
        if eta <= 1e-300:
            t = min(cap_i, cap_j)
            if t <= 0.0:
                break
        else:
            t = min(-gain / eta, cap_i, cap_j)
        if t <= 0.0:
            break

        if use_a_i:
            alpha[i] += t
        else:
            alpha_star[i] -= t
        if use_as_j:
            alpha_star[j] += t
        else:
            alpha[j] -= t
        s += t * (K[:, i] - K[:, j])
    else:
        raise NonConvergence(f"SMO did not converge within {MAX_ITER} pair updates")

    # Restore exact per-point complementarity (never worsens the objective).
    both = np.minimum(alpha, alpha_star)
    alpha -= both
    alpha_star -= both

    theta = alpha - alpha_star
    w = X.T @ theta
    bias = _recover_bias(X @ w, y, alpha, alpha_star, c_penalty, epsilon)
    return SvrModel(weights=w, bias=bias, c_penalty=c_penalty, epsilon=epsilon,
                    alphas=alpha, alpha_stars=alpha_star)


def _recover_bias(wx: np.ndarray, y: np.ndarray, alpha: np.ndarray,
                  alpha_star: np.ndarray, c: float, epsilon: float) -> float:
    """KKT bias: average over interior points, else feasible-interval midpoint."""
    bound_slack = 1e-9 * max(1.0, c)
    interior = []
    lo, hi = -np.inf, np.inf
    for i in range(y.size):
        b_up = y[i] - wx[i] - epsilon   # alpha side
        b_dn = y[i] - wx[i] + epsilon   # alpha* side
        if alpha[i] > bound_slack:
            if alpha[i] < c - bound_slack:
                interior.append(b_up)
            else:
                hi = min(hi, b_up)
        else:
            lo = max(lo, b_up)
        if alpha_star[i] > bound_slack:
            if alpha_star[i] < c - bound_slack:
                interior.append(b_dn)
            else:
                lo = max(lo, b_dn)
        else:
            hi = min(hi, b_dn)
    if interior:
        return float(np.mean(interior))
    if np.isfinite(lo) and np.isfinite(hi):
        return float((lo + hi) / 2.0)
    if np.isfinite(lo):
        return float(lo)
    if np.isfinite(hi):
        return float(hi)
    return 0.0
