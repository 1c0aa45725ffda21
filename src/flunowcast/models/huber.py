"""Robust linear regression under the Huber loss.

The per-sample loss on the scaled residual a_i = (y_i - x_i.beta - c)/sigma
comes in two equivalent forms that share the same minimizer:

    doubled form:    a^2            if |a| <= delta,   2|a| - 1      otherwise
    canonical form:  a^2 / 2        if |a| <= delta,   |a| - 1/2     otherwise

(the doubled form is exactly twice the canonical one, written here for
delta = 1; general delta uses delta*|a| - delta^2/2 in the canonical tail).
Fitting is iteratively reweighted least squares; when ``sigma`` is not
supplied it is re-estimated each iteration from the normalized median
absolute deviation of the residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NoData, NonConvergence
from .linear import linear_predict

# MAD of a standard normal is 1/1.4826...; this factor makes the estimate
# consistent for Gaussian residuals.
MAD_TO_SIGMA = 1.4826022185056018

TOL = 1e-8        # relative change that ends the scale and IRLS loops
MAX_ITER = 1000   # IRLS steps at the frozen scale
SCALE_ITER = 100  # least-squares / MAD alternations while the scale settles


@dataclass
class HuberModel:
    beta: np.ndarray
    intercept: float
    sigma: float
    delta: float = 1.0

    def predict(self, X):
        return linear_predict(X, self.beta, self.intercept)


def loss(residuals, sigma: float, delta: float = 1.0,
         form: str = "doubled") -> float:
    """Summed Huber loss of raw residuals at scale ``sigma``."""
    a = np.asarray(residuals, dtype=float) / sigma
    absa = np.abs(a)
    quad = absa <= delta
    if form == "doubled":
        per = np.where(quad, a * a, 2.0 * delta * absa - delta * delta)
    elif form == "canonical":
        per = np.where(quad, 0.5 * a * a, delta * absa - 0.5 * delta * delta)
    else:
        raise ValueError(f"unknown loss form {form!r}")
    return float(per.sum())


def loss_gradient(X, y, beta, intercept: float, sigma: float,
                  delta: float = 1.0, form: str = "doubled") -> tuple[np.ndarray, float]:
    """Analytic gradient of the summed loss w.r.t. (beta, intercept).

    dL/da is 2a on the quadratic branch and 2*delta*sign(a) on the linear
    branch (half that for the canonical form); both branches agree at
    |a| = delta, so the loss is C^1 everywhere.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    beta = np.asarray(beta, dtype=float)
    a = (y - X @ beta - intercept) / sigma
    psi = np.where(np.abs(a) <= delta, 2.0 * a, 2.0 * delta * np.sign(a))
    if form == "canonical":
        psi = 0.5 * psi
    elif form != "doubled":
        raise ValueError(f"unknown loss form {form!r}")
    # da/dbeta_j = -x_ij / sigma, da/dc = -1/sigma
    g_beta = -(X.T @ psi) / sigma
    g_intercept = -float(psi.sum()) / sigma
    return g_beta, g_intercept


def _weights(a: np.ndarray, delta: float, form: str) -> np.ndarray:
    # IRLS weight w_i = psi(a_i)/a_i; the forms differ by the factor 2,
    # which cancels in the weighted normal equations but exercises a
    # distinct numerical path.
    absa = np.abs(a)
    base = np.where(absa <= delta, 1.0, delta / np.maximum(absa, 1e-300))
    return 2.0 * base if form == "doubled" else base


def _mad_scale(residuals: np.ndarray) -> float:
    centered = residuals - np.median(residuals)
    return MAD_TO_SIGMA * float(np.median(np.abs(centered)))


def _weighted_lstsq(X: np.ndarray, y: np.ndarray, w: np.ndarray,
                    include_intercept: bool) -> tuple[np.ndarray, float]:
    sw = np.sqrt(w)
    design = np.hstack([X, np.ones((X.shape[0], 1))]) if include_intercept else X
    sol, *_ = np.linalg.lstsq(design * sw[:, None], y * sw, rcond=None)
    if include_intercept:
        return sol[:-1], float(sol[-1])
    return sol, 0.0


def fit_huber(X, y, delta: float = 1.0, sigma: float | None = None,
              include_intercept: bool = True, form: str = "doubled") -> HuberModel:
    """IRLS fit with an alternated robust scale.

    When ``sigma`` is not supplied, the fit alternates a weighted
    least-squares step with a MAD re-estimate of the scale until the scale
    settles (or ``SCALE_ITER`` alternations, whichever first; the MAD is a
    step function of the residuals, so a hard cap guarantees termination).
    The scale is then frozen and IRLS runs to a parameter change below
    ``TOL``, which for a fixed scale is a provably convergent descent.
    """
    if form not in ("doubled", "canonical"):
        raise ValueError(f"unknown loss form {form!r}")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    n = X.shape[0]
    if n < 2:
        raise NoData("fit_huber needs at least 2 rows")

    beta = np.zeros(X.shape[1])
    intercept = float(np.median(y)) if include_intercept else 0.0

    if sigma is None:
        sigma = _mad_scale(y - X @ beta - intercept)
        if sigma <= 0.0:
            sigma = max(float(np.std(y)), 1e-12)
        for _ in range(SCALE_ITER):
            a = (y - X @ beta - intercept) / sigma
            beta, intercept = _weighted_lstsq(X, y, _weights(a, delta, form),
                                              include_intercept)
            resid = y - X @ beta - intercept
            cand = _mad_scale(resid)
            if cand <= 1e-12 * max(1.0, float(np.abs(y).max())):
                cand = float(np.std(resid))  # near-perfect fit: MAD collapses
            cand = max(cand, 1e-12)
            settled = abs(cand - sigma) <= TOL * max(1.0, sigma)
            sigma = cand
            if settled:
                break

    for _ in range(MAX_ITER):
        a = (y - X @ beta - intercept) / sigma
        new_beta, new_intercept = _weighted_lstsq(X, y, _weights(a, delta, form),
                                                  include_intercept)
        step = max(
            float(np.max(np.abs(new_beta - beta))) if beta.size else 0.0,
            abs(new_intercept - intercept),
        )
        param_scale = max(1.0, float(np.max(np.abs(new_beta))) if beta.size else 1.0,
                          abs(new_intercept))
        beta, intercept = new_beta, new_intercept
        if step <= TOL * param_scale:
            return HuberModel(beta=beta, intercept=intercept, sigma=float(sigma),
                              delta=delta)
    raise NonConvergence(f"Huber IRLS did not settle within {MAX_ITER} iterations")
