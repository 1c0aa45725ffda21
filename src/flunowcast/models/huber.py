"""Robust linear regression under the Huber loss.

The per-sample loss on the scaled residual a_i = (y_i - x_i.beta - c)/sigma
is, in its canonical form,

    a^2 / 2                     if |a| <= delta,
    delta*|a| - delta^2 / 2     otherwise.

``FORMS`` maps each loss form to its factor on the canonical one: the
doubled form (a^2, or 2*delta*|a| - delta^2) is exactly twice it, and so
are its psi and its IRLS weights. Both forms share the same minimizer, and
scaling by 2.0 is exact, so each quantity is the canonical one times the
factor. Fitting is iteratively reweighted least squares; when ``sigma`` is
not supplied it is re-estimated each iteration from the normalized median
absolute deviation of the residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NonConvergence
from .linear import fit_data, linear_predict

# MAD of a standard normal is 1/1.4826...; this factor makes the estimate
# consistent for Gaussian residuals.
MAD_TO_SIGMA = 1.4826022185056018

TOL = 1e-8        # relative change that ends the scale and IRLS loops
MAX_ITER = 1000   # IRLS steps at the frozen scale
SCALE_ITER = 100  # least-squares / MAD alternations while the scale settles

FORMS = {"canonical": 1.0, "doubled": 2.0}  # loss form -> factor on the canonical loss


@dataclass
class HuberModel:
    beta: np.ndarray
    intercept: float
    sigma: float
    delta: float = 1.0

    def predict(self, X):
        return linear_predict(X, self.beta, self.intercept)


def _factor(form: str) -> float:
    try:
        return FORMS[form]
    except KeyError:
        raise ValueError(f"unknown loss form {form!r}") from None


def loss(residuals, sigma: float, delta: float = 1.0,
         form: str = "doubled") -> float:
    """Summed Huber loss of raw residuals at scale ``sigma``."""
    factor = _factor(form)
    a = np.asarray(residuals, dtype=float) / sigma
    absa = np.abs(a)
    per = np.where(absa <= delta, 0.5 * a * a, delta * absa - 0.5 * delta * delta)
    return factor * float(per.sum())


def loss_gradient(X, y, beta, intercept: float, sigma: float,
                  delta: float = 1.0, form: str = "doubled") -> tuple[np.ndarray, float]:
    """Analytic gradient of the summed loss w.r.t. (beta, intercept).

    dL/da is psi(a) = a on the quadratic branch and delta*sign(a) on the
    linear branch, times the form's factor; both branches agree at
    |a| = delta, so the loss is C^1 everywhere.
    """
    factor = _factor(form)
    X, y = fit_data(X, y, "loss_gradient", 0)
    beta = np.asarray(beta, dtype=float)
    a = (y - X @ beta - intercept) / sigma
    psi = factor * np.where(np.abs(a) <= delta, a, delta * np.sign(a))
    # da/dbeta_j = -x_ij / sigma, da/dc = -1/sigma
    g_beta = -(X.T @ psi) / sigma
    g_intercept = -float(psi.sum()) / sigma
    return g_beta, g_intercept


def _weights(a: np.ndarray, delta: float, factor: float) -> np.ndarray:
    # IRLS weight w_i = psi(a_i)/a_i; the form's factor cancels in the
    # weighted normal equations.
    absa = np.abs(a)
    return factor * np.where(absa <= delta, 1.0, delta / np.maximum(absa, 1e-300))


def _median(x: np.ndarray) -> float:
    """``np.median`` of a 1-D float array, bit for bit, without the
    ``numpy.ma`` import that ``np.median`` makes on its first call. The
    leading ``0.0 +`` is numpy's mean, whose sum starts at +0.0, so a
    signed zero comes out the same."""
    h = x.size // 2
    if x.size % 2:
        return 0.0 + float(np.partition(x, h)[h])
    p = np.partition(x, (h - 1, h))
    return (0.0 + float(p[h - 1]) + float(p[h])) / 2


def _mad_scale(residuals: np.ndarray) -> float:
    centered = residuals - _median(residuals)
    return MAD_TO_SIGMA * _median(np.abs(centered))


def fit_huber(X, y, delta: float = 1.0, sigma: float | None = None,
              include_intercept: bool = True, form: str = "doubled") -> HuberModel:
    """IRLS fit with an alternated robust scale.

    When ``sigma`` is not supplied, the fit alternates a weighted
    least-squares step with a MAD re-estimate of the scale until the scale
    settles (or ``SCALE_ITER`` alternations, whichever first; the MAD is a
    step function of the residuals, so a hard cap guarantees termination).
    The scale is then frozen and IRLS runs to a parameter change below
    ``TOL``, which for a fixed scale is a provably convergent descent. Needs finite
    ``delta`` > 0, ``sigma`` None or finite > 0, and 2+ rows that ``fit_data`` takes.
    """
    factor = _factor(form)
    if not (np.isfinite(delta) and delta > 0
            and (sigma is None or np.isfinite(sigma) and sigma > 0)):
        raise ValueError(f"need finite delta > 0 and sigma None or > 0, got {delta=}, {sigma=}")
    X, y = fit_data(X, y, "fit_huber", 2)
    design = np.hstack([X, np.ones((X.shape[0], 1))]) if include_intercept else X

    def step(beta, intercept, scale):
        """One IRLS step: weights at (beta, intercept, scale), then weighted least squares."""
        sw = np.sqrt(_weights((y - X @ beta - intercept) / scale, delta, factor))
        sol, *_ = np.linalg.lstsq(design * sw[:, None], y * sw, rcond=None)
        return (sol[:-1], float(sol[-1])) if include_intercept else (sol, 0.0)

    beta = np.zeros(X.shape[1])
    intercept = _median(y) if include_intercept else 0.0

    if sigma is None:
        sigma = _mad_scale(y - X @ beta - intercept)
        if sigma <= 0.0:
            sigma = max(float(np.std(y)), 1e-12)
        for _ in range(SCALE_ITER):
            beta, intercept = step(beta, intercept, sigma)
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
        new_beta, new_intercept = step(beta, intercept, sigma)
        step_size = max(
            float(np.max(np.abs(new_beta - beta))) if beta.size else 0.0,
            abs(new_intercept - intercept),
        )
        param_scale = max(1.0, float(np.max(np.abs(new_beta))) if beta.size else 1.0,
                          abs(new_intercept))
        beta, intercept = new_beta, new_intercept
        if step_size <= TOL * param_scale:
            return HuberModel(beta=beta, intercept=intercept, sigma=float(sigma),
                              delta=delta)
    raise NonConvergence(f"Huber IRLS did not settle within {MAX_ITER} iterations")
