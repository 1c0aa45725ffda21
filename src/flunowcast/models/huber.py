"""Robust linear regression under the Huber loss.

The per-sample loss on the scaled residual a_i = (y_i - x_i.beta - c)/sigma
is, in its canonical form,

    a^2 / 2                     if |a| <= delta,
    delta*|a| - delta^2 / 2     otherwise.

``FORMS`` maps each loss form to its factor on the canonical one: the
doubled form (a^2, or 2*delta*|a| - delta^2) is exactly twice it, and so
are its psi and its IRLS weights. Both forms share the same minimizer, and
scaling by 2.0 is exact, so each quantity is the canonical one times the
factor.

At a fixed scale the loss is convex and piecewise quadratic in
theta = (beta, c), and the fit takes finite Newton steps on it (Madsen &
Nielsen, *BIT* 30, 1990). With A the design and A_in its rows inside the
band |a| <= delta, a step solves (A_in' A_in) d = sigma * A' psi(a) and is
halved until the loss does not rise; once the band's rows stop changing, a
full step lands on the minimizer. Where the band's rows lack full column
rank, the step is one IRLS step (weighted least squares) instead. The
*step certificate* is a step that moves no parameter by more than ``TOL``
times max(1, max |theta|).

When ``sigma`` is not supplied, it is a root of g(sigma) =
MAD(r(sigma)) - sigma, where r(sigma) are the residuals of the fixed-scale
fit and MAD is their normalized median absolute deviation. g is
continuous. As sigma -> 0+ the fit tends to least absolute deviations,
whose residuals keep a positive MAD, so g > 0; as sigma grows the fit tends
to least squares, whose residual MAD is fixed, so g falls without bound.
One evaluation of each sign therefore brackets a root. The search extends
the secant along one side until g changes sign, then takes secant steps
with Brent's safeguard (*Algorithms for Minimization without Derivatives*,
1973): it bisects the bracket whenever a secant step would leave it or
would not move less than half as far as the move before last. Each fit
starts from the one before. The *scale certificate* is |MAD(r) - sigma| <=
``TOL`` * sigma, and a fit returns only once both certificates hold at the
same theta and sigma.

A fit that runs out of budget raises ``NonConvergence``: a fixed-scale fit
after ``MAX_ITER`` steps, with its last relative step, and the search after
``SCALE_ITER`` fixed-scale fits, with the smallest |MAD(r) - sigma| / sigma
it reached. Two paths carry the step certificate alone. A supplied
``sigma`` is kept as it is. A near-perfect fit, whose residual MAD
collapses to rounding, has g < 0 at every scale: its sigma is the
residuals' standard deviation, floored at 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import parallel
from ..errors import NonConvergence
from .linear import fit_data, linear_predict

# MAD of a standard normal is 1/1.4826...; this factor makes the estimate
# consistent for Gaussian residuals.
MAD_TO_SIGMA = 1.4826022185056018

TOL = 1e-8        # relative bound of the step and scale certificates
MAX_ITER = 1000   # Newton steps of one fixed-scale fit
SCALE_ITER = 100  # fixed-scale fits while the scale's root is searched
# A Cholesky pivot of the band rows' Gram matrix whose square is below this
# share of its diagonal entry leaves a column within about 1e-5 (relative)
# of the others' span; the normal equations would lose 10 of their 16
# digits there, so the step is IRLS's weighted least squares instead.
RANK_TOL = 1e-10
MIN_STEP = 2.0 ** -40  # the shortest fraction of a Newton step tried

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
    """Finite-Newton fit at a scale that is a certified MAD root.

    With ``sigma`` None, the returned (beta, intercept, sigma) holds both
    certificates of the module docstring: its last Newton step at sigma
    moved no parameter by more than ``TOL`` (relative), and |MAD(r) -
    sigma| <= ``TOL`` * sigma. A supplied ``sigma`` is kept, and the step
    certificate holds at it; so it does at the near-perfect fit's scale,
    where the residual MAD collapses. Raises ``NonConvergence``, with the
    certificate value reached, once ``MAX_ITER`` Newton steps or
    ``SCALE_ITER`` fixed-scale fits run out. Needs finite ``delta`` > 0,
    ``sigma`` None or finite > 0, and 2+ rows that ``fit_data`` takes.
    """
    factor = _factor(form)
    if not (np.isfinite(delta) and delta > 0
            and (sigma is None or np.isfinite(sigma) and sigma > 0)):
        raise ValueError(f"need finite delta > 0 and sigma None or > 0, got {delta=}, {sigma=}")
    X, y = fit_data(X, y, "fit_huber", 2)
    design = np.hstack([X, np.ones((X.shape[0], 1))]) if include_intercept else X

    def irls_step(theta, scale):
        """One IRLS step: weights at (theta, scale), then weighted least squares."""
        sw = np.sqrt(_weights((y - design @ theta) / scale, delta, factor))
        sol, *_ = np.linalg.lstsq(design * sw[:, None], y * sw, rcond=None)
        return sol - theta

    def newton_step(resid, band):
        """The Newton step at these residuals, or None where the rows inside
        the band lack full column rank."""
        inside = design[np.abs(resid) <= band]
        gram = inside.T @ inside
        try:
            pivots = np.diagonal(np.linalg.cholesky(gram))
        except np.linalg.LinAlgError:
            return None
        if not (pivots * pivots > RANK_TOL * np.diagonal(gram)).all():
            return None
        return np.linalg.solve(gram, design.T @ np.clip(resid, -band, band))

    def fit_at(theta, scale):
        """The fixed-scale fit from ``theta``: Newton steps until one passes
        the step certificate, which is taken in full."""
        band = delta * scale
        for _ in range(MAX_ITER):
            resid = y - design @ theta
            d = newton_step(resid, band)
            if d is None:
                d = irls_step(theta, scale)
            new = theta + d
            step = (float(np.max(np.abs(d), initial=0.0))
                    / max(1.0, float(np.max(np.abs(new), initial=0.0))))
            if step <= TOL:
                return new
            shift = design @ d
            base = loss(resid, scale, delta, form)
            t = 1.0
            while loss(resid - t * shift, scale, delta, form) > base and t > MIN_STEP:
                t *= 0.5
            theta = theta + t * d
        raise NonConvergence(f"Huber fit at scale {scale!r} did not settle within "
                             f"{MAX_ITER} steps; last relative step {step:.3g}")

    def model(theta, scale):
        if include_intercept:
            return HuberModel(beta=theta[:-1], intercept=float(theta[-1]),
                              sigma=float(scale), delta=delta)
        return HuberModel(beta=theta, intercept=0.0, sigma=float(scale), delta=delta)

    theta = np.zeros(design.shape[1])
    if include_intercept:
        theta[-1] = _median(y)
    with parallel.one_blas_thread():  # the same Gram bytes under any BLAS pool
        if sigma is not None:
            return model(fit_at(theta, sigma), sigma)
        scale = _mad_scale(y - design @ theta)
        if scale <= 0.0:
            scale = max(float(np.std(y)), 1e-12)
        collapsed = 1e-12 * max(1.0, float(np.abs(y).max()))
        lo = hi = None        # (scale, gap) with gap > 0, and with gap < 0
        prev = None           # the evaluation before this one
        last = before_last = np.inf  # the lengths of the last two moves
        best = np.inf
        for _ in range(SCALE_ITER):
            theta = fit_at(theta, scale)
            resid = y - design @ theta
            mad = _mad_scale(resid)
            if mad <= collapsed:  # near-perfect fit: the MAD collapses
                scale = max(float(np.std(resid)), 1e-12)
                return model(fit_at(theta, scale), scale)
            gap = mad - scale  # g, and the fixed-point step sigma -> MAD(r)
            best = min(best, abs(gap) / scale)
            if abs(gap) <= TOL * scale:
                return model(theta, scale)
            if gap > 0:
                lo = (scale, gap)
            else:
                hi = (scale, gap)
            # the secant step through this evaluation and the one before, in
            # fixed-point steps (nan where there is none)
            ratio = ((scale - prev[0]) / (prev[1] - gap)
                     if prev and prev[1] != gap else math.nan)
            if lo and hi:
                cand = scale + ratio * gap
                if not (lo[0] < cand < hi[0] and abs(cand - scale) < 0.5 * before_last):
                    cand = 0.5 * (lo[0] + hi[0])
                    last = abs(cand - scale)  # a bisection restarts the comparison
            else:
                # towards the root, which lies on the side g points to: one to
                # ten fixed-point steps along the secant, or twice the last
                # move where g rose towards the root; half the MAD keeps the
                # scale positive
                size = abs(gap) * (min(ratio, 10.0) if ratio > 1.0 else 1.0)
                if prev and not ratio > 0.0:
                    size = max(size, 2.0 * last)
                cand = max(scale + math.copysign(size, gap), 0.5 * mad)
            before_last, last = last, abs(cand - scale)
            prev = (scale, gap)
            scale = cand
    raise NonConvergence(f"Huber scale did not settle within {SCALE_ITER} fits; "
                         f"smallest |MAD - sigma| / sigma {best:.3g}")
