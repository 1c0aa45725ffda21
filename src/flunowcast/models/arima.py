"""ARIMA(p, d, q) fitted by conditional sum of squares (CSS).

The series is differenced ``d`` times; the ARMA innovations of the
differences z then solve the MA filter

    e_t + sum_j ma_j e_{t-1-j} = z_t - c - sum_i ar_i z_{t-1-i},   t >= p,

with pre-sample innovations fixed at zero, and the summed e_t^2 is
minimized over (c, ar, ma). The constant c is included only when d == 0:
a differenced model is a pure random walk plus ARMA noise, which keeps
ARIMA(0,1,0) parameter-free and makes forecasts translate exactly with the
series level.

The filter runs forward in plain Python floats, one pass per right-hand
side. It needs no LAPACK band solver: importing ``scipy.linalg`` for one
would load scipy into the start-up of every CLI command, most of which
need nothing else from it. An explosive filter (an MA polynomial with a
root inside the unit circle) overflows to inf or NaN as the recursion
does, without a floating-point warning.

Each parameter's sensitivity de/dparam obeys the same filter with forcing
-1 (constant), -z_{t-1-i} (AR terms) or -e_{t-1-j} (MA terms). The MA
forcings are lags of -e with zero pre-sample values, and the filter maps
zeros to zeros, so their filtered columns are the same lags of one
filtered -e: p + 1 passes (p without the constant) give the Jacobian.
The fit is then nonlinear least squares by Marquardt steps (Box, Jenkins & Reinsel,
*Time Series Analysis*, 7.2; Marquardt, *SIAM J. Appl. Math.* 1963), kept
inside the region where the MA polynomial 1 + sum_j ma_j B^(j+1) is
invertible: all its roots lie outside the unit circle, so the filter is
stable.

Forecasts iterate the recursion with future innovations set to zero and
integrate the differences back to the original level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import InsufficientHistory, NonConvergence, SeriesTooShort

DEFAULT_ORDER = (3, 1, 2)
TOL = 1e-8  # a kept Marquardt step lowering the CSS by at most this share ends the fit


@dataclass
class ArimaModel:
    order: tuple[int, int, int]
    ar: np.ndarray
    ma: np.ndarray
    intercept: float
    noise_variance: float

    @property
    def n_params(self) -> int:
        p, d, q = self.order
        return p + q + (1 if d == 0 else 0)


def _values(series) -> np.ndarray:
    values = np.asarray(getattr(series, "values", series), dtype=float)  # series or array
    if not np.isfinite(values).all():
        raise ValueError("ARIMA needs a finite series")
    return values


def _lags(x: np.ndarray, k: int) -> np.ndarray:
    """Rows t = k..n-1 of the first k lags of x: column i holds x_{t-1-i}."""
    return sliding_window_view(x[:-1], k)[:, ::-1]


def _ma_filter(ma: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Solve e_t + sum_j ma_j e_{t-1-j} = u_t, pre-sample e zero, for u and
    for every column of a 2-D u.

    Forward substitution in Python floats, one pass per column: an
    explosive filter overflows to inf or NaN as the recursion would, and
    float arithmetic raises no warning on the way. ``ma.size == 0``
    returns ``u`` itself.
    """
    if ma.size == 0:
        return u
    lagged = list(enumerate(ma.tolist(), 1))
    filtered = []
    for column in (u.T if u.ndim == 2 else [u]):
        e = [0.0] * ma.size
        for value in column.tolist():
            for lag, coef in lagged:
                value -= coef * e[-lag]
            e.append(value)
        filtered.append(e[ma.size:])
    return np.array(filtered).T if u.ndim == 2 else np.array(filtered[0])


def _unpack(params: np.ndarray, p: int, q: int, with_const: bool):
    off = 1 if with_const else 0
    c = params[0] if with_const else 0.0
    return c, params[off:off + p], params[off + p:off + p + q]


def _invertible(ma: np.ndarray) -> bool:
    """All roots of 1 + sum_j ma_j B^(j+1) lie outside the unit circle."""
    return bool(np.all(np.abs(np.roots(np.r_[1.0, ma])) < 1.0))


def css_innovations(z: np.ndarray, c: float, ar: np.ndarray,
                    ma: np.ndarray) -> np.ndarray:
    """Innovations e_p..e_{T-1}; references before index p count as zero."""
    return _ma_filter(ma, z[ar.size:] - c - _lags(z, ar.size) @ ar)


def _innovations_and_jacobian(z: np.ndarray, params: np.ndarray, p: int, q: int,
                              with_const: bool) -> tuple[np.ndarray, np.ndarray]:
    """Innovations e and their Jacobian J[k, t] = de_t / dparams[k]."""
    c, ar, ma = _unpack(params, p, q, with_const)
    e = css_innovations(z, c, ar, ma)
    filtered = _ma_filter(ma, np.hstack([np.ones((e.size, 1 if with_const else 0)),
                                         _lags(z, p), e[:, None]]))
    # the MA terms' forcings e_{t-1-j} are lags of e with zero pre-sample
    # values, so their filtered columns are the same lags of the filtered e
    return e, -np.hstack([filtered[:, :-1],
                          _lags(np.r_[np.zeros(q), filtered[:, -1]], q)]).T


def css_objective(z: np.ndarray, params: np.ndarray, p: int, q: int,
                  with_const: bool) -> float:
    e = css_innovations(z, *_unpack(params, p, q, with_const))
    return float(e @ e)


def css_gradient(z: np.ndarray, params: np.ndarray, p: int, q: int,
                 with_const: bool) -> np.ndarray:
    """Analytic gradient of the conditional sum of squares, 2 J e."""
    e, jac = _innovations_and_jacobian(z, params, p, q, with_const)
    return 2.0 * (jac @ e)


def fit_arima(series, order: tuple[int, int, int] = DEFAULT_ORDER) -> ArimaModel:
    """Minimize the conditional sum of squares by Marquardt steps.

    The start is an ordinary least-squares AR regression on the differenced
    series, with the MA terms at zero. Each step solves
    (J J' + lambda diag(J J')) delta = -J e and keeps the trial point only
    if its MA polynomial is invertible and its CSS is lower; otherwise
    lambda grows tenfold, and it shrinks tenfold after each kept step. The
    fit stops after a kept step that lowers the CSS by at most ``TOL`` of
    itself, or when no step damped up to lambda = 1e10 lowers it (such a
    step could lower it by about 2 * n_params / lambda of itself at most),
    or after 500 kept steps. It raises ``NonConvergence`` unless the result
    has a finite CSS no larger than the start's and a finite gradient. A
    negative order or a non-finite value raises ``ValueError`` before any step.
    """
    y = _values(series)
    order = tuple(order)  # a run config supplies a JSON list
    p, d, q = order
    if p < 0 or d < 0 or q < 0:
        raise ValueError("order components must be non-negative")
    if y.size <= p + d + q + 10:
        raise SeriesTooShort(
            f"need more than {p + d + q + 10} observations, got {y.size}")
    z = np.diff(y, n=d) if d else y.copy()
    with_const = d == 0
    n_params = p + q + (1 if with_const else 0)

    if n_params == 0:
        return ArimaModel(order=order, ar=np.zeros(0), ma=np.zeros(0),
                          intercept=0.0, noise_variance=float(z @ z) / z.size)

    lags = _lags(z, p)
    design = np.hstack([np.ones((lags.shape[0], 1 if with_const else 0)), lags])
    sol, *_ = np.linalg.lstsq(design, z[p:], rcond=None)
    x0 = np.r_[sol, np.zeros(q)]

    f0 = css_objective(z, x0, p, q, with_const)
    params, css, damping = x0, f0, 1e-3
    for _ in range(500):
        e, jac = _innovations_and_jacobian(z, params, p, q, with_const)
        normal, grad = jac @ jac.T, jac @ e
        while damping <= 1e10:
            step, *_ = np.linalg.lstsq(normal + damping * np.diag(np.diag(normal)),
                                       -grad, rcond=None)
            trial = params + step
            trial_css = (css_objective(z, trial, p, q, with_const)
                         if _invertible(trial[n_params - q:]) else np.inf)
            if trial_css < css:
                break
            damping *= 10.0
        else:
            break  # no damped step inside the invertible region lowers the CSS
        converged = css - trial_css <= TOL * css
        params, css, damping = trial, trial_css, damping / 10.0
        if converged:
            break

    if not (np.isfinite(css) and css <= f0
            and np.all(np.isfinite(css_gradient(z, params, p, q, with_const)))):
        raise NonConvergence("CSS fit did not reach a finite objective and gradient")

    c, ar, ma = _unpack(params, p, q, with_const)
    return ArimaModel(order=order, ar=ar.copy(), ma=ma.copy(), intercept=float(c),
                      noise_variance=css / max(1, z.size - p))


def forecast_arima(model: ArimaModel, last_observations, horizon: int) -> np.ndarray:
    """Iterated h-step forecast with future innovations set to zero.

    ``last_observations`` must supply at least p + d trailing values; the
    innovations over that history are reconstructed by the same MA filter
    used in fitting.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    obs = _values(last_observations)
    p, d, q = model.order
    if obs.size < p + d:
        raise InsufficientHistory(f"need at least {p + d} observations, got {obs.size}")

    # trailing values of each difference order, for integration back to levels
    tails = []
    cur = obs.copy()
    for _ in range(d):
        tails.append(float(cur[-1]))
        cur = np.diff(cur)
    z = cur

    e_hist = css_innovations(z, model.intercept, model.ar, model.ma) if z.size > p else np.zeros(0)
    z_ext = list(z)
    e_ext = [0.0] * p + list(e_hist)

    out = np.empty(horizon)
    for k in range(horizon):
        t = len(z_ext)
        acc = model.intercept
        for i in range(p):
            acc += model.ar[i] * z_ext[t - 1 - i]
        for j in range(q):
            idx = t - 1 - j
            acc += model.ma[j] * (e_ext[idx] if idx < z.size else 0.0)
        z_ext.append(acc)
        level = acc
        for order_tail in range(d - 1, -1, -1):
            level = tails[order_tail] + level
            tails[order_tail] = level
        out[k] = level
    return out
