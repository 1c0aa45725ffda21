"""ARIMA(p, d, q) fitted by conditional sum of squares.

The series is differenced ``d`` times; the ARMA innovations are then
computed recursively with pre-sample innovations fixed at zero,

    e_t = z_t - c - sum_i ar_i z_{t-i} - sum_j ma_j e_{t-j},   t >= p,

and the summed e_t^2 is minimized over (c, ar, ma). The constant c is
included only when d == 0: a differenced model is a pure random walk plus
ARMA noise, which keeps ARIMA(0,1,0) parameter-free and makes forecasts
translate exactly with the series level.

Forecasts iterate the recursion with future innovations set to zero and
integrate the differences back to the original level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from ..errors import InsufficientHistory, NonConvergence, SeriesTooShort
from ..series import WeeklySeries

DEFAULT_ORDER = (3, 1, 2)


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
    if isinstance(series, WeeklySeries):
        return np.asarray(series.values, dtype=float)
    return np.asarray(series, dtype=float)


def css_innovations(z: np.ndarray, c: float, ar: np.ndarray,
                    ma: np.ndarray) -> np.ndarray:
    """Innovations e_p..e_{T-1}; references before index p count as zero."""
    p, q = ar.size, ma.size
    t_len = z.size
    # AR part is a fixed linear filter; only the MA feedback is sequential.
    acc = z[p:] - c
    for i in range(p):
        acc = acc - ar[i] * z[p - 1 - i:t_len - 1 - i]
    if q == 0:
        return acc
    e = np.zeros(t_len - p)
    ma_list = ma.tolist()
    for t in range(t_len - p):
        s = float(acc[t])
        for j in range(min(q, t)):
            s -= ma_list[j] * e[t - 1 - j]
        e[t] = s
    return e


def css_objective(z: np.ndarray, params: np.ndarray, p: int, q: int,
                  with_const: bool) -> float:
    c = params[0] if with_const else 0.0
    off = 1 if with_const else 0
    e = css_innovations(z, c, params[off:off + p], params[off + p:off + p + q])
    return float(e @ e)


def css_gradient(z: np.ndarray, params: np.ndarray, p: int, q: int,
                 with_const: bool) -> np.ndarray:
    """Analytic gradient of the conditional sum of squares.

    Every parameter sensitivity obeys the same MA-feedback recursion as the
    innovations themselves, s_t = u_t - sum_j ma_j s_{t-j}, with forcing
    u_t = -1 (constant), -z_{t-i} (AR terms) or -e_{t-j} (MA terms).
    """
    c = params[0] if with_const else 0.0
    off = 1 if with_const else 0
    ar = params[off:off + p]
    ma = params[off + p:off + p + q]
    e = css_innovations(z, c, ar, ma)
    t_len = e.size
    n_par = params.size
    sens = np.zeros((n_par, t_len))
    e_pad = np.concatenate([np.zeros(p), e])  # align indices with z

    for t in range(t_len):
        tg = t + p  # global index into z
        k = 0
        if with_const:
            sens[0, t] = -1.0
            k = 1
        for i in range(p):
            sens[k + i, t] = -z[tg - 1 - i]
        for j in range(q):
            idx = tg - 1 - j
            sens[k + p + j, t] = -e_pad[idx] if idx >= p else 0.0
        for j in range(min(q, t)):
            sens[:, t] -= ma[j] * sens[:, t - 1 - j]
    return 2.0 * (sens @ e)


def fit_arima(series, order: tuple[int, int, int] = DEFAULT_ORDER,
              tol: float = 1e-8) -> ArimaModel:
    """Minimize the conditional sum of squares by BFGS with the analytic
    CSS gradient.

    Starting values come from an ordinary least-squares AR regression on
    the differenced series (MA terms start at zero). Only if BFGS ends above
    the starting objective does Nelder-Mead restart from those values, with
    a function tolerance of ``tol`` times the starting objective, and BFGS
    then polishes its result.
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
        e = z.copy()
        return ArimaModel(order=order, ar=np.zeros(0), ma=np.zeros(0),
                          intercept=0.0,
                          noise_variance=float(e @ e) / e.size)

    x0 = np.zeros(n_params)
    off = 1 if with_const else 0
    if p > 0:
        rows = np.column_stack([z[p - 1 - i:z.size - 1 - i] for i in range(p)])
        design = np.hstack([np.ones((rows.shape[0], 1)), rows]) if with_const else rows
        sol, *_ = np.linalg.lstsq(design, z[p:], rcond=None)
        if with_const:
            x0[0] = sol[0]
            x0[1:1 + p] = sol[1:]
        else:
            x0[:p] = sol
    elif with_const:
        x0[0] = float(z.mean())

    f0 = css_objective(z, x0, p, q, with_const)
    norm = max(abs(f0), 1e-30)

    # Work on css/norm so gradient-norm and function tolerances are
    # scale-free regardless of the series magnitude.
    def fun_grad(params):
        return (css_objective(z, params, p, q, with_const) / norm,
                css_gradient(z, params, p, q, with_const) / norm)

    best = minimize(fun_grad, x0, method="BFGS", jac=True,
                    options={"gtol": 1e-12, "maxiter": 500})
    if best.fun * norm > f0 * (1.0 + 1e-12) + 1e-300:
        # rough surface: derivative-free fallback, then re-polish
        nm = minimize(lambda par: css_objective(z, par, p, q, with_const), x0,
                      method="Nelder-Mead",
                      options={"xatol": 1e-10,
                               "fatol": max(1e-14, tol * max(1.0, abs(f0))),
                               "maxiter": 800 * n_params,
                               "maxfev": 800 * n_params})
        best = minimize(fun_grad, nm.x, method="BFGS", jac=True,
                        options={"gtol": 1e-12, "maxiter": 500})
    if best.fun * norm > f0 * (1.0 + 1e-9) + 1e-300:
        raise NonConvergence("CSS minimization failed to improve on the AR start")

    params = best.x
    c = float(params[0]) if with_const else 0.0
    ar = params[off:off + p].copy()
    ma = params[off + p:off + p + q].copy()
    e = css_innovations(z, c, ar, ma)
    dof = max(1, e.size)
    return ArimaModel(order=order, ar=ar, ma=ma, intercept=c,
                      noise_variance=float(e @ e) / dof)


def forecast_arima(model: ArimaModel, last_observations, horizon: int) -> np.ndarray:
    """Iterated h-step forecast with future innovations set to zero.

    ``last_observations`` must supply at least p + d trailing values; the
    innovations over that history are reconstructed by the same recursion
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
        e_ext.append(0.0)
        level = acc
        for order_tail in range(d - 1, -1, -1):
            level = tails[order_tail] + level
            tails[order_tail] = level
        out[k] = level
    return out
