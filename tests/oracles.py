"""Independent oracles used to cross-check the production implementations.

Everything here is deliberately written from first principles (brute
force, finite differences, direct quadrature, textbook closed forms) and
must stay independent of the code paths it checks.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg.lapack import dtbtrs


def pearson_brute(x, y) -> float:
    """Correlation straight from the covariance/variance definitions."""
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y)) / n
    vx = sum((a - mx) ** 2 for a in x) / n
    vy = sum((b - my) ** 2 for b in y) / n
    return cov / math.sqrt(vx * vy)


def lasso_objective_brute(X, y, beta, intercept, lam) -> float:
    X = np.asarray(X, dtype=float)
    total = 0.0
    for i in range(X.shape[0]):
        r = y[i] - float(X[i] @ beta) - intercept
        total += r * r
    return total + lam * float(np.abs(np.asarray(beta)).sum())


def lasso_grid_search_1d(X, y, lam, lo=-10.0, hi=10.0, steps=2_000_001):
    """Brute 1-D minimizer of the lasso objective over a dense beta grid."""
    X = np.asarray(X, dtype=float).ravel()
    y = np.asarray(y, dtype=float)
    grid = np.linspace(lo, hi, steps)
    resid = y[None, :] - grid[:, None] * X[None, :]
    obj = (resid ** 2).sum(axis=1) + lam * np.abs(grid)
    return float(grid[int(np.argmin(obj))])


def ols_fit(X, y):
    """Least squares with intercept via the normal equations."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    design = np.column_stack([X, np.ones(X.shape[0])])
    sol, *_ = np.linalg.lstsq(design, np.asarray(y, dtype=float), rcond=None)
    return sol[:-1], float(sol[-1])


def central_difference(f, x0: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    grad = np.zeros_like(x0)
    for i in range(x0.size):
        step = np.zeros_like(x0)
        step[i] = eps
        grad[i] = (f(x0 + step) - f(x0 - step)) / (2.0 * eps)
    return grad


# ---------------------------------------------------------------------------
# SVR dual oracle: the exact optimum by SLSQP, certified by its KKT conditions
# ---------------------------------------------------------------------------

def svr_exact_dual(X, y, c_penalty: float, epsilon: float) -> float:
    """Optimal value of the linear SVR dual, found apart from SMO.

    SLSQP maximizes -1/2 theta'K theta - epsilon sum(alpha + alpha*) +
    y'theta over the 2n box variables (alpha, alpha*) in [0, C], with
    theta = alpha - alpha* summing to 0, from analytic gradients. The point
    it returns must meet the KKT conditions: some bias b has, for each
    variable, a reduced gradient (g - epsilon - b for alpha_i, -g - epsilon
    + b for alpha*_i, where g = y - K theta) that is <= 0 off the upper
    bound and >= 0 off the lower one.
    """
    from scipy.optimize import minimize

    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    K = X @ X.T
    n = y.size
    signs = np.r_[np.ones(n), -np.ones(n)]

    def negated(v):
        theta = v[:n] - v[n:]
        k_theta = K @ theta
        grad = y - k_theta
        value = -0.5 * theta @ k_theta - epsilon * v.sum() + y @ theta
        return -value, -(np.r_[grad, -grad] - epsilon)

    result = minimize(negated, np.zeros(2 * n), jac=True, method="SLSQP",
                      bounds=[(0.0, c_penalty)] * (2 * n),
                      constraints=[{"type": "eq", "fun": lambda v: signs @ v,
                                    "jac": lambda v: signs}],
                      options={"ftol": 1e-15, "maxiter": 1000})
    assert result.success, result.message
    v = np.clip(result.x, 0.0, c_penalty)
    theta = v[:n] - v[n:]
    grad = y - K @ theta
    # the bias each variable allows: alpha_i bounds b below by g_i - epsilon
    # off C and above on (0, C]; alpha*_i bounds b by g_i + epsilon the other way
    slack = 1e-9 * c_penalty
    tol = 1e-9 * max(1.0, float(np.abs(grad).max()))
    b_alpha, b_star = grad - epsilon, grad + epsilon
    below = np.r_[b_alpha[v[:n] < c_penalty - slack], b_star[v[n:] > slack]]
    above = np.r_[b_alpha[v[:n] > slack], b_star[v[n:] < c_penalty - slack]]
    assert abs(theta.sum()) <= tol
    assert below.max(initial=-np.inf) <= above.min(initial=np.inf) + tol
    return -float(negated(v)[0])


def svr_recover_bias_loop(wx, y, alpha, alpha_star, c: float, epsilon: float) -> float:
    """KKT bias point by point: the mean of the interior sides' b, else the
    midpoint (or the one finite end) of the interval the bound sides allow."""
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


def yule_walker_ar(x, order: int) -> np.ndarray:
    """Textbook Yule-Walker AR coefficients from sample autocovariances."""
    x = np.asarray(x, dtype=float)
    x = x - x.mean()
    n = x.size
    acov = np.array([float(x[:n - k] @ x[k:]) / n for k in range(order + 1)])
    R = np.empty((order, order))
    for i in range(order):
        for j in range(order):
            R[i, j] = acov[abs(i - j)]
    return np.linalg.solve(R, acov[1:])


def lapack_ma_filter(ma, u) -> np.ndarray:
    """e_t + sum_j ma_j e_{t-1-j} = u_t with zero pre-sample e, as one
    unit-lower-triangular band system solved by LAPACK (dtbtrs); a 2-D u
    gives one solution per column."""
    ma = np.asarray(ma, dtype=float)
    band = np.empty((ma.size + 1, np.shape(u)[0]))
    band[1:] = ma[:, None]  # row 0, the unit diagonal, is not read
    return dtbtrs(band, u, uplo="L", diag="U")[0]


# ---------------------------------------------------------------------------
# Change-point integrals and a reference sampler with from-scratch sums
# ---------------------------------------------------------------------------

def quad_log_w_integral(d: float, w_within: float, b_between: float,
                        w0: float, n: int) -> float:
    """Direct adaptive quadrature of int_0^w0 w^d (W + B w)^(-(n-1)/2) dw,
    W > 0, in v = log w, log-scaled at the integrand's peak.

    In v the integrand is exp((d+1) v - m log(W + B e^v)): it rises as
    e^((d+1) v) below v = log(W/B), as e^((d+1-m) v) above, and peaks at
    log((d+1) W / (B (m-d-1))) when m > d + 1. So its features are O(1)
    wide in v whatever W/B, where in w they are W/B wide: quad on [0, w0]
    misses them once W/B is far below w0."""
    m = (n - 1) / 2.0
    W, B = w_within, b_between
    top = math.log(w0)

    def h(v: float) -> float:
        return (d + 1.0) * v - m * np.logaddexp(math.log(W), math.log(B) + v)

    knees = [math.log(W / B)]
    if m > d + 1.0:
        knees.append(math.log((d + 1.0) * W / (B * (m - d - 1.0))))
    knees = sorted(v for v in knees if v < top)
    # far below the lowest knee the integrand falls as e^((d+1) v)
    lowest = min([top, *knees]) - 50.0 / (d + 1.0)
    scale = max(h(v) for v in [*knees, top])
    val, _ = quad(lambda v: math.exp(h(v) - scale), lowest, top,
                  points=knees or None, epsabs=1e-13, epsrel=1e-11, limit=300)
    return scale + math.log(val)


def quad_log_p_integral(exp_p: int, exp_1mp: int, p0: float) -> float:
    """log of int_0^p0 p^exp_p (1-p)^exp_1mp dp by direct quadrature."""
    val, _ = quad(lambda p: p ** exp_p * (1.0 - p) ** exp_1mp, 0.0, p0,
                  epsabs=1e-16, epsrel=1e-13, limit=300)
    return math.log(val)


def scratch_block_sums(x: np.ndarray, u: np.ndarray, memo: dict):
    """(W, B, blocks) computed naively from the indicator vector. ``memo``
    maps a block's edges (a, b) to its (within, between) terms, computed
    from scratch the first time the block is seen; it holds for one ``x``.
    W and B still add every block's terms left to right."""
    x = np.asarray(x, dtype=float)
    edges = [0, *(int(i) + 1 for i in np.nonzero(u)[0]), x.size]
    w_sum = 0.0
    b_sum = 0.0
    for a, b in zip(edges, edges[1:]):
        if (a, b) not in memo:
            block = x[a:b]
            memo[a, b] = (float(((block - block.mean()) ** 2).sum()),
                          block.size * float((block.mean() - x.mean()) ** 2))
        within, between = memo[a, b]
        w_sum += within
        b_sum += between
    return w_sum, b_sum, len(edges) - 1


def reference_bcp_posterior(series, config, flips=None):
    """Same Gibbs sampler, but with W and B summed over every block at
    every position, each block's terms computed from scratch the first time
    it is seen (no incremental bookkeeping), and spans found by scanning the
    indicator vector. Shares the integral code and the RNG consumption
    pattern with the production sampler, so agreement checks the partition
    bookkeeping in isolation. It keeps the sampler's model
    rules: the series is first scaled by a power of two so that its largest
    magnitude lies in [0.5, 1), and a within-block sum at or below 1e-12
    times the total sum of squares counts as exactly zero. Where ``flips``
    is a list, each draw that changes u[i] appends i and the indicator
    vector before the draw."""
    from flunowcast.changepoint import log_inc_beta, log_w_integral
    from flunowcast.rng import Xorshift64Star

    x = np.asarray(series, dtype=float)
    n = x.size
    x = np.ldexp(x, -np.frexp(np.abs(x).max())[1])
    sd = x.std()
    if sd == 0.0:
        return np.zeros(n - 1)
    x = (x - x.mean()) / sd
    zero_w = 1e-12 * float(np.sum(x * x))
    u = np.zeros(n - 1, dtype=bool)
    rng = Xorshift64Star(config.seed)
    counts = np.zeros(n - 1)
    memo = {}
    for sweep in range(config.iterations):
        for i in range(n - 1):
            held = bool(u[i])
            u[i] = False
            w0s, b0s, blocks0 = scratch_block_sums(x, u, memo)
            u[i] = True
            w1s, b1s, _ = scratch_block_sums(x, u, memo)
            w0s = 0.0 if w0s <= zero_w else w0s
            w1s = 0.0 if w1s <= zero_w else w1s
            num = log_w_integral(blocks0 / 2.0, w1s, b1s, config.w0, n)
            den = log_w_integral((blocks0 - 1) / 2.0, w0s, b0s, config.w0, n)
            if num == math.inf and den == math.inf:
                prob = 0.0
            elif num == math.inf:
                prob = 1.0
            else:
                log_odds = (log_inc_beta(blocks0 + 1.0, float(n - blocks0), config.p0)
                            - log_inc_beta(float(blocks0), float(n - blocks0 + 1), config.p0)
                            + num - den)
                if log_odds > 700.0:
                    prob = 1.0
                elif log_odds < -700.0:
                    prob = 0.0
                else:
                    odds = math.exp(log_odds)
                    prob = odds / (1.0 + odds)
            u[i] = rng.random() < prob
            if flips is not None and u[i] != held:
                before = u.copy()
                before[i] = held
                flips.append((i, before))
        if sweep >= config.burn_in:
            counts += u
    return counts / (config.iterations - config.burn_in)


_FOREST_TIE_EPS = 1e-12


def _reference_best_split(X, y, idx, w, features, min_leaf):
    """Best split of one node of distinct rows ``idx`` with weights ``w``
    over its candidate features, or None.

    Along each feature, the rows are stably sorted by value, and the cut
    after sorted row j has the left sums L of w·y and w_L of w and the
    right sums R = (last L) - L and w_R = (last w_L) - w_L. Its score is
    L²/w_L + R²/w_R; a cut between equal values, or with a side weighing
    less than ``min_leaf``, is barred. The split is the first (feature,
    cut), in that order, whose score is at least the highest less
    ``_FOREST_TIE_EPS`` times the node's sum of w·y² (summed in the node's
    row order); there is none where that edge is not finite. Returns
    (feature, threshold, (left rows, weights, sums), (right rows, weights,
    sums)), where a side's sums are its (w·y, w) sums at the cut.
    """
    y_node = y[idx]
    wy = w * y_node
    squares = np.cumsum(wy * y_node)[-1]
    columns = []
    for f in features:
        order = np.argsort(X[idx, f], kind="stable")
        xs = X[idx[order], f]
        left, left_w = np.cumsum(wy[order]), np.cumsum(w[order])
        right, right_w = left[-1] - left, left_w[-1] - left_w
        cuts = []
        for j in range(idx.size - 1):
            if xs[j] < xs[j + 1] and left_w[j] >= min_leaf and right_w[j] >= min_leaf:
                score = left[j] * left[j] / left_w[j] + right[j] * right[j] / right_w[j]
                cuts.append((score, j))
        columns.append((f, order, xs, left, left_w, right, right_w, cuts))
    every = [score for *_, cuts in columns for score, _ in cuts]
    # NaN, from sums that overflowed, makes the highest NaN
    high = (math.nan if any(math.isnan(s) for s in every)
            else max(every, default=-math.inf))
    edge = high - _FOREST_TIE_EPS * squares
    if not math.isfinite(edge):
        return None
    for f, order, xs, left, left_w, right, right_w, cuts in columns:
        for score, j in cuts:
            if score >= edge:
                rows = idx[order]
                weights = w[order]
                return (f, float(0.5 * (xs[j] + xs[j + 1])),
                        (rows[:j + 1], weights[:j + 1], (left[j], left_w[j])),
                        (rows[j + 1:], weights[j + 1:], (right[j], right_w[j])))
    raise AssertionError("the highest score lies below its own band")


def reference_forest_trees(X, y, n_trees, max_depth, min_leaf, bootstrap,
                           max_features, seed):
    """The forest's trees grown one at a time, breadth first, on bootstrap
    counts: each tree on its own scalar ``Xorshift64Star`` stream, seeded by
    ``derive_seed(seed, t)``, draws the bootstrap's n ``randint``s, and
    ``bincount`` gives its distinct rows, ascending, with their draw counts
    as weights (every row weighs 1 without a bootstrap). Nodes leave a FIFO
    queue, so they are taken by depth, then left to right; each node that
    searches draws its feature subset with ``sample_without_replacement``
    as it leaves. A node of weight W is a leaf if W < 2 * ``min_leaf``, it
    is at ``max_depth``, its targets are all equal or its search finds no
    split; its value is its sum of w·y over W. A root's sums are the last
    cumulative sums of its rows' (w·y, w) in row order; a child's are
    those its parent's search holds at the cut (``_reference_best_split``).
    ``max_features`` is the resolved count (``fit_forest``'s default is
    ceil(p / 3))."""
    from collections import deque

    from flunowcast.rng import Xorshift64Star, derive_seed

    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    trees = []
    for t in range(n_trees):
        rng = Xorshift64Star(derive_seed(seed, t))
        if bootstrap:
            counts = np.bincount([rng.randint(n) for _ in range(n)], minlength=n)
        else:
            counts = np.ones(n, dtype=int)
        idx = np.flatnonzero(counts)
        w = counts[idx].astype(float)
        root = {}
        queue = deque([(root, idx, w, (np.cumsum(w * y[idx])[-1], np.cumsum(w)[-1]), 0)])
        while queue:
            node, idx, w, (total, weight), depth = queue.popleft()
            split = None
            if not (weight < 2 * min_leaf
                    or (max_depth is not None and depth >= max_depth)
                    or np.all(y[idx] == y[idx[0]])):
                features = sorted(rng.sample_without_replacement(p, min(max_features, p)))
                split = _reference_best_split(X, y, idx, w, features, min_leaf)
            if split is None:
                node["value"] = float(total / weight)
                continue
            f, threshold, left, right = split
            node.update(feature=int(f), threshold=threshold, left={}, right={})
            for child, (rows, weights, sums) in zip((node["left"], node["right"]),
                                                    (left, right)):
                queue.append((child, rows, weights, sums, depth + 1))
        trees.append(root)
    return trees


def reference_dataset(panel, selected, spec, signal_lag, start, end):
    """The design matrix built one row and one cell at a time: for each
    week t of [start, end], the flu value at t - lag for each lag from
    ``spec.min_lag`` up, then each selected query's value at t -
    ``signal_lag`` in (resource, term) order; ``y`` is the flu value at t.
    Returns (X, y), or raises the InsufficientHistory of the first row
    that cannot be built, its target checked first, then its lags, then
    its query week."""
    from flunowcast.errors import InsufficientHistory
    from flunowcast.series import UGC_RESOURCES, week_range

    flu = panel.flu()
    terms = [term for kind in UGC_RESOURCES for term in selected.get(kind, ())]
    weeks = week_range(start, end)
    rows = []
    for t in weeks:
        if not flu.covers(t):
            raise InsufficientHistory(f"target week {t} outside the panel")
        earliest, latest = t - spec.max_lag, t - spec.min_lag
        if not (flu.covers(earliest) and flu.covers(latest)):
            raise InsufficientHistory(
                f"lags for {t} need {earliest}..{latest}, flu covers {flu.start}..{flu.end}")
        week = t - signal_lag
        if not panel.start <= week <= panel.end:
            raise InsufficientHistory(
                f"exogenous features for {t} need {week}, panel covers "
                f"{panel.start}..{panel.end}")
        rows.append([flu.value_at(t - lag) for lag in spec.lags()]
                    + [panel[term].value_at(week) for term in terms])
    return np.array(rows), np.array([flu.value_at(t) for t in weeks])
