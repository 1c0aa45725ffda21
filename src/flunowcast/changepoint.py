"""Bayesian change-point analysis of a weekly series, plus the +/-1-week
match scoring between flu change points and proxy-resource change points.

Model: a product partition of the standardized series into contiguous
blocks with independent means. ``u[i] = 1`` marks a block boundary between
observations i and i+1 (0-indexed), so a series of length n has n-1
candidate positions. One Gibbs sweep resamples every position from its
conditional odds

    p_i / (1 - p_i) =
        [int_0^p0 p^b (1-p)^(n-b-1) dp] [int_0^w0 w^(b/2)     / (W1 + B1 w)^((n-1)/2) dw]
      / [int_0^p0 p^(b-1) (1-p)^(n-b) dp] [int_0^w0 w^((b-1)/2) / (W0 + B0 w)^((n-1)/2) dw]

where b counts the blocks with u[i] = 0, and W/B are the within- and
between-block sums of squares under each choice of u[i]. Posterior change
probabilities are the post-burn-in frequencies of u[i] = 1.

A sweep keeps only W, the block count and the current partition's
W-integral as running values:
- W + B is the series' total sum of squares for every partition, so B
  follows from W.
- A boundary at i splits its merged block [lo, hi] into n_l and n_r
  observations and lowers W by the gain n_l n_r / (n_l + n_r)
  (mean_l - mean_r)^2, read from the prefix sums of the series.
- Positions right of i are redrawn only after i, so hi is the first
  boundary past i as the sweep began; lo is a running index that moves to
  i + 1 whenever a draw leaves a boundary at i.
- So the gains come from the partition as the sweep begins, in numpy, once
  per sweep, with lo one past the last boundary left of i.
  The block sizes go over as floats, which is exact, and elementwise
  + - * / round as the scalar formula does (its int/int division too), so
  every gain has the scalar's bits. A flip at i moves lo for
  the block (i, hi] only; the sweep recomputes those gains one by one with
  the running lo as it reaches them.
- The conditional odds at a position compare the partitions with and
  without a boundary there; one of them is the current partition, whose
  W-integral f((blocks - 1)/2, W) was computed at the previous position (or
  before the first sweep). So a position lacks at most the other one.
- Most draws keep the position as it was, and a test without a log
  settles those without the lacking integral. It is a first-order form of
  a closed-form bound: where that integral takes its incomplete beta route
  (W > 0, B > 0, c = m - d - 1 > 0 with m = (n-1)/2, and x outside the
  small-x branch), I_x(a, c) <= 1 gives
      f(d, W) <= (d - m + 1) log W - (d + 1) log B + log B(a, c),
  with log B(a, c) tabulated by block count. Take W and B = total - W of
  the current partition, and at a position of gain g the bound's lacking =
  W - g without a boundary (W + g with one) and between = total - lacking.
  Then log t >= 1 - 1/t gives, for the exponents e_w < 0 < e_b of the bound,
      e_w log(lacking) <= e_w log W - e_w (W / lacking - 1),
      e_b log(between) >= e_b log B + e_b (1 - B / between),
  so the bound's log-odds are at most A_f - e_w W / lacking + e_b B /
  between at a position without a boundary, and at least A_t + e_w' W /
  lacking - e_b' B / between at one with a boundary. A_f and A_t (at k =
  blocks + 1 and blocks - 1) take two logs per partition, at each flip, and
  add log_p_ratio once a position needs it. Both forms hold for any
  positive W and B, and they read between itself, not B + g, which rounds
  at the scale of total. A draw settles when its log-odds bound is at or
  below logit(draw - 2 margin) - slack, or at or above logit(draw + 2
  margin) + slack; numpy computes those thresholds once per sweep, as -inf
  or NaN where draw -+ 2 margin leaves (0, 1), which settles nothing.
  Summed in the integral's own order, the bound drops only min(0, log I_x),
  a term never above 0, so after rounding it is still at or above the
  integral. The test's terms stay below about 100 n wherever it could pass,
  so its sums round by under 1e-12 n, and numpy's log differs from
  math.log by a few ulps, a few 1e-14 at a logit below 40: the slack, 1e-9
  or 1e-12 n (``_SLACK``), covers both, whatever kernels numpy's log runs.
  The margin (1e-12, ``_MARGIN``) covers the few ulps by which exp and the
  division can order probabilities against their log-odds. So the test
  settles only draws that the integral keeps. Every other draw (a flip, an
  undecided draw, an infinite current integral, a branch the bound does not
  cover) computes the integral, so the carried integral is always exact
  and every posterior keeps its bits.
- A W at or below 1e-12 times the total sum of squares counts as exactly
  zero. A partition into noiseless blocks has W = 0, but the running sums
  land near 1e-16 instead, and the W = 0 branches of the integral must not
  be decided by rounding.
- The sampler draws exactly one uniform per position, in order, so each
  sweep takes its n - 1 uniforms from the stream in one ``randoms`` call.

The series is first divided by the power of two that brings its largest
magnitude into [0.5, 1). That is exact, so ordinary inputs keep their bits,
and a finite series of any magnitude standardizes without overflow.

The two one-dimensional integrals reduce to incomplete-beta closed forms,
evaluated in log space in plain Python floats: log B(a, c) from
``math.lgamma``, and the regularized incomplete beta from its continued
fraction by modified Lentz, with the x > (a+1)/(a+c+2) symmetry swap (Press
et al., Numerical Recipes 3rd ed., section 6.4). The caller hands over
1 - x as well as x, so an x that rounds near 1 costs no accuracy. A fixed
tanh-sinh rule in s = -log(1 - t) covers the corners the closed form does
not: c <= 0, and a continued fraction that does not converge. So the
sampler needs no scipy and no BLAS, and its numbers do not depend on the
BLAS kernels. Tests cross-check both routes against mpmath and against
direct quadrature of the raw integrands.

The posteriors of ``score_resource`` are independent: each series samples
its own stream, seeded by ``derive_seed(config.seed, series index)``. So
the flu series and its chosen queries are cut into contiguous chunks, one
per CPU in the process's affinity mask and never more chunks than series;
the calling process samples the first chunk and a forked child each other
one (``parallel.run_chunks``). Every posterior, and so every output, is
the same at any CPU count, and a sampler error reaches the caller as the
same exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache
from math import lgamma, log

import numpy as np

from . import parallel
from .errors import AlignmentError, DegenerateInput
from .rng import Xorshift64Star, derive_seed
from .series import WeeklySeries, pearson, unit_scale

_LOG_ZERO = -np.inf


@dataclass(frozen=True)
class BcpConfig:
    """Sampler settings; p0 and w0 are the uniform-prior upper bounds for
    the change probability and the signal-to-noise weight."""

    iterations: int = 500
    burn_in: int = 50
    p0: float = 0.1
    w0: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError("need 0 <= burn_in < iterations")
        for name, value in (("p0", self.p0), ("w0", self.w0)):
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {value}")


@dataclass
class PosteriorResult:
    probabilities: np.ndarray  # length n - 1, each in [0, 1]


@dataclass
class MatchReport:
    """Counts and derived rates of the +/-window greedy matching.

    ``sensitivity``/``ppv`` are percentages, or None when the denominator
    is zero (the undefined-metric marker; serializes as JSON null).
    """

    true_positive: int
    false_positive: int
    false_negative: int
    sensitivity: float | None
    ppv: float | None


# ---------------------------------------------------------------------------
# Log-space incomplete-beta machinery
# ---------------------------------------------------------------------------

def _betaln(a: float, c: float) -> float:
    """log B(a, c) for a, c > 0."""
    return lgamma(a) + lgamma(c) - lgamma(a + c)


# Lentz's floor for a vanishing partial denominator, the convergence test on
# the last step's factor, and the most terms before quadrature stands in
_CF_TINY = 1e-300
_CF_EPS = 1e-15
_CF_TERMS = 1000


def _log_cf(a: float, c: float, x: float) -> float | None:
    """log of the continued fraction in I_x(a, c) = x^a (1-x)^c cf / (a B(a, c)),
    by modified Lentz (Press et al., Numerical Recipes 3rd ed., section 6.4).
    It converges fast for x < (a+1)/(a+c+2): a few dozen terms at the
    sampler's a, c. None if it has not converged after _CF_TERMS terms."""
    qab, qap, qam = a + c, a + 1.0, a - 1.0
    num = 1.0
    den = 1.0 - qab * x / qap
    if abs(den) < _CF_TINY:
        den = _CF_TINY
    den = 1.0 / den
    frac = den
    for k in range(1, _CF_TERMS + 1):
        k2 = 2 * k
        coef = k * (c - k) * x / ((qam + k2) * (a + k2))  # the even step
        den = 1.0 + coef * den
        if abs(den) < _CF_TINY:
            den = _CF_TINY
        num = 1.0 + coef / num
        if abs(num) < _CF_TINY:
            num = _CF_TINY
        den = 1.0 / den
        frac *= den * num
        coef = -(a + k) * (qab + k) * x / ((a + k2) * (qap + k2))  # the odd step
        den = 1.0 + coef * den
        if abs(den) < _CF_TINY:
            den = _CF_TINY
        num = 1.0 + coef / num
        if abs(num) < _CF_TINY:
            num = _CF_TINY
        den = 1.0 / den
        step = den * num
        frac *= step
        if abs(step - 1.0) < _CF_EPS:
            return log(frac) if frac > 0.0 else None
    return None


def _log_reg_inc_beta(a: float, c: float, x: float, y: float, beta: float) -> float:
    """log I_x(a, c) for c > 0, with y = 1 - x and beta = log B(a, c).

    Past x = (a+1)/(a+c+2) it takes the symmetry I_x(a, c) = 1 - I_y(c, a)
    and reads 1 - x from y alone, so x rounding near 1 costs nothing. Where
    the continued fraction does not converge, or 1 - I_y(c, a) is not
    representable, quadrature stands in.
    """
    if x > (a + 1.0) / (a + c + 2.0):
        if y == 0.0:
            return 0.0
        cf = _log_cf(c, a, y)
        if cf is not None:
            tail = math.exp(c * log(y) + a * log(x) - log(c) - beta + cf)
            if tail < 1.0:
                return math.log1p(-tail)
    else:
        cf = _log_cf(a, c, x)
        if cf is not None:
            return a * log(x) + c * log(y) - log(a) - beta + cf
    return _quad_log_inc_beta(a, c, x, y) - beta


def log_inc_beta(a: float, c: float, x: float, y: float | None = None) -> float:
    """log of int_0^x t^(a-1) (1-t)^(c-1) dt for a >= 1, x in [0, 1].

    y is 1 - x, computed by the caller without the subtraction where x is
    itself a rounded ratio near 1; by default 1 - x. c may be zero or
    negative provided y > 0 (the integral stays finite). For c > 0 the
    result is log B(a, c) + min(0, log I_x(a, c)), so it is never above
    ``_betaln(a, c)``, which the sampler's first-order test relies on. A
    small-x power expansion and log-scaled quadrature cover the rest.
    """
    if x <= 0.0:
        return _LOG_ZERO
    if x > 1.0:
        raise ValueError("x must lie in [0, 1]")
    if y is None:
        y = 1.0 - x
    if y <= 0.0 and c <= 0.0:
        return math.inf  # divergent tail
    # Small upper limit: (1-t)^(c-1) == 1 to working precision on [0, x].
    if x * (abs(c - 1.0) + 1.0) < 1e-10:
        return a * log(x) - log(a)
    if c <= 0.0:
        return _quad_log_inc_beta(a, c, x, y)
    beta = _betaln(a, c)
    return beta + min(0.0, _log_reg_inc_beta(a, c, x, y, beta))


@cache
def _tanh_sinh_rule() -> tuple[tuple[float, float], ...]:
    """(node, weight) pairs of the tanh-sinh rule (Takahasi & Mori, 1974) for
    int_0^1: node 1/(1 + e^(-2v)) and weight (pi/4) h cosh(u) / cosh(v)^2
    with v = (pi/2) sinh(u), at u = j h over |u| <= 3.5, where the weights
    fall below 1e-22. Plain floats, so the rule is the same under any BLAS."""
    h = 1.0 / 32.0
    rule = []
    for j in range(-112, 113):
        u = j * h
        v = 0.5 * math.pi * math.sinh(u)
        rule.append((1.0 / (1.0 + math.exp(-2.0 * v)),
                     0.25 * math.pi * h * math.cosh(u) / math.cosh(v) ** 2))
    return tuple(rule)


def _quad_log_inc_beta(a: float, c: float, x: float, y: float) -> float:
    """log of int_0^x t^(a-1) (1-t)^(c-1) dt with 1 - x = y > 0, by quadrature.

    In s = -log(1 - t) the integral is int_0^top g with top = -log(1 - x),
    from whichever of x and y is the smaller, and
    log g(s) = (a-1) log(1 - e^-s) - c s: concave, peaked at top for c <= 0
    and at log1p((a-1)/c) (or top) for c > 0. Each side of the peak, cut
    where log g falls 50 below its peak, takes the tanh-sinh rule, whose
    nodes crowd both ends: the peak, and the t^(a-1) singularity at s = 0.
    """
    top = -math.log1p(-x) if x < 0.5 else -log(y)

    def log_g(s: float) -> float:
        if s <= 0.0:
            return 0.0 if a == 1.0 else _LOG_ZERO
        return (a - 1.0) * log(-math.expm1(-s)) - c * s

    peak = top if c <= 0.0 else min(top, math.log1p((a - 1.0) / c))
    highest = log_g(peak)
    total = 0.0
    for end in (0.0, top):
        # from the peak toward this end, in doubling steps, to the cut
        far, step = peak, 1.0
        while far != end and log_g(far) >= highest - 50.0:
            far = max(end, peak - step) if end < peak else min(end, peak + step)
            step *= 2.0
        width = far - peak
        if width:
            total += abs(width) * sum(weight * math.exp(log_g(peak + width * node) - highest)
                                      for node, weight in _tanh_sinh_rule())
    return highest + log(total)


def log_w_integral(d: float, w_within: float, b_between: float,
                   w0: float, n: int) -> float:
    """log of int_0^w0 w^d (W + B w)^(-(n-1)/2) dw, W >= 0, B >= 0."""
    m = (n - 1) / 2.0
    if w_within > 0.0 and b_between > 0.0:  # the sampler's common case
        # t = B w / (W + B w) at w0, and 1 - t from W itself, not by subtraction
        scale = w_within + b_between * w0
        return ((d - m + 1.0) * log(w_within) - (d + 1.0) * log(b_between)
                + log_inc_beta(d + 1.0, m - d - 1.0, b_between * w0 / scale,
                               w_within / scale))
    w_within = max(0.0, w_within)
    b_between = max(0.0, b_between)
    if w_within == 0.0 and b_between == 0.0:
        raise DegenerateInput("both block sums vanish")
    if b_between == 0.0:
        return -m * log(w_within) + (d + 1.0) * log(w0) - log(d + 1.0)
    dm = d - m + 1.0  # W = 0
    if dm <= 0.0:
        return math.inf  # divergent at w -> 0: certainty in favor of this branch
    return -m * log(b_between) + dm * log(w0) - log(dm)


# ---------------------------------------------------------------------------
# The Gibbs sampler
# ---------------------------------------------------------------------------

# How far a settled draw must clear the probability of its log-odds. exp and
# the division are not jointly monotone, each within an ulp: adjacent log-odds
# can give probabilities up to 2.2e-16 in the wrong order. The first-order
# test's logit thresholds move the draw by 2 * _MARGIN, so a draw they settle
# still clears the probability by a whole margin after the logit's own
# rounding (draw -+ 2 margin and q / (1 - q), each within an ulp).
_MARGIN = 1e-12

# How far the first-order test's log-odds must clear the logit of a draw
# moved by 2 * _MARGIN, per 1000 observations and at least this: the rounding
# of the test's sums and of numpy's logit (module docstring).
_SLACK = 1e-9


def _probability(log_odds: float) -> float:
    """The change probability of a position from its log-odds."""
    if log_odds > 700.0:
        return 1.0
    if log_odds < -700.0:
        return 0.0
    odds = math.exp(log_odds)
    return odds / (1.0 + odds)


def bcp_posterior(series, config: BcpConfig = BcpConfig()) -> PosteriorResult:
    """Posterior change probabilities at every interior position.

    The input is standardized first so the p0/w0 priors act on a
    scale-free series; a zero-variance series short-circuits to all-zero
    probabilities without sampling. A series that is not 1-D, has fewer
    than 3 observations or is not finite raises ``ValueError``.
    """
    x = series.values if isinstance(series, WeeklySeries) else np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"series must be 1-D, got shape {x.shape}")
    n = x.size
    if n < 3:
        raise ValueError(f"need at least 3 observations, got {n}")
    if not np.all(np.isfinite(x)):
        raise ValueError("series must be finite")
    if x.min() == x.max():
        return PosteriorResult(probabilities=np.zeros(n - 1))
    x = unit_scale(x)  # exact, and x.std() cannot overflow
    std = (x - x.mean()) / float(x.std())

    prefix = np.concatenate(([0.0], np.cumsum(std)))  # prefix sums of the series
    sums = prefix.tolist()
    through = prefix[1:-1]                # the sum through each position
    total = float(np.sum(std * std))      # W + B for every partition; not a BLAS dot
    zero_w = 1e-12 * total
    slack = _SLACK * max(1.0, n / 1000.0)
    w0 = config.w0
    m = (n - 1) / 2.0
    positions = np.arange(n - 1)
    sizes = np.arange(float(n))           # a block size k as the float k
    u = bytearray(n - 1)                  # the partition: 1 where a boundary is held
    held = np.frombuffer(u, dtype=np.bool_)  # a view of u
    w_within = total                      # W of the current partition
    blocks = 1
    rng = Xorshift64Star(config.seed)
    counts = np.zeros(n - 1)
    current = log_w_integral(0.0, w_within, total - w_within, w0, n)  # f((blocks - 1)/2, W)

    p_ratios: list[float | None] = [None] * n  # by block count b, filled on first use

    def log_p_ratio(b: int) -> float:
        if p_ratios[b] is None:
            p_ratios[b] = (log_inc_beta(b + 1.0, float(n - b), config.p0)
                           - log_inc_beta(float(b), float(n - b + 1), config.p0))
        return p_ratios[b]

    def bound_terms(k: int) -> tuple[float, float, float, float]:
        # log_w_integral's exponents and log B(a, c) for a partition of k
        # blocks, and the least B at which the bound applies (none where
        # c <= 0): with W + B w0 <= W + B = total, B >= 2e-10 total /
        # (w0 (|c - 1| + 1)) keeps log_inc_beta's x clear of its small-x
        # branch, rounding included
        d = (k - 1) / 2.0
        c = m - d - 1.0
        if c <= 0.0:
            return 0.0, 0.0, 0.0, math.inf
        return (d - m + 1.0, d + 1.0, _betaln(d + 1.0, c),
                2e-10 * total / (w0 * (abs(c - 1.0) + 1.0)))

    terms = [None, *(bound_terms(k) for k in range(1, n + 1))]  # by block count k

    def first_order(w_within: float, blocks: int, current: float) -> list[tuple]:
        # the log-free test's constants for the partition (module
        # docstring), for a position without a boundary (k = blocks + 1)
        # and one with (k = blocks - 1): the least B at which the bound
        # applies, and base, w and b of its log-odds bound log_p_ratio +
        # base + w / lacking + b / between. A base of +inf (-inf) settles
        # nothing.
        between = total - w_within
        logs = w_within > 0.0 and between > 0.0
        log_w, log_b = (log(w_within), log(between)) if logs else (0.0, 0.0)
        sides = []
        for k, sign in ((blocks + 1, 1.0), (blocks - 1, -1.0)):
            if not 1 <= k <= n or current == math.inf:
                sides.append((math.inf, 0.0, 0.0, 0.0))
                continue
            e_w, e_b, log_beta, least = terms[k]
            base = (sign * (e_w * log_w - e_b * log_b + log_beta - current + e_w - e_b)
                    if logs else sign * math.inf)
            sides.append((least, base, -sign * e_w * w_within, sign * e_b * between))
        return sides

    (least_f, base_f, w_f, b_f), (least_t, base_t, w_t, b_t) = first_order(
        w_within, blocks, current)
    a_f = a_t = None  # log_p_ratio + base, once a position needs it

    for sweep in range(config.iterations):
        # the merged block [left, right] around each position as the sweep
        # begins, and the gain W0 - W1 of a boundary at each position
        cuts = np.flatnonzero(held)
        # (left is one past the last cut before i; where there is none,
        # index -1 reads the appended -1)
        left = np.append(cuts, -1)[np.searchsorted(cuts, positions) - 1] + 1
        right = np.append(cuts, n - 1)[np.searchsorted(cuts, positions, side="right")]
        n_l = sizes[positions + 1 - left]  # as floats, exactly
        n_r = sizes[right - positions]
        diff = (through - prefix[left]) / n_l - (prefix[right + 1] - through) / n_r
        gains = (n_l * n_r / (n_l + n_r) * diff * diff).tolist()
        # the log-odds at which the first-order bound settles each draw: at
        # or below logit(draw - 2 margin) - slack where no boundary is held,
        # at or above logit(draw + 2 margin) + slack = -(logit(1 - draw -
        # 2 margin) - slack) where one is. Where draw -+ 2 margin leaves
        # (0, 1), the logit is -inf or NaN, and no log-odds settles the draw
        drawn = rng.randoms(n - 1)
        draws = drawn.tolist()
        q = np.where(held, (1.0 - 2.0 * _MARGIN) - drawn, drawn - 2.0 * _MARGIN)
        with np.errstate(divide="ignore", invalid="ignore"):
            logit = np.log(q / (1.0 - q)) - slack
        settle = np.where(held, -logit, logit).tolist()
        lo = 0  # left edge of the merged block
        patched = -1  # positions up to here lie in a block that a flip changed
        for i, hi, draw, gain, settle_at in zip(
                range(n - 1), right.tolist(), draws, gains, settle):
            if i <= patched:
                n_l = i + 1 - lo
                n_r = hi - i
                diff = (sums[i + 1] - sums[lo]) / n_l - (sums[hi + 1] - sums[i + 1]) / n_r
                gain = n_l * n_r / (n_l + n_r) * diff * diff
            # w_within is already clamped; only the other side's W can fall
            # to zero up to the rounding of the sums (noiseless blocks). A
            # stay that the log-free test settles (module docstring) computes
            # no integral; a flip or an undecided draw does
            if u[i]:
                b = k = blocks - 1
                lacking = w_within + gain
                if lacking > zero_w:
                    between = total - lacking
                    if between >= least_t:
                        if a_t is None:
                            a_t = log_p_ratio(b) + base_t
                        if a_t + w_t / lacking + b_t / between >= settle_at:
                            lo = i + 1
                            continue
                else:
                    lacking, between = 0.0, total
                w_0, w_1 = lacking, w_within
            else:
                b, k = blocks, blocks + 1
                lacking = w_within - gain
                if lacking > zero_w:
                    between = total - lacking
                    if between >= least_f:
                        if a_f is None:
                            a_f = log_p_ratio(b) + base_f
                        if a_f + w_f / lacking + b_f / between <= settle_at:
                            continue
                else:
                    lacking, between = 0.0, total
                w_0, w_1 = w_within, lacking
            other = log_w_integral((k - 1) / 2.0, lacking, between, w0, n)
            num, den = (current, other) if u[i] else (other, current)
            if num == math.inf:
                # both infinite: W1 = W0 = 0, an extra boundary inside an
                # already-constant block; the numerator diverges strictly
                # slower, odds -> 0. Otherwise a noiseless step: the split
                # blocks are exactly constant.
                prob = 0.0 if den == math.inf else 1.0
            else:
                prob = _probability(log_p_ratio(b) + num - den)
            flip = (draw < prob) != u[i]
            if draw < prob:
                u[i] = True
                w_within, blocks, current, lo = w_1, b + 1, num, i + 1
            else:
                u[i] = False
                w_within, blocks, current = w_0, b, den
            if flip:
                (least_f, base_f, w_f, b_f), (least_t, base_t, w_t, b_t) = first_order(
                    w_within, blocks, current)
                a_f = a_t = None
                patched = hi
        if sweep >= config.burn_in:
            counts += held
    return PosteriorResult(probabilities=counts / (config.iterations - config.burn_in))


def detect(probabilities, threshold: float = 0.5) -> list[int]:
    """Positions whose change probability strictly exceeds the threshold."""
    probs = np.asarray(probabilities, dtype=float)
    return [int(i) for i in np.nonzero(probs > threshold)[0]]


def _report(tp: int, fp: int, fn: int) -> MatchReport:
    def rate(denominator: int) -> float | None:
        return None if denominator == 0 else 100.0 * tp / denominator
    return MatchReport(true_positive=tp, false_positive=fp, false_negative=fn,
                       sensitivity=rate(tp + fn), ppv=rate(tp + fp))


def match(flu_cps, resource_cps, window: int = 1) -> MatchReport:
    """Greedy nearest-first one-to-one matching within +/-window positions.

    Candidate pairs are processed by (distance, min position, max
    position); that key is invariant under swapping the two lists, which
    makes the counts swap-symmetric (FN <-> FP, sensitivity <-> ppv).
    """
    flu = list(flu_cps)
    res = list(resource_cps)
    for seq, label in ((flu, "flu"), (res, "resource")):
        if any(b <= a for a, b in zip(seq, seq[1:])):
            raise ValueError(f"{label} change points must be strictly ascending")
    pairs = [(abs(f - r), min(f, r), max(f, r), f, r)
             for f in flu for r in res if abs(f - r) <= window]
    pairs.sort()
    used_f: set[int] = set()
    used_r: set[int] = set()
    tp = 0
    for _, _, _, f, r in pairs:
        if f in used_f or r in used_r:
            continue
        used_f.add(f)
        used_r.add(r)
        tp += 1
    return _report(tp, len(res) - tp, len(flu) - tp)


@dataclass
class QueryScore:
    term: str
    correlation: float
    detected: list[int]
    report: MatchReport


@dataclass
class ResourceScore:
    flu_probabilities: np.ndarray
    flu_detected: list[int]
    queries: list[QueryScore]
    aggregate: MatchReport


def score_resource(flu: WeeklySeries, resource_queries, target: WeeklySeries,
                   config: BcpConfig = BcpConfig(), top_k: int = 3,
                   threshold: float = 0.5, window: int = 1) -> ResourceScore:
    """Change-point agreement between the flu series and the top_k queries
    most correlated with the target.

    Each series gets its own sampler stream derived from (config.seed,
    series index), so the posteriors run in chunks, one per CPU, with the
    same results at any CPU count. Pooled TP/FP/FN counts form the
    aggregate rates. Needs ``top_k >= 0``, ``window >= 0`` and
    ``0 <= threshold <= 1``; otherwise ``ValueError``, before any sampling.
    """
    if top_k < 0 or window < 0:
        raise ValueError(f"need top_k >= 0 and window >= 0, got {top_k} and {window}")
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"need 0 <= threshold <= 1, got {threshold}")
    queries = list(resource_queries)
    for q in queries:
        if q.start != flu.start or q.end != flu.end:
            raise AlignmentError(f"{q.name} is not aligned with the flu series")
    if target.start != flu.start or target.end != flu.end:
        raise AlignmentError("target is not aligned with the flu series")

    ranked: list[tuple[float, str, WeeklySeries]] = []
    for q in queries:
        try:
            r = pearson(q, target)
        except DegenerateInput:
            continue
        ranked.append((r, q.name, q))
    ranked.sort(key=lambda item: (-item[0], item[1]))
    chosen = ranked[:top_k]

    series = [flu, *(q for _, _, q in chosen)]

    def posteriors(chunk: range) -> list[np.ndarray]:
        return [bcp_posterior(series[idx],
                              replace(config, seed=derive_seed(config.seed, idx))).probabilities
                for idx in chunk]

    flu_probs, *query_probs = parallel.run_chunks(posteriors, len(series))
    flu_cps = detect(flu_probs, threshold)
    scores: list[QueryScore] = []
    for (r, name, _), probs in zip(chosen, query_probs):
        cps = detect(probs, threshold)
        scores.append(QueryScore(term=name, correlation=r, detected=cps,
                                 report=match(flu_cps, cps, window)))
    aggregate = _report(sum(s.report.true_positive for s in scores),
                        sum(s.report.false_positive for s in scores),
                        sum(s.report.false_negative for s in scores))
    return ResourceScore(flu_probabilities=flu_probs, flu_detected=flu_cps,
                         queries=scores, aggregate=aggregate)
