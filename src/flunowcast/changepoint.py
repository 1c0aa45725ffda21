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
  observations and lowers W by n_l n_r / (n_l + n_r) (mean_l - mean_r)^2,
  read from the prefix sums of the series.
- Positions right of i are redrawn only after i, so hi is the first
  boundary past i as the sweep began; lo is a running index that moves to
  i + 1 whenever a boundary is drawn at i.
- The conditional odds at a position compare the partitions with and
  without a boundary there; one of them is the current partition, whose
  W-integral f((blocks - 1)/2, W) was computed at the previous position (or
  before the first sweep). So each position computes one integral.
- A W at or below 1e-12 times the total sum of squares counts as exactly
  zero. A partition into noiseless blocks has W = 0, but the running sums
  land near 1e-16 instead, and the W = 0 branches of the integral must not
  be decided by rounding.
- The sampler draws exactly one uniform per position, in order, so each
  sweep takes its n - 1 uniforms from the stream in one ``randoms`` call.

The series is first divided by the power of two that brings its largest
magnitude into [0.5, 1). That is exact, so ordinary inputs keep their bits,
and a finite series of any magnitude standardizes without overflow.

The two one-dimensional integrals reduce to incomplete-beta closed forms
(evaluated in log space); a log-scaled adaptive quadrature covers the
parameter corners where the regularized incomplete beta under- or
overflows. The closed forms call ``betainc`` and ``betaln`` through
``scipy.special.cython_special``, the scalar entry points of the same C
routines, which skip the ufunc's per-call dispatch. They are bound on
their first call, or by ``score_resource`` before it forks, so importing
this module (and so every CLI command) loads no scipy, and the
``changepoint`` command pays for ``scipy.special`` once, in the calling
process; forked children inherit the binding. Tests cross-check both
routes against direct quadrature of the raw integrands.

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
from math import log

import numpy as np

from . import parallel
from .errors import AlignmentError, DegenerateInput
from .rng import Xorshift64Star, derive_seed
from .series import WeeklySeries, pearson, unit_scale

_LOG_ZERO = -np.inf


def _bind_special() -> None:
    """Bind ``_betainc`` and ``_betaln`` to the scalar entry points of the
    ufuncs betainc and betaln: the same C routines (bit for bit, tests pin
    it) without the ufunc's per-call dispatch; the double specialization of
    betainc also takes ints. Later calls go straight to C."""
    global _betainc, _betaln
    from scipy.special import cython_special
    _betainc = cython_special.betainc["double"]
    _betaln = cython_special.betaln


def _betainc(a, c, x):
    _bind_special()
    return _betainc(a, c, x)


def _betaln(a, c):
    _bind_special()
    return _betaln(a, c)


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

def log_inc_beta(a: float, c: float, x: float) -> float:
    """log of int_0^x t^(a-1) (1-t)^(c-1) dt for a >= 1, x in [0, 1].

    c may be zero or negative provided x < 1 (the integral stays finite).
    Uses the regularized incomplete beta where it is representable, a
    small-x power expansion, and log-scaled quadrature otherwise.
    """
    if x <= 0.0:
        return _LOG_ZERO
    if x > 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 1.0 and c <= 0.0:
        return math.inf  # divergent tail
    # Small upper limit: (1-t)^(c-1) == 1 to working precision on [0, x].
    if x * (abs(c - 1.0) + 1.0) < 1e-10:
        return a * log(x) - log(a)
    if c > 0.0:
        reg = _betainc(a, c, x)
        if reg > 0.0:
            return _betaln(a, c) + log(reg)
    return _quad_log_inc_beta(a, c, x)


def _quad_log_inc_beta(a: float, c: float, x: float) -> float:
    # imported on first use: scipy.integrate pulls in scipy.optimize, about
    # 0.4 s of start-up, and only these parameter corners need it
    from scipy.integrate import quad

    def g(t: float) -> float:
        if t <= 0.0:
            return 0.0 if a == 1.0 else -np.inf
        if t >= 1.0:
            return -np.inf
        return (a - 1.0) * math.log(t) + (c - 1.0) * math.log1p(-t)

    # peak of the log-integrand on (0, x]
    peak = x
    if a + c > 2.0 and a > 1.0:
        mode = (a - 1.0) / (a + c - 2.0)
        if 0.0 < mode < x:
            peak = mode
    m_val = max(g(x), g(peak), g(min(x, 1e-12)) if a == 1.0 else -np.inf)
    if not np.isfinite(m_val):
        return _LOG_ZERO
    val, _ = quad(lambda t: math.exp(g(t) - m_val), 0.0, x,
                  epsabs=1e-13, epsrel=1e-11, limit=200)
    if val <= 0.0:
        return _LOG_ZERO
    return m_val + math.log(val)


def log_w_integral(d: float, w_within: float, b_between: float,
                   w0: float, n: int) -> float:
    """log of int_0^w0 w^d (W + B w)^(-(n-1)/2) dw, W >= 0, B >= 0."""
    m = (n - 1) / 2.0
    if w_within > 0.0 and b_between > 0.0:  # the sampler's common case
        t_upper = b_between * w0 / (w_within + b_between * w0)
        return ((d - m + 1.0) * log(w_within) - (d + 1.0) * log(b_between)
                + log_inc_beta(d + 1.0, m - d - 1.0, t_upper))
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

def bcp_posterior(series, config: BcpConfig = BcpConfig()) -> PosteriorResult:
    """Posterior change probabilities at every interior position.

    The input is standardized first so the p0/w0 priors act on a
    scale-free series; a zero-variance series short-circuits to all-zero
    probabilities without sampling.
    """
    x = series.values if isinstance(series, WeeklySeries) else np.asarray(series, dtype=float)
    n = x.size
    if n < 3:
        raise ValueError(f"need at least 3 observations, got {n}")
    if not np.all(np.isfinite(x)):
        raise ValueError("series must be finite")
    if x.min() == x.max():
        return PosteriorResult(probabilities=np.zeros(n - 1))
    x = unit_scale(x)  # exact, and x.std() cannot overflow
    std = (x - x.mean()) / float(x.std())

    s1 = [0.0, *np.cumsum(std).tolist()]  # prefix sums of the series
    total = float(np.sum(std * std))      # W + B for every partition; not a BLAS dot
    zero_w = 1e-12 * total
    w0 = config.w0
    u = [False] * (n - 1)
    w_within = total                      # W of the current partition
    blocks = 1
    rng = Xorshift64Star(config.seed)
    counts = np.zeros(n - 1)
    current = log_w_integral(0.0, w_within, total - w_within, w0, n)  # f((blocks - 1)/2, W)

    log_p_ratios: dict[int, float] = {}  # by block count b, on first need

    for sweep in range(config.iterations):
        cuts = np.flatnonzero(u)
        # right edge of the merged block around each position
        right = np.append(cuts, n - 1)[
            np.searchsorted(cuts, np.arange(n - 1), side="right")].tolist()
        lo = 0  # left edge of the merged block
        for i, hi, draw in zip(range(n - 1), right, rng.randoms(n - 1)):
            n_l = i + 1 - lo
            n_r = hi - i
            diff = (s1[i + 1] - s1[lo]) / n_l - (s1[hi + 1] - s1[i + 1]) / n_r
            gain = n_l * n_r / (n_l + n_r) * diff * diff
            # w_within is already clamped; only the other side's W can fall
            # to zero up to the rounding of the sums (noiseless blocks)
            if u[i]:
                b = blocks - 1
                w_0, w_1 = w_within + gain, w_within
                if w_0 <= zero_w:
                    w_0 = 0.0
                num = current
                den = log_w_integral((b - 1) / 2.0, w_0, total - w_0, w0, n)
            else:
                b = blocks
                w_0, w_1 = w_within, w_within - gain
                if w_1 <= zero_w:
                    w_1 = 0.0
                num = log_w_integral(b / 2.0, w_1, total - w_1, w0, n)
                den = current
            if num == math.inf:
                # both infinite: W1 = W0 = 0, an extra boundary inside an
                # already-constant block; the numerator diverges strictly
                # slower, odds -> 0. Otherwise a noiseless step: the split
                # blocks are exactly constant.
                prob = 0.0 if den == math.inf else 1.0
            else:
                log_p = log_p_ratios.get(b)
                if log_p is None:
                    log_p = log_p_ratios[b] = (
                        log_inc_beta(b + 1.0, float(n - b), config.p0)
                        - log_inc_beta(float(b), float(n - b + 1), config.p0))
                log_odds = log_p + num - den
                if log_odds > 700.0:
                    prob = 1.0
                elif log_odds < -700.0:
                    prob = 0.0
                else:
                    odds = math.exp(log_odds)
                    prob = odds / (1.0 + odds)
            if draw < prob:
                u[i] = True
                w_within, blocks, current, lo = w_1, b + 1, num, i + 1
            else:
                u[i] = False
                w_within, blocks, current = w_0, b, den
        if sweep >= config.burn_in:
            counts += u
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
    aggregate rates. Needs ``top_k >= 0`` and ``window >= 0``; otherwise
    ``ValueError``.
    """
    if top_k < 0 or window < 0:
        raise ValueError(f"need top_k >= 0 and window >= 0, got {top_k} and {window}")
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

    _bind_special()  # before any fork, so that no child imports scipy.special again
    flu_probs, *query_probs = parallel.run_chunks(posteriors, parallel.chunks(len(series)))
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
