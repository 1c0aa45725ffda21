import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flunowcast import changepoint
from flunowcast.changepoint import (
    BcpConfig,
    bcp_posterior,
    detect,
    log_inc_beta,
    log_w_integral,
    match,
    score_resource,
)
from flunowcast.rng import Xorshift64Star, derive_seed
from flunowcast.series import ResourceKind, WeekIndex, WeeklySeries
from flunowcast.synth import SynthConfig, gen_flu

from oracles import (
    quad_log_p_integral,
    quad_log_w_integral,
    reference_bcp_posterior,
)

import datetime as dt

W0 = WeekIndex(dt.date(2015, 10, 5))


def step_series(n_left=30, n_right=30, jump=10.0, noise_sd=0.1, seed=0):
    rng = Xorshift64Star(seed)
    base = np.concatenate([np.zeros(n_left), np.full(n_right, jump)])
    return base + np.array(rng.normals(n_left + n_right, sd=noise_sd))


class TestConfig:
    def test_defaults_match_protocol(self):
        cfg = BcpConfig()
        assert cfg.iterations == 500 and cfg.p0 == 0.1 and cfg.w0 == 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            BcpConfig(iterations=0)
        with pytest.raises(ValueError):
            BcpConfig(burn_in=500, iterations=500)
        with pytest.raises(ValueError):
            BcpConfig(p0=0.0)
        with pytest.raises(ValueError):
            BcpConfig(w0=1.5)


class TestIntegrals:
    def test_w_integral_matches_quadrature_oracle(self):
        rs = np.random.RandomState(0)
        for _ in range(60):
            n = int(rs.randint(4, 150))
            b = int(rs.randint(1, n - 1))
            w_sum = float(rs.uniform(1e-4, n))
            b_sum = float(rs.uniform(1e-4, n))
            for d in (b / 2.0, (b - 1) / 2.0):
                mine = log_w_integral(d, w_sum, b_sum, 0.1, n)
                ref = quad_log_w_integral(d, w_sum, b_sum, 0.1, n)
                assert mine == pytest.approx(ref, abs=1e-8)

    def test_p_integral_matches_quadrature_oracle(self):
        for n in (5, 20, 60, 150):
            for b in range(1, min(n - 1, 10)):
                num = log_inc_beta(b + 1.0, float(n - b), 0.1)
                den = log_inc_beta(float(b), float(n - b + 1), 0.1)
                assert num == pytest.approx(quad_log_p_integral(b, n - b - 1, 0.1), abs=1e-8)
                assert den == pytest.approx(quad_log_p_integral(b - 1, n - b, 0.1), abs=1e-8)

    @staticmethod
    def sampler_grid():
        # the sampler's incomplete-beta arguments: a = k/2 + 1 and
        # c = (n - 1)/2 - a for a partition of k + 1 blocks, x across (0, 1)
        xs = [1e-9, 1e-5, *np.linspace(0.001, 0.999, 37).tolist(), 1 - 1e-9]
        for n in (5, 30, 61, 260):
            for k in range(n - 1):
                a = k / 2.0 + 1.0
                c = (n - 1) / 2.0 - a
                if c > 0.0:
                    yield a, c, xs

    def test_closed_form_matches_mpmath(self):
        # error in the log over max(1, |log|): relative where the log is
        # large, the integral's own relative error where it is small. Both
        # routines stay within 3.6e-14 on this grid (x = 0.999 at a = 129,
        # c = 1/2 is the worst, through the symmetry swap).
        def err(mine, exact):
            exact = float(exact)
            return abs(mine - exact) / max(1.0, abs(exact))

        with mpmath.workdps(30):
            for a, c, xs in self.sampler_grid():
                assert err(changepoint._betaln(a, c), mpmath.log(mpmath.beta(a, c))) < 1e-13
                for x in xs:
                    exact = mpmath.log(mpmath.betainc(a, c, 0, x))
                    assert err(log_inc_beta(a, c, x), exact) < 1e-13, (a, c, x)

    def test_closed_form_never_exceeds_log_beta(self):
        # the sampler's bound drops log I_x <= 0 from the integral's sum
        # and must stay at or above it bit for bit, up to x = 1
        for a, c, xs in self.sampler_grid():
            beta = changepoint._betaln(a, c)
            for x in [*xs, math.nextafter(1.0, 0.0), 1.0]:
                assert log_inc_beta(a, c, x) <= beta, (a, c, x)
                assert log_inc_beta(a, c, x, 1.0 - x) <= beta, (a, c, x)
            assert log_inc_beta(a, c, 1.0) == beta
            assert log_inc_beta(a, c, 1.0, 1e-300) <= beta

    def test_corner_quadrature_matches_mpmath(self):
        # c = 0, -1/2 and -1 (partitions of n - 2, n - 1 and n blocks), from
        # small x to 1 - x = 1e-30; x and y = 1 - x are each rounded once, as
        # log_w_integral's ratios are, and the smaller of the two is exact
        def exact(a, c, x, y):
            with mpmath.workdps(25 + max(0, int(-math.log10(y)))):
                t = mpmath.mpf(x) if x < 0.5 else 1 - mpmath.mpf(y)
                return float(mpmath.log(t ** a / a * mpmath.hyp2f1(a, 1 - c, a + 1, t)))

        for n in (5, 30, 261):
            for k in (n - 2, n - 1, n):
                a, c = (k + 1) / 2.0, (n - k - 2) / 2.0
                for small in (1e-6, 0.1, 0.5):
                    want = exact(a, c, small, 1.0 - small)
                    assert log_inc_beta(a, c, small, 1.0 - small) == pytest.approx(
                        want, rel=1e-12), (a, c, small)
                for y in (1e-3, 1e-9, 1e-15, 1e-30):
                    want = exact(a, c, 1.0 - y, y)
                    assert log_inc_beta(a, c, 1.0 - y, y) == pytest.approx(
                        want, rel=1e-12), (a, c, y)

    def test_quadrature_stands_in_for_an_unconverged_fraction(self, monkeypatch):
        expected = {(a, c, x): log_inc_beta(a, c, x)
                    for a, c, xs in self.sampler_grid() if a % 7 == 1 for x in xs[::6]}
        monkeypatch.setattr(changepoint, "_CF_TERMS", 0)
        for (a, c, x), value in expected.items():
            assert log_inc_beta(a, c, x) == pytest.approx(value, rel=1e-12, abs=1e-12)
            assert log_inc_beta(a, c, x) <= changepoint._betaln(a, c)

    @pytest.mark.parametrize("a, closed_form", [
        (1.5, lambda x: 2.0 * math.sqrt(x / (1.0 - x)) - 2.0 * math.asin(math.sqrt(x))),
        (2.0, lambda x: 2.0 / math.sqrt(1.0 - x) + 2.0 * math.sqrt(1.0 - x) - 4.0),
    ])
    def test_negative_c_matches_closed_form_up_to_the_endpoint(self, a, closed_form):
        # c = -1/2: the integrand (1-t)^(-3/2) peaks at x, and within a few
        # (1 - x) of it for x near 1 (the quadrature fallback's corner)
        for x in [0.1, 0.5, 0.9, 1 - 4.4e-9,
                  *(1.0 - 10.0 ** -k for k in range(2, 16))]:
            assert log_inc_beta(a, -0.5, x) == pytest.approx(
                math.log(closed_form(x)), rel=1e-12, abs=1e-12), x

    def test_w_integral_with_tiny_within_sum_matches_quadrature_oracle(self):
        # W down to the sampler's zero threshold, 1e-12 n, and up to n - 1
        # blocks, where c = m - d - 1 <= 0 sends log_inc_beta to quadrature.
        # x = B w0 / (W + B w0) rounds near 1, so 1 - x goes over as
        # W / (W + B w0), never by subtraction
        assert log_w_integral(0.5, 8.8e-10, 2.0, 0.1, 3) == pytest.approx(-1.15139674, abs=1e-7)
        for n in (3, 4, 5, 7, 12):
            for b in range(1, n):
                for d in (b / 2.0, (b - 1) / 2.0):
                    for w_sum in (1e-12 * n, 1e-9 * n, 1e-5 * n, 0.5 * n):
                        for w0 in (1e-3, 0.1, 1.0):
                            b_sum = n - w_sum
                            mine = log_w_integral(d, w_sum, b_sum, w0, n)
                            ref = quad_log_w_integral(d, w_sum, b_sum, w0, n)
                            assert abs(mine - ref) <= 1e-9, (n, b, d, w_sum, w0)

    def test_degenerate_within_sums(self):
        # W = 0 with a divergent exponent: overwhelming evidence for a split
        assert log_w_integral(1.0, 0.0, 5.0, 0.1, 60) == math.inf
        # B = 0: single-block closed form
        val = log_w_integral(1.0, 5.0, 0.0, 0.1, 10)
        assert val == pytest.approx(quad_log_w_integral(1.0, 5.0, 1e-300, 0.1, 10), abs=1e-6)


class TestPosterior:
    def test_constant_series_short_circuits(self):
        post = bcp_posterior(np.full(40, 7.0), BcpConfig(seed=1))
        assert post.probabilities.shape == (39,)
        assert np.all(post.probabilities == 0.0)

    def test_constant_series_with_nonzero_std_short_circuits(self):
        # np.full(260, 1234.567).std() is 2.3e-13, not 0
        post = bcp_posterior(np.full(260, 1234.567), BcpConfig(iterations=20, burn_in=2))
        assert np.all(post.probabilities == 0.0)

    def test_step_series_detection(self):
        post = bcp_posterior(step_series(seed=5), BcpConfig(seed=9))
        p = post.probabilities
        assert p[29] > 0.9
        away = np.concatenate([p[:27], p[33:]])
        assert away.max() < 0.5

    def test_probabilities_in_unit_interval(self):
        post = bcp_posterior(step_series(seed=2), BcpConfig(seed=3))
        assert post.probabilities.min() >= 0.0
        assert post.probabilities.max() <= 1.0
        assert post.probabilities.size == 59

    def test_fixed_seed_bitwise_identical(self):
        x = step_series(seed=4)
        a = bcp_posterior(x, BcpConfig(seed=11)).probabilities
        b = bcp_posterior(x, BcpConfig(seed=11)).probabilities
        assert np.array_equal(a, b)

    def test_matches_reference_sampler_with_scratch_sums(self):
        # same integrals and RNG stream, independent partition bookkeeping:
        # posteriors must agree bitwise across seeds; the 260-week flu curve
        # has long blocks, which exercises the right-edge lookup
        step = step_series(n_left=14, n_right=14, seed=21)
        flu = gen_flu(SynthConfig(years=5, seed=42)).values
        cases = [(step, BcpConfig(iterations=120, burn_in=20, seed=seed))
                 for seed in range(10)]
        cases += [(flu, BcpConfig(iterations=25, burn_in=5, seed=seed))
                  for seed in range(3)]
        for x, cfg in cases:
            prod = bcp_posterior(x, cfg).probabilities
            ref = reference_bcp_posterior(x, cfg)
            assert np.array_equal(prod, ref), f"n {x.size}, seed {cfg.seed}"

    def test_noiseless_steps_detected_exactly(self):
        # every block constant: W is exactly zero, not rounding noise
        x = np.array([1.3] * 12 + [2.9] * 12 + [0.45] * 6)
        for seed in range(8):
            assert detect(bcp_posterior(x, BcpConfig(seed=seed)).probabilities) \
                == [11, 23], f"seed {seed}"

    def test_scale_and_shift_leave_detections_unchanged(self):
        x = step_series(seed=6)
        base = detect(bcp_posterior(x, BcpConfig(seed=2)).probabilities)
        moved = detect(bcp_posterior(400.0 * x + 1000.0, BcpConfig(seed=2)).probabilities)
        assert base == moved

    @pytest.mark.parametrize("power", [-1000, -600, 600, 1000])
    def test_power_of_two_scale_keeps_every_bit(self, power):
        # finite series whose standard deviation over- or underflows at raw
        # scale; the sampler's exact rescale gives the unscaled posterior
        x = step_series(seed=6)
        expected = bcp_posterior(x, BcpConfig(iterations=60, burn_in=5, seed=2)).probabilities
        scaled = bcp_posterior(np.ldexp(x, power), BcpConfig(iterations=60, burn_in=5, seed=2))
        assert np.array_equal(scaled.probabilities, expected)

    def test_large_magnitude_keeps_detections(self):
        x = step_series(seed=6)
        base = detect(bcp_posterior(x, BcpConfig(seed=2)).probabilities)
        assert detect(bcp_posterior(1e200 * x, BcpConfig(seed=2)).probabilities) == base

    def test_noise_rarely_detected(self):
        over = []
        for seed in range(3):
            rng = Xorshift64Star(derive_seed(1234, seed))
            x = np.array(rng.normals(60))
            p = bcp_posterior(x, BcpConfig(seed=seed)).probabilities
            over.append((p > 0.5).mean())
        assert float(np.mean(over)) < 0.05

    def test_too_short_series_rejected(self):
        with pytest.raises(ValueError):
            bcp_posterior(np.array([1.0, 2.0]), BcpConfig())

    @pytest.mark.parametrize("x", [np.arange(12.0).reshape(3, 4), np.arange(12.0).reshape(12, 1),
                                   np.array(5.0)])
    def test_series_that_is_not_1d_rejected(self, x):
        with pytest.raises(ValueError, match="1-D"):
            bcp_posterior(x, BcpConfig(iterations=10, burn_in=1))

    @pytest.mark.parametrize("x", [step_series(n_left=10, n_right=12, seed=3),
                                   np.array([1.3] * 8 + [2.9] * 8)])
    def test_one_w_integral_per_position(self, monkeypatch, x):
        # the current partition's integral is carried from the previous
        # draw, across sweeps too, so a position computes at most the other
        # side's, looked up by its module-global name; most stays are
        # settled by the first-order test and compute none
        calls = []
        sweeps = []

        def counted(*args):
            calls.append(len(sweeps))
            return log_w_integral(*args)

        class Stream(Xorshift64Star):
            def randoms(self, k):
                sweeps.append(k)
                return super().randoms(k)

        cfg = BcpConfig(iterations=30, burn_in=5, seed=2)
        expected = reference_bcp_posterior(x, cfg)
        monkeypatch.setattr(changepoint, "log_w_integral", counted)
        monkeypatch.setattr(changepoint, "Xorshift64Star", Stream)
        assert np.array_equal(bcp_posterior(x, cfg).probabilities, expected)
        assert sweeps == [x.size - 1] * cfg.iterations
        assert calls.count(0) == 1  # the empty partition's, before the first sweep
        assert max(calls.count(s) for s in range(1, cfg.iterations + 1)) <= x.size - 1

    @settings(deadline=None, max_examples=100)
    @given(st.integers(3, 12), st.sampled_from(["normal", "integers", "blocks", "steps"]),
           st.sampled_from([1.0, 1e300]), st.sampled_from([1e-3, 0.1, 0.5, 1.0]),
           st.sampled_from([1e-14, 1e-9, 1e-3, 0.1, 1.0]), st.integers(0, 2 ** 32 - 1))
    @example(6, "steps", 1.0, 0.5, 1.0, 10)
    @example(7, "steps", 1.0, 1.0, 1.0, 11)
    def test_bound_keeps_every_posterior_bit(self, n, kind, scale, p0, w0, seed):
        # The reference computes both integrals at every position: the
        # first-order test may skip an integral, never change a draw. Short
        # series put c = m - d - 1 at or below 1 (and below 0); at k = n - 3
        # blocks c = 1/2 and log B(a, c) > 0, which the explicit examples
        # reach.
        # Noiseless blocks take the W = 0 branches, w0 = 1e-14 the small-x
        # branch.
        rs = np.random.RandomState(seed)
        if kind == "normal":
            x = rs.standard_normal(n)
        elif kind == "integers":  # duplicated values
            x = rs.randint(0, 3, n).astype(float)
        else:  # constant blocks, or blocks with a little noise
            cuts = np.sort(rs.choice(np.arange(1, n), rs.randint(1, n), replace=False))
            x = np.repeat(rs.randint(-3, 4, cuts.size + 1), np.diff([0, *cuts, n])) * 1.3
            if kind == "steps":
                x = x + 0.1 * rs.standard_normal(n)
        assume(x.min() < x.max())
        cfg = BcpConfig(iterations=20, burn_in=2, p0=p0, w0=w0, seed=seed)
        x = x * scale
        assert np.array_equal(bcp_posterior(x, cfg).probabilities,
                              reference_bcp_posterior(x, cfg))

    def test_block_geometry_keeps_every_posterior_bit(self):
        # A sweep takes its gains from the partition as it began, and a flip
        # at i recomputes the gains of (i, hi] with the new left edge. Series
        # up to 40 long hold blocks long enough for flips inside them; the
        # cases also flip the last position and positions next to a boundary.
        rs = np.random.RandomState(23)
        inside = last = beside = 0
        for case in range(24):
            n = int(rs.randint(13, 41))
            cuts = np.sort(rs.choice(np.arange(1, n), rs.randint(1, 5), replace=False))
            x = np.repeat(rs.randint(-3, 4, cuts.size + 1), np.diff([0, *cuts, n])) * 1.3
            x = x + rs.choice([0.05, 0.3, 1.0]) * rs.standard_normal(n)
            cfg = BcpConfig(iterations=20, burn_in=2, p0=float(rs.choice([0.1, 0.5])),
                            w0=float(rs.choice([0.1, 1.0])), seed=case)
            flips = []
            assert np.array_equal(bcp_posterior(x, cfg).probabilities,
                                  reference_bcp_posterior(x, cfg, flips)), f"case {case}"
            for i, before in flips:
                left = i > 0 and before[i - 1]
                right = i + 2 < n and before[i + 1]
                inside += i + 2 < n and not (left or right)
                last += i == n - 2
                beside += bool(left or right)
        assert inside and last and beside

    def test_draws_near_0_and_1_keep_every_posterior_bit(self, monkeypatch):
        # every fifth draw lies within a few margins of 0 or 1, where the
        # log-odds thresholds are infinite or nearly so; the thresholds are
        # computed without a RuntimeWarning, which the test settings make an
        # error
        edges = [0.0, 5e-324, 1e-12, 2e-12, 3e-12, 1.0 - 3e-12, 1.0 - 2e-12,
                 1.0 - 1e-12, 1.0 - 2.0 ** -53]

        class Edges(Xorshift64Star):
            def __init__(self, seed):
                super().__init__(seed)
                self.drawn = 0

            def random(self):
                value = super().random()
                self.drawn += 1
                return edges[self.drawn // 5 % len(edges)] if self.drawn % 5 == 0 else value

            def randoms(self, k):
                return np.array([self.random() for _ in range(k)], dtype=float)

        monkeypatch.setattr(changepoint, "Xorshift64Star", Edges)
        monkeypatch.setattr("flunowcast.rng.Xorshift64Star", Edges)  # the reference's
        for x in (step_series(n_left=12, n_right=9, seed=4), np.array([1.3] * 8 + [2.9] * 8)):
            cfg = BcpConfig(iterations=40, burn_in=5, seed=3)
            assert np.array_equal(bcp_posterior(x, cfg).probabilities,
                                  reference_bcp_posterior(x, cfg))

    def test_flu_curve_integral_count_is_pinned(self, monkeypatch):
        # every flip and every draw that the first-order test leaves
        # undecided computes the lacking W-integral: 3859 calls on the
        # seed-42 flu curve at seed 1, the empty partition's included
        calls = []

        def counted(*args):
            calls.append(args)
            return log_w_integral(*args)

        monkeypatch.setattr(changepoint, "log_w_integral", counted)
        bcp_posterior(gen_flu(SynthConfig(years=5, seed=42)).values, BcpConfig(seed=1))
        assert len(calls) == 3859

    def test_bound_settles_most_positions_of_the_flu_curve(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return log_w_integral(*args)

        flu = gen_flu(SynthConfig(years=5, seed=42)).values
        cfg = BcpConfig(seed=1)
        monkeypatch.setattr(changepoint, "log_w_integral", counted)
        bcp_posterior(flu, cfg)
        assert len(calls) <= 0.1 * cfg.iterations * (flu.size - 1)

    def test_margin_covers_the_rounding_of_the_probability(self):
        # exp and the division are not jointly monotone: adjacent log-odds
        # can give probabilities an ulp apart in the wrong order. A
        # first-order test without the margin could then settle a draw that
        # the exact probability flips.
        rs = np.random.RandomState(0)
        drops = []
        for log_odds in rs.uniform(-40.0, 40.0, 20000):
            above = math.nextafter(log_odds, math.inf)
            drops.append(changepoint._probability(log_odds)
                         - changepoint._probability(above))
        assert max(drops) > 0.0
        assert max(drops) < changepoint._MARGIN


class TestDetect:
    def test_hand_example(self):
        assert detect([0.2, 0.9, 0.4], threshold=0.5) == [1]

    def test_all_below(self):
        assert detect([0.1, 0.2], threshold=0.5) == []

    def test_boundary_is_strict(self):
        assert detect([0.5, 0.500001], threshold=0.5) == [1]


class TestMatch:
    def test_hand_counted_example(self):
        report = match([10, 20], [11, 35], window=1)
        assert (report.true_positive, report.false_positive,
                report.false_negative) == (1, 1, 1)
        assert report.sensitivity == pytest.approx(50.0)
        assert report.ppv == pytest.approx(50.0)

    def test_identical_lists(self):
        report = match([3, 9, 14], [3, 9, 14])
        assert report.sensitivity == 100.0 and report.ppv == 100.0

    def test_empty_resource(self):
        report = match([5, 6], [])
        assert report.true_positive == 0
        assert report.false_negative == 2 and report.false_positive == 0
        assert report.sensitivity == 0.0
        assert report.ppv is None  # undefined marker

    def test_one_to_one_matching(self):
        # two resource points near one flu point: only one can match
        report = match([10], [9, 11], window=1)
        assert report.true_positive == 1
        assert report.false_positive == 1

    def test_requires_ascending(self):
        with pytest.raises(ValueError):
            match([5, 4], [1])

    @settings(deadline=None, max_examples=120)
    @given(st.lists(st.integers(0, 30), min_size=0, max_size=8, unique=True),
           st.lists(st.integers(0, 30), min_size=0, max_size=8, unique=True),
           st.integers(0, 3))
    def test_swap_symmetry(self, a, b, window):
        a, b = sorted(a), sorted(b)
        fwd = match(a, b, window)
        rev = match(b, a, window)
        assert fwd.true_positive == rev.true_positive
        assert fwd.false_negative == rev.false_positive
        assert fwd.false_positive == rev.false_negative
        assert fwd.sensitivity == rev.ppv
        assert fwd.ppv == rev.sensitivity


class TestScoreResource:
    def weekly(self, values, name, kind=ResourceKind.SEARCH_QUERY):
        return WeeklySeries(name, kind, W0, values)

    def test_identical_query_high_sensitivity(self):
        hits = 0
        total = 0
        for seed in range(10):
            x = step_series(n_left=20, n_right=20, seed=seed + 50)
            flu = self.weekly(x, "flu", ResourceKind.FLU_PATIENTS)
            query = self.weekly(x.copy(), "mirror")
            score = score_resource(flu, [query], flu,
                                   BcpConfig(iterations=200, burn_in=20, seed=seed),
                                   top_k=1)
            report = score.aggregate
            if report.sensitivity is not None:
                hits += report.true_positive
                total += report.true_positive + report.false_negative
        assert total > 0
        assert 100.0 * hits / total >= 90.0

    def test_top_k_saturation(self):
        x = step_series(n_left=15, n_right=15, seed=77)
        flu = self.weekly(x, "flu", ResourceKind.FLU_PATIENTS)
        queries = [self.weekly(x + i, f"q{i}") for i in range(2)]
        score = score_resource(flu, queries, flu,
                               BcpConfig(iterations=100, burn_in=10, seed=0),
                               top_k=10)
        assert len(score.queries) == 2

    @pytest.mark.parametrize("kwargs", [{"top_k": -1}, {"window": -1}])
    def test_negative_top_k_or_window_rejected(self, kwargs):
        x = step_series(n_left=10, n_right=10, seed=1)
        flu = self.weekly(x, "flu", ResourceKind.FLU_PATIENTS)
        with pytest.raises(ValueError, match="top_k >= 0 and window >= 0"):
            score_resource(flu, [self.weekly(x, "q")], flu,
                           BcpConfig(iterations=10, burn_in=1), **kwargs)

    @pytest.mark.parametrize("threshold", [-1.0, -1e-9, 1.5, 2.0, math.nan, math.inf])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        x = step_series(n_left=10, n_right=10, seed=1)
        flu = self.weekly(x, "flu", ResourceKind.FLU_PATIENTS)
        with pytest.raises(ValueError, match="0 <= threshold <= 1"):
            score_resource(flu, [self.weekly(x, "q")], flu,
                           BcpConfig(iterations=10, burn_in=1), threshold=threshold)

    def test_flat_flu_undefined_sensitivity(self):
        rng = Xorshift64Star(8)
        quiet = np.array(rng.normals(40, sd=1.0))  # no real change points
        stepq = step_series(n_left=20, n_right=20, seed=3)
        flu = self.weekly(quiet, "flu", ResourceKind.FLU_PATIENTS)
        query = self.weekly(stepq, "q")
        score = score_resource(flu, [query], query,
                               BcpConfig(iterations=150, burn_in=20, seed=4),
                               top_k=1)
        if not score.flu_detected:  # quiet series yielded no detections
            assert score.aggregate.sensitivity is None
            assert score.aggregate.false_positive == len(score.queries[0].detected)
