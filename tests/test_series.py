import datetime as dt
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flunowcast.errors import DegenerateInput, EmptyIntersection, ShapeMismatch
from flunowcast.series import (
    ResourceKind,
    SignalPanel,
    WeekIndex,
    WeeklySeries,
    align,
    pearson,
    read_series_csv,
    standardize_apply,
    standardize_fit,
    write_series_csv,
)

from oracles import pearson_brute

W0 = WeekIndex(dt.date(2015, 1, 5))  # a Monday


def series(values, start=W0, name="s", resource=ResourceKind.SEARCH_QUERY):
    return WeeklySeries(name, resource, start, values)


class TestWeekIndex:
    def test_must_be_monday(self):
        with pytest.raises(ValueError):
            WeekIndex(dt.date(2015, 1, 6))

    def test_arithmetic(self):
        assert (W0 + 1).week_start == dt.date(2015, 1, 12)
        assert (W0 + 5) - W0 == 5
        assert (W0 + 5) - 5 == W0

    def test_ordering_matches_calendar(self):
        assert W0 < W0 + 1 < W0 + 2
        assert sorted([W0 + 3, W0, W0 + 1]) == [W0, W0 + 1, W0 + 3]


class TestAlign:
    def test_identical_ranges(self):
        panel = align([series([1, 2, 3], name="a"), series([4, 5, 6], name="b")])
        assert panel.start == W0 and panel.end == W0 + 2

    def test_overlap_trims_to_intersection(self):
        a = series(list(range(10)), start=W0, name="a")          # weeks 0..9
        b = series(list(range(11)), start=W0 + 4, name="b")      # weeks 4..14
        panel = align([a, b])
        assert panel.start == W0 + 4 and panel.end == W0 + 9
        assert panel["a"].values.tolist() == [4, 5, 6, 7, 8, 9]

    def test_disjoint_ranges(self):
        a = series([1, 2, 3, 4], start=W0, name="a")             # weeks 0..3
        b = series([1, 2, 3, 4], start=W0 + 5, name="b")         # weeks 5..8
        with pytest.raises(EmptyIntersection):
            align([a, b])

    def test_idempotent(self):
        panel = align([series(list(range(10)), name="a"),
                       series(list(range(11)), start=W0 - 1, name="b")])
        again = align(panel.members())
        assert again.start == panel.start and again.end == panel.end

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            SignalPanel([series([1, 2]), series([3, 4])])


class TestPearson:
    def test_self_correlation(self):
        s = series([1, 5, 2, 8])
        assert pearson(s, s) == pytest.approx(1.0)

    def test_exact_negation(self):
        assert pearson(series([1, 2, 3]), series([3, 2, 1], name="t")) == pytest.approx(-1.0)

    def test_hand_derived_value_against_brute_oracle(self):
        x, y = [1, 2, 3], [1, 2, 4]
        expected = pearson_brute(x, y)
        assert expected == pytest.approx(0.9819805060619659, abs=1e-12)
        assert pearson(series(x), series(y, name="t")) == pytest.approx(expected, abs=1e-14)

    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateInput):
            pearson(series([5, 5, 5]), series([1, 2, 3], name="t"))

    def test_constant_series_whose_mean_does_not_round_back(self):
        # np.full(260, 1234.567).std() is 2.3e-13, not 0
        flat = np.full(260, 1234.567)
        with pytest.raises(DegenerateInput):
            pearson(flat, np.arange(260.0))
        with pytest.raises(DegenerateInput):
            pearson(np.arange(260.0), flat)

    @pytest.mark.parametrize("power", [-1060, -1000, -600, 600, 1000, 1019])
    def test_power_of_two_scale_keeps_every_bit(self, power):
        # finite series whose sums of squares over- or underflow at raw scale
        x = np.array([1.0, 4.0, 2.0, 9.0, 3.0])
        y = np.array([2.0, 1.0, 7.0, 3.0, 5.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pearson(np.ldexp(x, power), y) == pearson(x, y)
            assert pearson(x, np.ldexp(y, power)) == pearson(x, y)

    def test_large_magnitude_self_correlation(self):
        x = np.array([1.0, 4.0, 2.0, 9.0, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pearson(1e300 * x, x) == pytest.approx(1.0, abs=1e-15)

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.floats(-100, 100), min_size=3, max_size=12),
           st.lists(st.floats(-100, 100), min_size=3, max_size=12))
    def test_symmetry(self, xs, ys):
        n = min(len(xs), len(ys))
        x, y = np.array(xs[:n]), np.array(ys[:n])
        if x.std() == 0 or y.std() == 0:
            return
        assert pearson(x, y) == pytest.approx(pearson(y, x), abs=1e-12)

    @settings(deadline=None, max_examples=40)
    @given(st.floats(0.1, 50), st.floats(-20, 20))
    def test_positive_affine_invariance(self, a, b):
        x = np.array([1.0, 4.0, 2.0, 9.0, 3.0])
        y = np.array([2.0, 1.0, 7.0, 3.0, 5.0])
        assert pearson(a * x + b, y) == pytest.approx(pearson(x, y), abs=1e-9)


class TestStandardize:
    def test_fit_hand_example(self):
        params = standardize_fit(np.array([[1.0], [2.0], [3.0]]))
        assert params.mean[0] == pytest.approx(2.0)
        # population std of (1,2,3) = sqrt(2/3)
        assert params.scale[0] == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-12)
        assert not params.degenerate[0]

    def test_constant_column_flagged(self):
        params = standardize_fit(np.array([[5.0], [5.0], [5.0]]))
        assert params.mean[0] == 5.0 and params.scale[0] == 0.0
        assert params.degenerate[0]

    def test_constant_column_with_nonzero_std_flagged(self):
        # the std of three 0.1s is 1.4e-17, not 0
        cols = np.column_stack([np.full(3, 0.1), [1.0, 2.0, 3.0]])
        params = standardize_fit(cols)
        assert params.degenerate.tolist() == [True, False]
        assert standardize_apply(cols, params)[:, 0].tolist() == [0.0, 0.0, 0.0]

    def test_singleton_column(self):
        params = standardize_fit(np.array([[0.0]]))
        assert params.mean[0] == 0.0 and params.scale[0] == 0.0

    def test_apply_hand_example(self):
        cols = np.array([[1.0], [2.0], [3.0]])
        out = standardize_apply(cols, standardize_fit(cols)).ravel()
        assert out == pytest.approx([-1.224744871391589, 0.0, 1.224744871391589], abs=1e-12)

    def test_degenerate_column_maps_to_zero(self):
        cols = np.array([[7.0], [7.0]])
        assert standardize_apply(cols, standardize_fit(cols)).tolist() == [[0.0], [0.0]]

    def test_train_mean_maps_to_zero(self):
        train = np.array([[2.0], [4.0], [6.0]])
        params = standardize_fit(train)
        assert standardize_apply(np.array([[4.0]]), params)[0, 0] == 0.0

    def test_shape_mismatch(self):
        params = standardize_fit(np.ones((3, 2)))
        with pytest.raises(ShapeMismatch):
            standardize_apply(np.ones((3, 4)), params)

    def test_round_trip_moments(self):
        rs = np.random.RandomState(0)
        cols = rs.normal(3.0, 7.0, size=(40, 5))
        out = standardize_apply(cols, standardize_fit(cols))
        assert np.abs(out.mean(axis=0)).max() < 1e-10
        assert np.abs(out.std(axis=0) - 1.0).max() < 1e-10


class TestCsvInterchange:
    def test_round_trip(self, tmp_path):
        s = series([1.5, 2.25, 0.0], name="vol")
        path = tmp_path / "vol.csv"
        write_series_csv(s, path)
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[0] == "date,value"
        loaded = read_series_csv(path)
        assert loaded.start == s.start
        assert np.array_equal(loaded.values, s.values)

    def test_gap_is_hard_error(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("date,value\n2015-01-05,1\n2015-01-19,2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="consecutive"):
            read_series_csv(path)

    def test_non_monday_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("date,value\n2015-01-06,1\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_series_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("week,count\n2015-01-05,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            read_series_csv(path)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_value_rejected(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(f"date,value\n2015-01-05,1\n2015-01-12,{text}\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=r"bad\.csv:3: value must be finite"):
            read_series_csv(path)


class TestWeeklySeries:
    def test_immutability(self):
        s = series([1, 2, 3])
        with pytest.raises(AttributeError):
            s.name = "other"
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    def test_slicing_and_lookup(self):
        s = series([10, 20, 30, 40])
        assert s.value_at(W0 + 2) == 30
        sub = s.slice(W0 + 1, W0 + 2)
        assert sub.values.tolist() == [20, 30]
        with pytest.raises(KeyError):
            s.value_at(W0 + 9)
