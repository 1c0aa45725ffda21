import datetime as dt

import numpy as np
import pytest

from flunowcast.errors import EmptyTrain, InsufficientHistory
from flunowcast.features import (
    LagSpec,
    SplitPlan,
    build_dataset,
    expanding_splits,
    export_csv,
)
from flunowcast.series import ResourceKind, SignalPanel, WeekIndex, WeeklySeries, week_range

from oracles import reference_dataset

W0 = WeekIndex(dt.date(2013, 9, 30))

UGC = [ResourceKind.SEARCH_QUERY, ResourceKind.SOCIAL_MEDIA,
       ResourceKind.SHOPPING, ResourceKind.QA_SERVICE]


def ramp_flu(n=120):
    """Flu value at week index k equals k."""
    return WeeklySeries("flu", ResourceKind.FLU_PATIENTS, W0, np.arange(n, dtype=float))


def panel_with_queries(counts=(1, 1, 1, 1), n=120):
    members = [ramp_flu(n)]
    for kind, count in zip(UGC, counts):
        for i in range(count):
            name = f"{kind.value}{i}"
            members.append(WeeklySeries(name, kind, W0,
                                        np.arange(n, dtype=float) * 10 + i))
    return SignalPanel(members), {
        kind: [f"{kind.value}{i}" for i in range(count)]
        for kind, count in zip(UGC, counts)
    }


def built_row(panel, selected, t, spec=LagSpec(), signal_lag=2):
    """Week t's row of build_dataset, checked against the oracle's."""
    ds = build_dataset(panel, selected, spec, signal_lag, start=t, end=t)
    X, y = reference_dataset(panel, selected, spec, signal_lag, t, t)
    assert np.array_equal(ds.X, X) and np.array_equal(ds.y, y)
    return ds.X[0]


def build_error(panel, selected, spec, signal_lag, start, end) -> str:
    """build_dataset's InsufficientHistory message, checked against the
    oracle's."""
    with pytest.raises(InsufficientHistory) as built:
        build_dataset(panel, selected, spec, signal_lag, start=start, end=end)
    with pytest.raises(InsufficientHistory) as oracle:
        reference_dataset(panel, selected, spec, signal_lag, start, end)
    assert str(built.value) == str(oracle.value)
    return str(built.value)


class TestLagFeatures:
    def test_ramp_default_spec(self):
        vec = built_row(SignalPanel([ramp_flu()]), {}, W0 + 55)
        assert vec.shape == (52,)
        assert vec[0] == 53.0 and vec[-1] == 2.0  # lag 2 first, lag 53 last

    def test_insufficient_history_at_boundary(self):
        panel = SignalPanel([ramp_flu()])
        message = build_error(panel, {}, LagSpec(), 2, W0 + 52, W0 + 52)  # needs week -1
        assert message.startswith("lags for ")
        assert built_row(panel, {}, W0 + 53)[-1] == 0.0

    def test_degenerate_single_lag(self):
        vec = built_row(SignalPanel([ramp_flu()]), {}, W0 + 10,
                        LagSpec(min_lag=2, max_lag=2))
        assert vec.tolist() == [8.0]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LagSpec(min_lag=0, max_lag=5)
        with pytest.raises(ValueError):
            LagSpec(min_lag=6, max_lag=5)
        assert LagSpec().n_lags == 52


ONE_LAG = LagSpec(min_lag=1, max_lag=1)  # a row's query block is X[1:]


class TestExogenousFeatures:
    def test_zero_signal_lag(self):
        panel, selected = panel_with_queries((1, 0, 0, 0))
        t = W0 + 7
        vec = built_row(panel, selected, t, ONE_LAG, signal_lag=0)[1:]
        assert vec.tolist() == [panel["search0"].value_at(t)]

    def test_shift_semantics(self):
        panel, selected = panel_with_queries((1, 0, 0, 0))
        t = W0 + 7
        vec = built_row(panel, selected, t, ONE_LAG, signal_lag=2)[1:]
        assert vec.tolist() == [panel["search0"].value_at(t - 2)]

    def test_paper_resource_counts_give_fifty(self):
        panel, selected = panel_with_queries((13, 18, 10, 9))
        vec = built_row(panel, selected, W0 + 10, ONE_LAG, signal_lag=2)[1:]
        assert vec.shape == (50,)

    def test_insufficient_history(self):
        panel, selected = panel_with_queries((1, 0, 0, 0))
        message = build_error(panel, selected, ONE_LAG, 2, W0 + 1, W0 + 1)
        assert message.startswith("exogenous features for ")


@pytest.mark.parametrize("spec", [LagSpec(1, 1), LagSpec(2, 3), LagSpec(1, 6),
                                  LagSpec(4, 4)])
@pytest.mark.parametrize("signal_lag", [-3, -1, 0, 2, 5, 8])
def test_build_matches_oracle_over_ranges(spec, signal_lag):
    """Every [start, end] from before the panel to past its end: the same
    X and y as the row-by-row oracle, or the same error for the same row."""
    panel, selected = panel_with_queries((2, 1, 0, 1), n=16)
    outcomes = set()
    for s in range(-2, 19):
        for e in range(s, 19):
            start, end = W0 + s, W0 + e
            try:
                X, y = reference_dataset(panel, selected, spec, signal_lag, start, end)
            except InsufficientHistory as exc:
                with pytest.raises(InsufficientHistory) as built:
                    build_dataset(panel, selected, spec, signal_lag, start=start, end=end)
                assert str(built.value) == str(exc)
                outcomes.add(str(exc).split(" ")[0])
                continue
            ds = build_dataset(panel, selected, spec, signal_lag, start=start, end=end)
            assert np.array_equal(ds.X, X) and np.array_equal(ds.y, y)
            assert ds.weeks == week_range(start, end)
            outcomes.add("built")
    assert {"built", "target", "lags"} <= outcomes
    if signal_lag < 0 or signal_lag > spec.max_lag:
        assert "exogenous" in outcomes


def test_reversed_range_is_rejected():
    panel, selected = panel_with_queries((1, 0, 0, 0))
    with pytest.raises(ValueError, match="end precedes start"):
        build_dataset(panel, selected, ONE_LAG, 2, start=W0 + 10, end=W0 + 9)


class TestBuildDataset:
    def test_row_and_feature_counts(self):
        panel, selected = panel_with_queries((13, 18, 10, 9))
        ds = build_dataset(panel, selected, LagSpec(), 2,
                           start=W0 + 60, end=W0 + 69)
        assert ds.X.shape == (10, 102)  # 52 lags + 50 queries
        assert len(ds.feature_names) == 102
        assert ds.feature_names[0] == "flu_lag02"

    def test_lag_only_dataset(self):
        panel, _ = panel_with_queries((0, 0, 0, 0))
        ds = build_dataset(panel, {}, LagSpec(), 2, start=W0 + 60, end=W0 + 64)
        assert ds.X.shape == (5, 52)

    def test_insufficient_history(self):
        panel, selected = panel_with_queries((1, 0, 0, 0))
        with pytest.raises(InsufficientHistory):
            build_dataset(panel, selected, LagSpec(), 2, start=W0 + 10, end=W0 + 20)

    def test_rebuild_is_bitwise_identical(self):
        panel, selected = panel_with_queries((2, 1, 1, 1))
        a = build_dataset(panel, selected, LagSpec(), 2, start=W0 + 60, end=W0 + 80)
        b = build_dataset(panel, selected, LagSpec(), 2, start=W0 + 60, end=W0 + 80)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
        assert a.feature_names == b.feature_names

    def test_no_leakage_from_future_weeks(self):
        """Changing panel values after a row's information horizon cannot
        change that row's features or target."""
        n = 120
        panel, selected = panel_with_queries((1, 1, 0, 0), n=n)
        t = W0 + 80
        ds = build_dataset(panel, selected, LagSpec(), 2, start=W0 + 60, end=t)
        row = ds.X[ds.row_index(t)].copy()

        tampered = []
        for s in panel.members():
            values = s.values.copy()
            cut = (t - W0) + 1  # strictly after the target week
            values[cut:] += 1e6
            tampered.append(WeeklySeries(s.name, s.resource, s.start, values))
        ds2 = build_dataset(SignalPanel(tampered), selected, LagSpec(), 2,
                            start=W0 + 60, end=t)
        assert np.array_equal(ds2.X[ds2.row_index(t)], row)
        assert ds2.y[ds2.row_index(t)] == ds.y[ds.row_index(t)]


class TestExpandingSplits:
    def make_dataset(self, n_rows=5):
        panel, _ = panel_with_queries((0, 0, 0, 0))
        return build_dataset(panel, {}, LagSpec(), 2,
                             start=W0 + 60, end=W0 + 60 + n_rows - 1)

    def test_expanding_train_sizes(self):
        ds = self.make_dataset(5)
        plan = SplitPlan.of(W0 + 60, [(W0 + 63, W0 + 64)])
        sizes = [s.train_idx.size for s in expanding_splits(ds, plan)]
        assert sizes == [3, 4]

    def test_first_row_has_no_train(self):
        ds = self.make_dataset(5)
        # window starting at the first dataset row: nothing precedes it
        plan = SplitPlan(train_start=W0 + 59, eval_windows=((W0 + 60, W0 + 60),))
        with pytest.raises(EmptyTrain):
            list(expanding_splits(ds, plan))

    def test_split_count_matches_window_lengths(self):
        ds = self.make_dataset(40)
        plan = SplitPlan.of(W0 + 60, [(W0 + 70, W0 + 79),
                                      (W0 + 85, W0 + 89),
                                      (W0 + 95, W0 + 99)])
        splits = list(expanding_splits(ds, plan))
        assert len(splits) == 10 + 5 + 5

    def test_training_rows_strictly_precede_test(self):
        ds = self.make_dataset(30)
        plan = SplitPlan.of(W0 + 60, [(W0 + 75, W0 + 85)])
        for split in expanding_splits(ds, plan):
            train_weeks = [ds.weeks[i] for i in split.train_idx]
            assert all(w < split.test_week for w in train_weeks)
            assert all(w >= plan.train_start for w in train_weeks)

    def test_eval_week_outside_dataset_raises(self):
        ds = self.make_dataset(5)
        plan = SplitPlan.of(W0 + 60, [(W0 + 63, W0 + 65)])
        with pytest.raises(KeyError, match="is not a dataset row"):
            list(expanding_splits(ds, plan))
        assert ds.row_index(W0 + 64) == 4
        with pytest.raises(KeyError):
            ds.row_index(W0 + 59)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            SplitPlan.of(W0 + 10, [(W0 + 5, W0 + 6)])            # before start
        with pytest.raises(ValueError):
            SplitPlan.of(W0, [(W0 + 5, W0 + 8), (W0 + 7, W0 + 9)])  # overlap


def test_export_csv(tmp_path):
    panel, selected = panel_with_queries((1, 0, 0, 0))
    ds = build_dataset(panel, selected, LagSpec(2, 3), 2, start=W0 + 10, end=W0 + 12)
    out = tmp_path / "ds.csv"
    export_csv(ds, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "target_date,y,flu_lag02,flu_lag03,search:search0"
    assert len(lines) == 4
