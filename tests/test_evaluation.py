import datetime as dt
import inspect
import json

import numpy as np
import pytest

from flunowcast.errors import AllActualsZero, DegenerateActuals, InsufficientHistory
from flunowcast import evaluation, parallel
from flunowcast.evaluation import (
    MODELS,
    ModelSpec,
    backtest,
    compute_metrics,
    drop_labels,
    mae,
    mape,
    r2,
    result_to_dict,
    write_plot_csv,
    write_report_json,
)
from flunowcast.features import (
    LagSpec,
    SplitPlan,
    SupervisedDataset,
    build_dataset,
    expanding_splits,
)
from flunowcast.rng import derive_seed
from flunowcast.series import (
    ResourceKind,
    SignalPanel,
    WeekIndex,
    WeeklySeries,
    standardize_apply,
    standardize_fit,
)
from flunowcast.synth import ProxyConfig, SynthConfig, gen_flu, gen_proxy

from oracles import reference_dataset

W0 = WeekIndex(dt.date(2013, 9, 30))
UGC = [ResourceKind.SEARCH_QUERY, ResourceKind.SOCIAL_MEDIA,
       ResourceKind.SHOPPING, ResourceKind.QA_SERVICE]


class TestMetrics:
    def test_r2_perfect_fit(self):
        assert r2([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_r2_mean_predictor_is_zero(self):
        actual = [1.0, 2.0, 3.0]
        assert r2([2.0, 2.0, 2.0], actual) == 0.0

    def test_r2_hand_example(self):
        assert r2([1.0, 2.0, 2.0], [1.0, 2.0, 3.0]) == pytest.approx(0.5, abs=1e-12)

    def test_r2_degenerate_actuals(self):
        with pytest.raises(DegenerateActuals):
            r2([1.0, 2.0], [5.0, 5.0])

    def test_r2_train_mean_on_heldout_nonpositive(self):
        train_mean = 10.0
        heldout = [1.0, 2.0, 3.0]
        assert r2([train_mean] * 3, heldout) <= 0.0

    def test_mae(self):
        assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert mae([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]) == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert mae([10.0], [7.0]) == 3.0

    def test_mape(self):
        value, skipped = mape([110.0], [100.0])
        assert value == pytest.approx(10.0, abs=1e-12) and skipped == 0
        value, skipped = mape([1.0, 2.0], [1.0, 2.0])
        assert value == 0.0

    def test_mape_skips_zero_actuals(self):
        value, skipped = mape([5.0, 110.0], [0.0, 100.0])
        assert skipped == 1
        assert value == pytest.approx(10.0, abs=1e-12)

    def test_mape_all_zero(self):
        with pytest.raises(AllActualsZero):
            mape([1.0, 2.0], [0.0, 0.0])

    @pytest.mark.parametrize("metric, predicted, actual, error, message", [
        (r2, [1.0, 2.0], [1.0], ValueError, "length mismatch"),
        (mae, [1.0, 2.0], [1.0], ValueError, "length mismatch"),
        (mape, [1.0, 2.0], [1.0], ValueError, "length mismatch"),
        (compute_metrics, [1.0, 2.0], [1.0], ValueError, "length mismatch"),
        (r2, [1.0], [1.0], ValueError, "need at least 2 points"),
        (compute_metrics, [1.0], [1.0], ValueError, "need at least 2 points"),
        (mae, [], [], ValueError, "need at least 1 point$"),
        (mape, [], [], AllActualsZero, "every actual value is zero"),
        (compute_metrics, [1.0], [0.0], AllActualsZero, "every actual value is zero"),
    ])
    def test_bad_pair_raises_in_order(self, metric, predicted, actual, error, message):
        with pytest.raises(error, match=message):
            metric(predicted, actual)

    def test_report_recompute_bitwise(self):
        rs = np.random.RandomState(0)
        actual = rs.uniform(10, 100, 30)
        predicted = actual + rs.normal(0, 5, 30)
        a = compute_metrics(predicted, actual)
        b = compute_metrics(predicted, actual)
        assert (a.r2, a.mae, a.mape) == (b.r2, b.mae, b.mape)

    def test_r2_never_exceeds_one_and_errors_vanish_iff_equal(self):
        rs = np.random.RandomState(4)
        for _ in range(50):
            actual = rs.uniform(1, 100, 12)
            predicted = actual + rs.normal(0, rs.uniform(0, 20), 12)
            assert r2(predicted, actual) <= 1.0
            assert mae(predicted, actual) >= 0.0
            assert mape(predicted, actual)[0] >= 0.0
            if not np.array_equal(predicted, actual):
                assert mae(predicted, actual) > 0.0
        actual = rs.uniform(1, 100, 12)
        assert mae(actual, actual) == 0.0
        assert mape(actual, actual)[0] == 0.0


class TestModelSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            ModelSpec("ridge")

    @pytest.mark.parametrize("kind, options", [("lasso", {"lam": 1e9}),
                                               ("svr", {"C": 5.0})])
    def test_mistyped_option_rejected(self, kind, options):
        with pytest.raises(ValueError) as err:
            ModelSpec(kind, options)
        message = str(err.value)
        assert kind in message and repr(next(iter(options))) in message
        assert all(repr(key) in message for key in MODELS[kind].options)

    @pytest.mark.parametrize("kind, options", [
        ("lasso", {"lambda": "1"}),
        ("lasso", {"intercept": 1}),
        ("huber", {"sigma": "2.0"}),
        ("svr", {"c": None}),
        ("forest", {"n_trees": "5"}),
        ("forest", {"n_trees": 5.0}),
        ("forest", {"max_depth": True}),
        ("arima", {"order": [3, 1]}),
        ("arima", {"order": ["3", 1, 2]}),
        ("lasso", {"lambda": float("nan")}),
        ("svr", {"c": float("inf")}),
        ("huber", {"sigma": float("-inf")}),
    ])
    def test_wrongly_typed_option_rejected(self, kind, options):
        key = next(iter(options))
        with pytest.raises(ValueError, match=f"{kind} option '{key}' must be"):
            ModelSpec(kind, options)

    def test_well_typed_options_accepted(self):
        ModelSpec("lasso", {"lambda": 1, "intercept": False})
        ModelSpec("huber", {"delta": 2, "sigma": None})
        ModelSpec("svr", {"c": 1000.0, "epsilon": 0})
        ModelSpec("forest", {"n_trees": 5, "max_depth": None, "max_features": 3,
                             "bootstrap": False})
        ModelSpec("arima", {"order": [3, 1, 2]})
        ModelSpec("arima", {"order": (1, 0, 0)})

    def test_table_names_real_fit_keywords(self):
        # every keyword of a fit, past its data arguments, is a run-config
        # option; only the forest's per-split seed and Huber's loss form are not
        for entry in MODELS.values():
            params = inspect.signature(getattr(evaluation, entry.fit)).parameters
            keywords = {name for name, param in params.items()
                        if param.default is not param.empty} - {"seed", "form"}
            assert set(entry.options.values()) == keywords
            assert ("seed" in params) == entry.seeded

    def test_options_reach_the_fit(self):
        X = np.arange(24.0).reshape(12, 2) % 5.0
        y = X @ np.array([1.0, -2.0])
        assert ModelSpec("lasso", {"lambda": 0.5}).fit(X, y).lam == 0.5
        assert ModelSpec("svr", {"c": 3.0}).fit(X, y).c_penalty == 3.0
        forest = ModelSpec("forest", {"n_trees": 2}).fit(X, y, seed=7)
        assert (forest.n_trees, forest.seed) == (2, 7)
        series = np.sin(np.arange(40.0))
        assert ModelSpec("arima", {"order": [1, 0, 0]}).fit(series).order == (1, 0, 0)


def informative_panel(seed=101, lead=2):
    flu = gen_flu(SynthConfig(years=5, seed=seed))
    members = [flu]
    for i, kind in enumerate(UGC):
        members.append(gen_proxy(flu, ProxyConfig(
            name=f"q{i}", resource=kind, lead_weeks=lead, gain=0.05,
            noise_sd=150.0, seed=derive_seed(seed, i + 1))))
    panel = SignalPanel(members)
    selected = {kind: [f"q{i}"] for i, kind in enumerate(UGC)}
    return panel, selected


def short_plan(panel, start_off=210, length=8):
    return SplitPlan.of(panel.start + 53,
                        [(panel.start + start_off, panel.start + start_off + length - 1)])


def one_split_rows(panel, selected, kind):
    """The backtest rows of ``kind`` (a forest of 60 trees) over a one-week
    window, which no metric can score, made as ``backtest`` makes them."""
    plan = short_plan(panel, length=1)
    spec = ModelSpec(kind, {"n_trees": 60} if kind == "forest" else {})
    count, make_row = evaluation._row_source(panel, selected, spec, plan, LagSpec(), 2, 3,
                                             "none")
    return parallel.run_chunks(lambda chunk: [make_row(i) for i in chunk], count)


class TestBacktest:
    def test_lag_only_huber_has_signal(self):
        panel, _ = informative_panel()
        plan = short_plan(panel, length=12)
        result = backtest(panel, {}, ModelSpec("huber"), plan, seed=0)[0]
        assert result.metrics.r2 > 0.0
        assert len(result.predictions) == 12

    def test_forest_seeded_determinism(self):
        panel, selected = informative_panel()
        plan = short_plan(panel, length=4)
        spec = ModelSpec("forest", {"n_trees": 8})
        a = backtest(panel, selected, spec, plan, seed=5)[0]
        b = backtest(panel, selected, spec, plan, seed=5)[0]
        assert a.predictions == b.predictions
        assert (a.metrics.r2, a.metrics.mae, a.metrics.mape) == \
            (b.metrics.r2, b.metrics.mae, b.metrics.mape)

    def test_window_before_history_fails(self):
        panel, selected = informative_panel()
        # training start inside the lag horizon: the dataset build cannot
        # reach back far enough and the failure propagates out
        bad_plan = SplitPlan.of(panel.start + 10,
                                [(panel.start + 20, panel.start + 22)])
        with pytest.raises(InsufficientHistory):
            backtest(panel, selected, ModelSpec("huber"), bad_plan, seed=0)

    def test_splits_are_order_independent(self):
        """Processing splits in any order reproduces the sequential
        backtest bitwise (no hidden state between fits)."""
        panel, selected = informative_panel()
        plan = short_plan(panel, length=6)
        sequential = backtest(panel, selected, ModelSpec("huber"), plan, seed=3)[0]

        dataset = build_dataset(panel, selected, LagSpec(), 2,
                                start=plan.train_start, end=plan.last_week)
        splits = list(expanding_splits(dataset, plan))
        out = {}
        for orig_pos in [4, 0, 5, 2, 1, 3]:
            split = splits[orig_pos]
            x_train = dataset.X[split.train_idx]
            params = standardize_fit(x_train)
            model = ModelSpec("huber").fit(standardize_apply(x_train, params),
                                           dataset.y[split.train_idx],
                                           seed=derive_seed(3, orig_pos))
            x_test = standardize_apply(dataset.X[split.test_idx][None, :], params)[0]
            out[split.test_week] = float(model.predict(x_test))
        reassembled = [out[w] for w, _, _ in sequential.predictions]
        assert reassembled == [p for _, _, p in sequential.predictions]

    @pytest.mark.parametrize("kind", list(MODELS))
    def test_one_split_rows_do_not_depend_on_cpu_count(self, monkeypatch, kind):
        # a window of one week has one split, which runs here at any CPU count
        panel, selected = informative_panel()
        rows = set()
        for cpus in (1, 2, 3, 5):
            monkeypatch.setattr(parallel, "cpus", lambda: cpus)
            rows.add(tuple(one_split_rows(panel, selected, kind)))
        assert len(rows) == 1 and len(next(iter(rows))) == 1

    @pytest.mark.parametrize("kind", list(MODELS))
    def test_one_split_forks_nothing(self, monkeypatch, fork_log, kind):
        # one split is one chunk, and no fit forks, not even 60 trees on 2 CPUs
        panel, selected = informative_panel()
        monkeypatch.setattr(parallel, "cpus", lambda: 2)
        one_split_rows(panel, selected, kind)
        assert fork_log.read_bytes() == b""

    @pytest.mark.parametrize("kind", list(MODELS))
    def test_unscorable_window_fails_before_any_fit(self, monkeypatch, kind):
        # R^2 needs 2 points, and MAPE a nonzero count: the backtest raises
        # what scoring would raise, and fits nothing first
        panel, selected = informative_panel()
        plan = short_plan(panel, length=1)
        week = plan.last_week
        flu = panel.flu()
        zero = flu.values.copy()
        zero[week - flu.start] = 0.0
        zeroed = SignalPanel([WeeklySeries(flu.name, flu.resource, flu.start, zero),
                              *(s for s in panel.members() if s is not flu)])
        fits = []
        monkeypatch.setattr(evaluation, MODELS[kind].fit, lambda *a, **k: fits.append(a))
        with pytest.raises(ValueError, match="^need at least 2 points$"):
            backtest(panel, selected, ModelSpec(kind), plan, seed=0)
        with pytest.raises(AllActualsZero, match="^every actual value is zero$"):
            backtest(zeroed, selected, ModelSpec(kind), plan, seed=0)
        # a later window's one week fails too, after an earlier scorable one
        two = SplitPlan.of(plan.train_start, [(week - 3, week - 2), (week, week)])
        with pytest.raises(ValueError, match="^need at least 2 points$"):
            backtest(panel, selected, ModelSpec(kind), two, seed=0)
        assert fits == []

    @pytest.mark.parametrize("kind", list(MODELS))
    @pytest.mark.parametrize("signal_lag", [-1, -3])
    def test_negative_signal_lag_fails_before_any_fit(self, monkeypatch, kind, signal_lag):
        # a negative lag feeds each row query volumes from after its target
        # week; such backtests used to be scored
        panel, selected = informative_panel()
        fits = []
        monkeypatch.setattr(evaluation, MODELS[kind].fit, lambda *a, **k: fits.append(a))
        for drop in ("none", "past"):
            with pytest.raises(ValueError, match=f"^signal_lag must be >= 0, got {signal_lag}: "
                                                 "a negative lag reads query volumes from "
                                                 "after the target week$"):
                backtest(panel, selected, ModelSpec(kind), short_plan(panel),
                         signal_lag=signal_lag, seed=0, drop=drop)
        assert fits == []

    def test_zero_signal_lag_backtests(self):
        # the same week's query volumes are known when the week is nowcast
        panel, selected = informative_panel()
        result = backtest(panel, selected, ModelSpec("huber"), short_plan(panel),
                          signal_lag=0, seed=0)[0]
        assert result.metrics.n == 8

    def test_arima_week_past_panel_fails_before_any_fit_or_fork(self, monkeypatch, fork_log):
        # every week's target and history cutoff are checked before any fit:
        # on 2 CPUs the failing week would be a forked child's, after the
        # calling process had fit the first
        panel, selected = informative_panel()
        fits = []
        fit = evaluation.fit_arima
        monkeypatch.setattr(evaluation, "fit_arima",
                            lambda *a, **k: fits.append(a) or fit(*a, **k))
        monkeypatch.setattr(parallel, "cpus", lambda: 2)
        past_end = SplitPlan.of(panel.start + 53, [(panel.end - 1, panel.end + 1)])
        with pytest.raises(InsufficientHistory,
                           match=f"^target week {panel.end + 1} outside the panel$"):
            backtest(panel, selected, ModelSpec("arima"), past_end, seed=0)
        early = SplitPlan.of(panel.start, [(panel.start + 1, panel.start + 4)])
        with pytest.raises(InsufficientHistory,
                           match=f"^history cutoff {panel.start - 1} outside the panel$"):
            backtest(panel, selected, ModelSpec("arima"), early, seed=0)
        assert fits == []
        assert fork_log.read_bytes() == b""

    def test_arima_window_outside_panel_fails(self):
        panel, _ = informative_panel()
        past_end = SplitPlan.of(panel.start + 53, [(panel.end, panel.end + 1)])
        with pytest.raises(InsufficientHistory, match="target week .* outside the panel"):
            backtest(panel, {}, ModelSpec("arima"), past_end, seed=0)
        # a 2-week horizon from the panel's second week reaches before its start
        early = SplitPlan.of(panel.start, [(panel.start + 1, panel.start + 2)])
        with pytest.raises(InsufficientHistory, match="history cutoff .* outside the panel"):
            backtest(panel, {}, ModelSpec("arima"), early, seed=0)

    def test_arima_ignores_exogenous_features(self):
        panel, selected = informative_panel()
        plan = short_plan(panel, length=4)
        with_queries = backtest(panel, selected, ModelSpec("arima"), plan, seed=0)[0]
        without = backtest(panel, {}, ModelSpec("arima"), plan, seed=0)[0]
        assert with_queries.predictions == without.predictions

    def test_multiple_windows_reported_separately(self):
        panel, selected = informative_panel()
        plan = SplitPlan.of(panel.start + 53,
                            [(panel.start + 150, panel.start + 153),
                             (panel.start + 210, panel.start + 213)])
        results = backtest(panel, selected, ModelSpec("huber"), plan, seed=0)
        assert len(results) == 2
        assert results[0].window != results[1].window


def report_text(results) -> str:
    """The results as backtest.json writes them: equal text means equal bits."""
    return json.dumps([result_to_dict(r) for r in results], sort_keys=True)


class TestAblate:
    def test_labels(self):
        assert drop_labels() == ["none", "search", "social", "shopping", "qa", "past"]

    def test_none_equals_plain_backtest(self):
        panel, selected = informative_panel()
        plan = short_plan(panel, length=4)
        plain = backtest(panel, selected, ModelSpec("huber"), plan, seed=7)[0]
        ablated = backtest(panel, selected, ModelSpec("huber"), plan,
                           drop="none", seed=7)[0]
        assert ablated.predictions == plain.predictions

    @pytest.mark.parametrize("spec", [ModelSpec("huber"),
                                      ModelSpec("forest", {"n_trees": 3})])
    def test_resource_row_is_a_backtest_without_that_resource(self, spec):
        panel, selected = informative_panel()
        plan = short_plan(panel, length=3)
        for kind in UGC:
            reduced = {k: terms for k, terms in selected.items() if k is not kind}
            expected = backtest(panel, reduced, spec, plan, seed=3)
            row = backtest(panel, selected, spec, plan, drop=kind.value, seed=3)
            assert report_text(row) == report_text(expected)

    def test_past_row_is_a_backtest_on_the_query_columns(self, monkeypatch):
        panel, selected = informative_panel()
        plan = short_plan(panel, length=3)
        X, y = reference_dataset(panel, selected, LagSpec(), 2,
                                 plan.train_start, plan.last_week)
        n_lags = LagSpec().n_lags
        queries = SupervisedDataset(start=plan.train_start, X=X[:, n_lags:], y=y,
                                    feature_names=[f"q{i}" for i in range(len(UGC))])
        row = backtest(panel, selected, ModelSpec("huber"), plan, drop="past", seed=3)
        # the rows of a backtest whose dataset is the oracle's query columns
        monkeypatch.setattr(evaluation, "build_dataset", lambda *args, **kwargs: queries)
        count, make_row = evaluation._row_source(panel, selected, ModelSpec("huber"), plan,
                                                 LagSpec(), 2, 3, "none")
        expected = [make_row(i) for i in range(count)]
        assert len(row) == 1 and len(expected) == 3
        assert row[0].predictions == expected

    def test_arima_runs_its_plain_backtest_under_every_label(self):
        panel, selected = informative_panel()
        plan = short_plan(panel, length=2)
        spec = ModelSpec("arima")
        expected = report_text(backtest(panel, selected, spec, plan))
        for label in drop_labels():
            assert report_text(backtest(panel, selected, spec, plan, drop=label)) \
                == expected

    def test_drop_past_collapses_on_noise_proxies(self):
        seed = 55
        flu = gen_flu(SynthConfig(years=5, seed=seed))
        members = [flu]
        rng_seeds = [derive_seed(seed, i + 1) for i in range(4)]
        for i, kind in enumerate(UGC):
            members.append(gen_proxy(flu, ProxyConfig(
                name=f"q{i}", resource=kind, gain=0.0, noise_sd=500.0,
                seed=rng_seeds[i])))
        panel = SignalPanel(members)
        selected = {kind: [f"q{i}"] for i, kind in enumerate(UGC)}
        plan = SplitPlan.of(panel.start + 53,
                            [(panel.start + 215, panel.start + 234)])
        full = backtest(panel, selected, ModelSpec("huber"), plan, drop="none",
                        seed=1)[0]
        no_past = backtest(panel, selected, ModelSpec("huber"), plan, drop="past",
                           seed=1)[0]
        assert full.metrics.r2 - no_past.metrics.r2 >= 0.2

    def test_drop_irrelevant_resource_barely_moves_r2(self):
        # window over the season-5 epidemic peak, where R^2 is well anchored
        panel, selected = informative_panel()
        plan = short_plan(panel, start_off=220, length=12)
        full = backtest(panel, selected, ModelSpec("huber"), plan, drop="none",
                        seed=2)[0]
        no_shop = backtest(panel, selected, ModelSpec("huber"), plan,
                           drop="shopping", seed=2)[0]
        assert full.metrics.r2 > 0.8
        assert abs(full.metrics.r2 - no_shop.metrics.r2) < 0.05

    def test_unknown_label(self):
        panel, selected = informative_panel()
        plan = short_plan(panel, length=4)
        for kind in ("huber", "arima"):  # a kind that reads no features checks it too
            with pytest.raises(ValueError, match=r"drop must be one of \['none', 'search'"):
                backtest(panel, selected, ModelSpec(kind), plan, drop="flu")


class TestReports:
    def test_report_json_schema(self, tmp_path):
        panel, selected = informative_panel()
        plan = short_plan(panel, length=4)
        results = backtest(panel, selected, ModelSpec("huber"), plan, seed=0)
        out = tmp_path / "report.json"
        write_report_json(results, out)
        data = json.loads(out.read_text(encoding="utf-8"))
        block = data[0]
        assert set(block) == {"window", "model", "r2", "mae", "mape", "n",
                              "skipped_zero_actuals", "predictions"}
        assert block["model"] == "huber"
        assert {"date", "actual", "predicted"} == set(block["predictions"][0])

    def test_plot_csv(self, tmp_path):
        panel, selected = informative_panel()
        plan = short_plan(panel, length=3)
        result = backtest(panel, selected, ModelSpec("huber"), plan, seed=0)[0]
        out = tmp_path / "plot.csv"
        write_plot_csv(result, out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "date,actual,predicted"
        assert len(lines) == 4

    def test_metrics_recomputable_from_stored_predictions(self):
        panel, selected = informative_panel()
        plan = short_plan(panel, length=6)
        result = backtest(panel, selected, ModelSpec("huber"), plan, seed=0)[0]
        actual = [a for _, a, _ in result.predictions]
        predicted = [p for _, _, p in result.predictions]
        again = compute_metrics(predicted, actual)
        assert (again.r2, again.mae, again.mape) == \
            (result.metrics.r2, result.metrics.mae, result.metrics.mape)
