"""Accuracy metrics and rolling-origin backtests over season windows.

One ``backtest`` serves every model kind and every row of the
leave-one-resource-out ablation: its ``drop`` label names the feature block
left out ("none" for the full model). Only the model table, ``MODELS``,
knows which kinds read features; the past-only ARIMA baseline reads the flu
history alone and gives the same rows under every label.

Every backtest step refits the chosen model on all rows prior to the test
week (expanding window), with feature standardization refit on exactly
those training rows so nothing leaks from the future. One row source
serves every kind: it raises the kind's data errors (a dataset that cannot
be built, an ARIMA week or history cutoff outside the panel) in week order
before any fit, and gives the function that makes one test week's row.
Splits are fully independent of each other -- no state is carried between
them, and each feature fit draws from its split's own seed,
``derive_seed(seed, split_no)`` -- so a backtest makes its rows in one
``parallel.run_chunks`` call, one contiguous chunk of weeks per CPU, and
gets them back in week order, bitwise identical to the sequential run at
any CPU count. A split's error is raised as the sequential run would raise
it. This is the backtest's only parallelism: each fit in a chunk runs in
that chunk's process and forks nothing, a forest's trees included. Whether
a window can be scored depends on its actual counts alone, so a window
that cannot (one week, or zero counts only) raises the scoring error
before any fit.
"""

from __future__ import annotations

import csv
import inspect
import json
import numbers
import types
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from . import models, parallel
from .errors import AllActualsZero, DegenerateActuals, InsufficientHistory
from .features import (
    DEFAULT_SIGNAL_LAG,
    LagSpec,
    SelectedQueries,
    SplitPlan,
    build_dataset,
    expanding_splits,
)
from .models import (  # fits are called by name from this namespace; see ModelSpec.fit
    MODELS,
    fit_arima,
    fit_forest,
    fit_huber,
    fit_lasso,
    fit_svr_linear,
    forecast_arima,
)
from .rng import derive_seed
from .series import (
    ResourceKind,
    SignalPanel,
    WeekIndex,
    WeeklySeries,
    standardize_apply,
    standardize_fit,
    week_range,
)

PAST_LAGS = "past"  # ablation label for the flu-history block


@dataclass
class MetricReport:
    r2: float
    mae: float
    mape: float
    n: int
    skipped_zero_actuals: int


@dataclass
class BacktestResult:
    window: tuple[WeekIndex, WeekIndex]
    model_kind: str
    predictions: list[tuple[WeekIndex, float, float]]  # (week, actual, predicted)
    metrics: MetricReport


def _pair(predicted, actual, min_points: int) -> tuple[np.ndarray, np.ndarray]:
    """The (predicted, actual) pair as float arrays of one length, at least ``min_points``."""
    f = np.asarray(predicted, dtype=float)
    a = np.asarray(actual, dtype=float)
    if f.size != a.size:
        raise ValueError("length mismatch")
    if a.size < min_points:
        raise ValueError(f"need at least {min_points} point{'s' if min_points > 1 else ''}")
    return f, a


def r2(predicted, actual) -> float:
    """Coefficient of determination, 1 - SSres/SStot."""
    f, a = _pair(predicted, actual, 2)
    ss_tot = float(np.sum((a - a.mean()) ** 2))
    if ss_tot == 0.0:
        raise DegenerateActuals("constant actuals leave R^2 undefined")
    ss_res = float(np.sum((f - a) ** 2))
    return 1.0 - ss_res / ss_tot


def mae(predicted, actual) -> float:
    f, a = _pair(predicted, actual, 1)
    return float(np.mean(np.abs(f - a)))


def mape(predicted, actual) -> tuple[float, int]:
    """Mean absolute percentage error over nonzero actuals.

    Returns (percentage, number of skipped zero-actual points); raises
    AllActualsZero when no point is usable.
    """
    f, a = _pair(predicted, actual, 0)
    usable = a != 0.0
    skipped = int((~usable).sum())
    if not usable.any():
        raise AllActualsZero("every actual value is zero")
    pct = np.abs((f[usable] - a[usable]) / a[usable]) * 100.0
    return float(pct.mean()), skipped


def compute_metrics(predicted, actual) -> MetricReport:
    mape_value, skipped = mape(predicted, actual)
    return MetricReport(r2=r2(predicted, actual), mae=mae(predicted, actual),
                        mape=mape_value, n=len(actual),
                        skipped_zero_actuals=skipped)


def _admits(hint, value) -> bool:
    """Whether a config value fits a type hint: any finite real number for a
    float, a JSON list for a tuple or a list, a JSON object for a dict, never
    a bool for a number."""
    if isinstance(hint, types.UnionType):
        return any(_admits(member, value) for member in get_args(hint))
    origin, members = get_origin(hint), get_args(hint)
    if origin is tuple:
        return (isinstance(value, (list, tuple)) and len(value) == len(members)
                and all(map(_admits, members, value)))
    if origin is list:
        return isinstance(value, list) and all(_admits(members[0], v) for v in value)
    if origin is dict:
        return isinstance(value, dict) and all(
            _admits(members[0], k) and _admits(members[1], v) for k, v in value.items())
    if hint is bool:
        return isinstance(value, bool)
    kind = {float: numbers.Real, int: numbers.Integral}.get(hint, hint)
    return (isinstance(value, kind) and not isinstance(value, bool)
            and (not isinstance(value, float) or bool(np.isfinite(value))))


def check_type(name: str, hint, value) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` fits ``hint``."""
    if not _admits(hint, value):
        raise ValueError(f"{name} must be {inspect.formatannotation(hint)}, got {value!r}")


@dataclass(frozen=True)
class ModelSpec:
    """Which predictor to run, plus option overrides.

    The accepted ``options`` keys per kind, and the fit keyword each one
    sets, are listed in ``MODELS``; the defaults are those of the fit
    functions. An unlisted key, or a value that does not fit the type hint
    of its fit keyword, is an error.
    """

    kind: str
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in MODELS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        accepted = MODELS[self.kind].options
        unknown = sorted(set(self.options) - set(accepted))
        if unknown:
            raise ValueError(f"unknown {self.kind} option(s) {unknown}; "
                             f"accepted: {sorted(accepted)}")
        # the hints of the package's own fit, not of a wrapper put in its place
        hints = get_type_hints(getattr(models, MODELS[self.kind].fit))
        for name, value in self.options.items():
            check_type(f"{self.kind} option {name!r}", hints[accepted[name]], value)

    def fit(self, *data, seed: int = 0):
        """Fit this kind's model on ``data``: (X, y), or the flu history
        for a kind that reads no features."""
        entry = MODELS[self.kind]
        kwargs = {entry.options[name]: value for name, value in self.options.items()}
        if entry.seeded:
            kwargs["seed"] = seed
        return globals()[entry.fit](*data, **kwargs)


Row = tuple[WeekIndex, float, float]  # (week, actual, predicted)


def _row_source(panel: SignalPanel, selected: SelectedQueries, spec: ModelSpec,
                plan: SplitPlan, lag_spec: LagSpec, signal_lag: int, seed: int,
                drop: str) -> tuple[int, Callable[[int], Row]]:
    """The number of test weeks of ``plan``, and the function that makes
    week i's row, once this kind's data errors are raised in week order.

    A feature kind refits on the columns ``drop`` keeps, standardized on
    the split's training rows, with the split's own seed. A kind that reads
    no features refits on the flu series up to (test week - min_lag) and
    forecasts ``min_lag`` steps ahead.
    """
    if MODELS[spec.kind].features:
        full = build_dataset(panel, selected, lag_spec, signal_lag,
                             start=plan.train_start, end=plan.last_week)
        X = full.X[:, [i for i, name in enumerate(full.feature_names) if _block(name) != drop]]
        splits = list(expanding_splits(full, plan))

        def feature_row(split_no: int) -> Row:
            split = splits[split_no]
            x_train = X[split.train_idx]
            params = standardize_fit(x_train)
            x_train_std = standardize_apply(x_train, params)
            x_test_std = standardize_apply(X[split.test_idx][None, :], params)[0]
            model = spec.fit(x_train_std, full.y[split.train_idx],
                             seed=derive_seed(seed, split_no))
            return (split.test_week, float(full.y[split.test_idx]),
                    float(model.predict(x_test_std)))

        return len(splits), feature_row

    flu = panel.flu()
    horizon = lag_spec.min_lag
    history_start = max(flu.start, plan.train_start - lag_spec.max_lag)
    weeks = [t for win in plan.eval_windows for t in week_range(*win)]
    for t in weeks:
        if not flu.covers(t):
            raise InsufficientHistory(f"target week {t} outside the panel")
        if not flu.covers(t - horizon):
            raise InsufficientHistory(f"history cutoff {t - horizon} outside the panel")

    def forecast_row(i: int) -> Row:
        history = flu.slice(history_start, weeks[i] - horizon)
        forecast = forecast_arima(spec.fit(history), history, horizon)
        return weeks[i], flu.value_at(weeks[i]), float(forecast[-1])

    return len(weeks), forecast_row


def _score_actuals(plan: SplitPlan, flu: WeeklySeries) -> None:
    """Raise what scoring the windows would raise once every split is fit,
    before any fit. The metrics read the predictions only as values, so
    scoring each window's actuals against themselves fails where, and as,
    scoring the predictions would: a window of one week, say, or of zero
    counts only."""
    for win in plan.eval_windows:
        actual = [flu.value_at(t) for t in week_range(*win)]
        compute_metrics(actual, actual)


def drop_labels() -> list[str]:
    """The six ablation rows: everything, then each droppable block."""
    return ["none", *(kind.value for kind in ResourceKind
                      if kind is not ResourceKind.FLU_PATIENTS), PAST_LAGS]


def _block(column: str) -> str:
    """The ablation label that drops a feature column: the resource tag of
    a query column, "past" for a flu lag."""
    tag, sep, _ = column.partition(":")
    return tag if sep else PAST_LAGS


def backtest(panel: SignalPanel, selected: SelectedQueries, spec: ModelSpec,
             plan: SplitPlan, lag_spec: LagSpec = LagSpec(),
             signal_lag: int = DEFAULT_SIGNAL_LAG, seed: int = 0,
             drop: str = "none") -> list[BacktestResult]:
    """One BacktestResult per eval window, on the feature columns that the
    ablation label ``drop`` keeps.

    "none" keeps every column, a UGC resource tag drops that resource's
    query columns, and "past" drops the lag block; the rows are the same
    under every label. A kind that reads no features (ARIMA, the past-only
    protocol) ignores the label and forecasts ``lag_spec.min_lag`` weeks
    ahead, so it sees exactly the same information horizon as the
    lag-feature models.
    """
    if drop not in drop_labels():
        raise ValueError(f"drop must be one of {drop_labels()}")
    count, make_row = _row_source(panel, selected, spec, plan, lag_spec, signal_lag,
                                  seed, drop)
    _score_actuals(plan, panel.flu())
    rows = parallel.run_chunks(lambda chunk: [make_row(i) for i in chunk], count)
    results = []
    for win in plan.eval_windows:
        preds = [row for row in rows if win[0] <= row[0] <= win[1]]
        actual = [a for _, a, _ in preds]
        predicted = [p for _, _, p in preds]
        results.append(BacktestResult(window=win, model_kind=spec.kind,
                                      predictions=preds,
                                      metrics=compute_metrics(predicted, actual)))
    return results


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

def metrics_to_dict(metrics: MetricReport) -> dict:
    return {"r2": metrics.r2, "mae": metrics.mae, "mape": metrics.mape,
            "n": metrics.n, "skipped_zero_actuals": metrics.skipped_zero_actuals}


def result_to_dict(result: BacktestResult) -> dict:
    return {
        "window": {"start": result.window[0].iso(), "end": result.window[1].iso()},
        "model": result.model_kind,
        **metrics_to_dict(result.metrics),
        "predictions": [
            {"date": week.iso(), "actual": actual, "predicted": predicted}
            for week, actual, predicted in result.predictions
        ],
    }


def report_text(payload) -> str:
    """The one JSON text of every report, written to a file or printed:
    sorted keys, a two-space indent and a trailing newline, so reruns give
    the same bytes."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def dump_json(payload, path) -> None:
    """Write ``report_text(payload)`` to ``path`` in UTF-8."""
    Path(path).write_text(report_text(payload), encoding="utf-8")


def write_report_json(results: Sequence[BacktestResult], path) -> None:
    dump_json([result_to_dict(r) for r in results], path)


def write_plot_csv(result: BacktestResult, path) -> None:
    """Plot-ready `date,actual,predicted` rows for one window."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "actual", "predicted"])
        for week, actual, predicted in result.predictions:
            writer.writerow([week.iso(), repr(actual), repr(predicted)])
