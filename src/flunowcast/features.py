"""Supervised dataset construction: lagged flu counts plus selected query
volumes, and leak-free expanding-window splits.

The feature layout is fixed and fully deterministic: first the lag block
(lag ``min_lag`` through ``max_lag``, nearest lag first), then one column
per selected query in (resource, term) order. Standardization is applied
per split by the evaluation layer, never baked into the raw matrix.

Rows are contiguous weeks, as a ``WeeklySeries``'s values are: a dataset
stores its first week, and row ``i`` is week ``start + i``. So the build
checks the panel's coverage once for the whole row range, then slices: the
lag block is one sliding window over the flu values, each query column and
``y`` one slice. Splits find their rows by week arithmetic.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EmptyTrain, InsufficientHistory
from .series import (
    ResourceKind,
    SignalPanel,
    UGC_RESOURCES,
    WeekIndex,
    WeeklySeries,
    week_range,
)

DEFAULT_SIGNAL_LAG = 2  # weeks; query volumes are taken this far before the target


@dataclass(frozen=True)
class LagSpec:
    """Inclusive weekly lag span for the flu-history block (default 2..53)."""

    min_lag: int = 2
    max_lag: int = 53

    def __post_init__(self):
        if not 1 <= self.min_lag <= self.max_lag:
            raise ValueError(f"need 1 <= min_lag <= max_lag, got {self}")

    @property
    def n_lags(self) -> int:
        return self.max_lag - self.min_lag + 1

    def lags(self) -> list[int]:
        return list(range(self.min_lag, self.max_lag + 1))


# Selected queries per resource; ordering inside each list is preserved.
SelectedQueries = Mapping[ResourceKind, Sequence[str]]


@dataclass(frozen=True)
class SplitPlan:
    """Expanding-window evaluation plan: training starts at ``train_start``
    and each week of each eval window becomes one one-week-ahead test."""

    train_start: WeekIndex
    eval_windows: tuple[tuple[WeekIndex, WeekIndex], ...]

    def __post_init__(self):
        prev_end: WeekIndex | None = None
        for start, end in self.eval_windows:
            if end < start:
                raise ValueError(f"window {start}..{end} is reversed")
            if start <= self.train_start:
                raise ValueError(f"window {start}..{end} does not follow train_start")
            if prev_end is not None and start <= prev_end:
                raise ValueError("eval windows must be disjoint and ascending")
            prev_end = end

    @classmethod
    def of(cls, train_start: WeekIndex,
           windows: Sequence[tuple[WeekIndex, WeekIndex]]) -> "SplitPlan":
        return cls(train_start=train_start, eval_windows=tuple(windows))

    @property
    def last_week(self) -> WeekIndex:
        return self.eval_windows[-1][1]


@dataclass
class SupervisedDataset:
    """Design matrix over a contiguous run of weeks.

    ``X[i]`` holds the features for predicting ``y[i]`` = flu count at
    week ``start + i``.
    """

    start: WeekIndex
    X: np.ndarray
    y: np.ndarray
    feature_names: list[str]

    def __post_init__(self):
        if self.y.ndim != 1 or self.X.shape != (self.y.size, len(self.feature_names)):
            raise ValueError("X shape disagrees with y/feature_names")

    def __len__(self) -> int:
        return self.y.size

    @property
    def weeks(self) -> list[WeekIndex]:
        return [self.start + i for i in range(len(self))]

    def row_index(self, week: WeekIndex) -> int:
        i = week - self.start
        if not 0 <= i < len(self):
            raise KeyError(f"week {week} is not a dataset row")
        return i


def feature_names(spec: LagSpec, selected: SelectedQueries) -> list[str]:
    names = [f"flu_lag{lag:02d}" for lag in spec.lags()]
    names.extend(f"{kind.value}:{term}"
                 for kind in UGC_RESOURCES for term in selected.get(kind, ()))
    return names


def _check_row(flu: WeeklySeries, spec: LagSpec, signal_lag: int, t: WeekIndex) -> None:
    """Raise InsufficientHistory unless the panel holds the target, the lags
    and the query week of week t's row."""
    if not flu.covers(t):
        raise InsufficientHistory(f"target week {t} outside the panel")
    earliest, latest = t - spec.max_lag, t - spec.min_lag
    if not (flu.covers(earliest) and flu.covers(latest)):
        raise InsufficientHistory(
            f"lags for {t} need {earliest}..{latest}, flu covers {flu.start}..{flu.end}")
    if not flu.covers(t - signal_lag):
        raise InsufficientHistory(
            f"exogenous features for {t} need {t - signal_lag}, panel covers "
            f"{flu.start}..{flu.end}")


def build_dataset(panel: SignalPanel, selected: SelectedQueries,
                  spec: LagSpec = LagSpec(),
                  signal_lag: int = DEFAULT_SIGNAL_LAG,
                  start: WeekIndex | None = None,
                  end: WeekIndex | None = None) -> SupervisedDataset:
    """One row per week of [start, end]: lag block then exogenous block.

    The panel must cover the requested range plus ``max_lag`` weeks of
    history; otherwise InsufficientHistory names the first row that cannot
    be built.
    """
    flu = panel.flu()
    start = start if start is not None else panel.start + spec.max_lag
    end = end if end is not None else panel.end
    if end < start:
        raise ValueError("end precedes start")
    n_rows = end - start + 1
    # Each check fails on a run of weeks at the start of the panel or at its
    # end, so the first row that fails, if any, is the first row or the
    # first week whose target or query week lies past the panel's end.
    _check_row(flu, spec, signal_lag, start)
    queries = [panel[term].values
               for kind in UGC_RESOURCES for term in selected.get(kind, ())]
    first_uncovered = flu.end + 1 + min(signal_lag, 0)
    if first_uncovered <= end:
        _check_row(flu, spec, signal_lag, first_uncovered)
    lo = start - spec.max_lag - flu.start
    lags = sliding_window_view(flu.values[lo:lo + n_rows + spec.n_lags - 1], spec.n_lags)
    q0 = start - signal_lag - flu.start
    return SupervisedDataset(
        start=start,
        X=np.column_stack([lags[:, ::-1], *(q[q0:q0 + n_rows] for q in queries)]),
        y=flu.values[start - flu.start:end - flu.start + 1].copy(),
        feature_names=feature_names(spec, selected))


@dataclass(frozen=True)
class Split:
    """Index view of one expanding-window evaluation step."""

    train_idx: np.ndarray
    test_idx: int
    test_week: WeekIndex


def expanding_splits(dataset: SupervisedDataset, plan: SplitPlan) -> Iterator[Split]:
    """One split per eval week: train on every row in [train_start, w)."""
    first = max(plan.train_start - dataset.start, 0)
    for win_start, win_end in plan.eval_windows:
        for w in week_range(win_start, win_end):
            test_idx = dataset.row_index(w)
            train_idx = np.arange(first, test_idx)
            if train_idx.size == 0:
                raise EmptyTrain(f"no training rows precede {w}")
            yield Split(train_idx=train_idx, test_idx=test_idx, test_week=w)


def export_csv(dataset: SupervisedDataset, path) -> None:
    """Dataset dump for inspection and cross-tool checks."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["target_date", "y", *dataset.feature_names])
        for i, week in enumerate(dataset.weeks):
            writer.writerow([week.iso(), repr(float(dataset.y[i])),
                             *[repr(float(v)) for v in dataset.X[i]]])
