"""Supervised dataset construction: lagged flu counts plus selected query
volumes, and leak-free expanding-window splits.

The feature layout is fixed and fully deterministic: first the lag block
(lag ``min_lag`` through ``max_lag``, nearest lag first), then one column
per selected query in (resource, term) order. Standardization is applied
per split by the evaluation layer, never baked into the raw matrix.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

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
    """Design matrix with named, timestamped rows.

    ``X[i]`` holds the features for predicting ``y[i]`` = flu count at
    ``weeks[i]``.
    """

    weeks: list[WeekIndex]
    X: np.ndarray
    y: np.ndarray
    feature_names: list[str]

    def __post_init__(self):
        if self.X.shape != (len(self.weeks), len(self.feature_names)):
            raise ValueError("X shape disagrees with weeks/feature_names")
        if self.y.shape != (len(self.weeks),):
            raise ValueError("y shape disagrees with weeks")

    def __len__(self) -> int:
        return len(self.weeks)

    def row_index(self, week: WeekIndex) -> int:
        return self.weeks.index(week)


def lag_features(flu: WeeklySeries, spec: LagSpec, t: WeekIndex) -> np.ndarray:
    """Flu values at t - min_lag, ..., t - max_lag (nearest lag first)."""
    earliest = t - spec.max_lag
    latest = t - spec.min_lag
    if not (flu.covers(earliest) and flu.covers(latest)):
        raise InsufficientHistory(
            f"lags for {t} need {earliest}..{latest}, flu covers {flu.start}..{flu.end}")
    hi = latest - flu.start
    lo = earliest - flu.start
    # values[lo..hi] ascending in time == descending lag; reverse for lag order.
    return flu.values[lo:hi + 1][::-1].copy()


def _ordered_terms(selected: SelectedQueries) -> list[tuple[ResourceKind, str]]:
    out: list[tuple[ResourceKind, str]] = []
    for kind in UGC_RESOURCES:
        for term in selected.get(kind, ()):
            out.append((kind, term))
    return out


def exogenous_features(panel: SignalPanel, selected: SelectedQueries,
                       t: WeekIndex, signal_lag: int = DEFAULT_SIGNAL_LAG) -> np.ndarray:
    """One value per selected query at week t - signal_lag."""
    week = t - signal_lag
    if not (panel.start <= week <= panel.end):
        raise InsufficientHistory(
            f"exogenous features for {t} need {week}, panel covers "
            f"{panel.start}..{panel.end}")
    return np.array([panel[term].value_at(week) for _, term in _ordered_terms(selected)])


def feature_names(spec: LagSpec, selected: SelectedQueries) -> list[str]:
    names = [f"flu_lag{lag:02d}" for lag in spec.lags()]
    names.extend(f"{kind.value}:{term}" for kind, term in _ordered_terms(selected))
    return names


def build_dataset(panel: SignalPanel, selected: SelectedQueries,
                  spec: LagSpec = LagSpec(),
                  signal_lag: int = DEFAULT_SIGNAL_LAG,
                  start: WeekIndex | None = None,
                  end: WeekIndex | None = None) -> SupervisedDataset:
    """One row per week of [start, end]: lag block then exogenous block.

    The panel must cover the requested range plus ``max_lag`` weeks of
    history; otherwise InsufficientHistory propagates from the row ops.
    """
    flu = panel.flu()
    start = start if start is not None else panel.start + spec.max_lag
    end = end if end is not None else panel.end
    weeks = week_range(start, end)
    rows = []
    for t in weeks:
        if not flu.covers(t):
            raise InsufficientHistory(f"target week {t} outside the panel")
        lag_block = lag_features(flu, spec, t)
        exo_block = exogenous_features(panel, selected, t, signal_lag)
        rows.append(np.concatenate([lag_block, exo_block]))
    y = np.array([flu.value_at(t) for t in weeks])
    return SupervisedDataset(weeks=weeks, X=np.vstack(rows), y=y,
                             feature_names=feature_names(spec, selected))


@dataclass(frozen=True)
class Split:
    """Index view of one expanding-window evaluation step."""

    train_idx: np.ndarray
    test_idx: int
    test_week: WeekIndex


def expanding_splits(dataset: SupervisedDataset, plan: SplitPlan) -> Iterator[Split]:
    """One split per eval week: train on every row in [train_start, w)."""
    weeks = dataset.weeks
    index_of = {w: i for i, w in enumerate(weeks)}
    for win_start, win_end in plan.eval_windows:
        for w in week_range(win_start, win_end):
            if w not in index_of:
                raise KeyError(f"eval week {w} is not a dataset row")
            test_idx = index_of[w]
            train_idx = np.array([
                i for i, tw in enumerate(weeks)
                if plan.train_start <= tw < w
            ], dtype=int)
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
