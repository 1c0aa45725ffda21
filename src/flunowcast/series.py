"""Weekly time-series primitives: week indexing, series, panels,
correlation, standardization, and the CSV interchange format.

All types are immutable after construction; the operations are pure
functions, so values can be shared freely across threads.
"""

from __future__ import annotations

import csv
import datetime as dt
import enum
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    AlignmentError,
    DegenerateInput,
    EmptyIntersection,
    ShapeMismatch,
)

_WEEK = dt.timedelta(days=7)


class ResourceKind(enum.Enum):
    """The five signal sources a panel can carry."""

    FLU_PATIENTS = "flu"
    SEARCH_QUERY = "search"
    SOCIAL_MEDIA = "social"
    SHOPPING = "shopping"
    QA_SERVICE = "qa"


# UGC resources in canonical feature order (flu lags are handled separately).
UGC_RESOURCES = (
    ResourceKind.SEARCH_QUERY,
    ResourceKind.SOCIAL_MEDIA,
    ResourceKind.SHOPPING,
    ResourceKind.QA_SERVICE,
)


@dataclass(frozen=True, order=True)
class WeekIndex:
    """A calendar week keyed by its ISO Monday.

    Ordering, equality, and arithmetic all follow the calendar; the
    successor week is exactly seven days later.
    """

    week_start: dt.date

    def __post_init__(self):
        if self.week_start.weekday() != 0:
            raise ValueError(f"{self.week_start} is not a Monday")

    @classmethod
    def parse(cls, text: str) -> "WeekIndex":
        return cls(dt.date.fromisoformat(text))

    def __add__(self, weeks: int) -> "WeekIndex":
        return WeekIndex(self.week_start + weeks * _WEEK)

    def __sub__(self, other):
        """week - int -> WeekIndex;  week - week -> whole weeks (int)."""
        if isinstance(other, WeekIndex):
            return (self.week_start - other.week_start).days // 7
        return WeekIndex(self.week_start - other * _WEEK)

    def iso(self) -> str:
        return self.week_start.isoformat()

    def __str__(self) -> str:
        return self.iso()


def week_range(start: WeekIndex, end: WeekIndex) -> list[WeekIndex]:
    """All weeks from start to end inclusive."""
    if end < start:
        raise ValueError("end precedes start")
    return [start + k for k in range(end - start + 1)]


class WeeklySeries:
    """A named, gap-free sequence of weekly values.

    Contiguity is structural: the series stores its first week plus a
    value array, so weeks are strictly increasing with no gaps by
    construction. The value array is frozen read-only.
    """

    __slots__ = ("name", "resource", "start", "values")

    def __init__(self, name: str, resource: ResourceKind, start: WeekIndex,
                 values: Sequence[float]):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("values must be a non-empty 1-D sequence")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "resource", resource)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, *_):
        raise AttributeError("WeeklySeries is immutable")

    def __len__(self) -> int:
        return self.values.size

    @property
    def end(self) -> WeekIndex:
        return self.start + (len(self) - 1)

    def weeks(self) -> list[WeekIndex]:
        return week_range(self.start, self.end)

    def __iter__(self) -> Iterator[tuple[WeekIndex, float]]:
        return zip(self.weeks(), self.values.tolist())

    def covers(self, week: WeekIndex) -> bool:
        return self.start <= week <= self.end

    def value_at(self, week: WeekIndex) -> float:
        if not self.covers(week):
            raise KeyError(f"{self.name} does not cover {week}")
        return float(self.values[week - self.start])

    def slice(self, start: WeekIndex, end: WeekIndex) -> "WeeklySeries":
        if not (self.covers(start) and self.covers(end)):
            raise KeyError(f"{self.name} does not cover {start}..{end}")
        lo = start - self.start
        hi = end - self.start + 1
        return WeeklySeries(self.name, self.resource, start, self.values[lo:hi])

    def __repr__(self) -> str:
        return (f"WeeklySeries({self.name!r}, {self.resource.value}, "
                f"{self.start}..{self.end}, n={len(self)})")


class SignalPanel:
    """A set of uniquely named series trimmed to one shared week range."""

    __slots__ = ("_series", "start", "end")

    def __init__(self, series: Iterable[WeeklySeries]):
        members = list(series)
        if not members:
            raise ValueError("panel needs at least one series")
        start = members[0].start
        end = members[0].end
        table: dict[str, WeeklySeries] = {}
        for s in members:
            if s.start != start or s.end != end:
                raise AlignmentError(
                    f"{s.name} covers {s.start}..{s.end}, panel is {start}..{end}")
            if s.name in table:
                raise ValueError(f"duplicate series name {s.name!r}")
            table[s.name] = s
        object.__setattr__(self, "_series", table)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)

    def __setattr__(self, *_):
        raise AttributeError("SignalPanel is immutable")

    def __len__(self) -> int:
        return len(self._series)

    def __contains__(self, name: str) -> bool:
        return name in self._series

    def __getitem__(self, name: str) -> WeeklySeries:
        return self._series[name]

    def names(self) -> list[str]:
        return list(self._series)

    def members(self) -> list[WeeklySeries]:
        return list(self._series.values())

    def by_resource(self, kind: ResourceKind) -> list[WeeklySeries]:
        return [s for s in self._series.values() if s.resource is kind]

    def flu(self) -> WeeklySeries:
        """The panel's unique FLU_PATIENTS member."""
        flu = self.by_resource(ResourceKind.FLU_PATIENTS)
        if len(flu) != 1:
            raise ValueError(f"panel has {len(flu)} flu series, expected exactly 1")
        return flu[0]


def align(series_list: Sequence[WeeklySeries]) -> SignalPanel:
    """Trim series to their common week range and bundle them in a panel.

    Raises
    ------
    EmptyIntersection
        If no week is covered by every series.
    """
    if not series_list:
        raise ValueError("series_list must be non-empty")
    start = max(s.start for s in series_list)
    end = min(s.end for s in series_list)
    if end < start:
        raise EmptyIntersection(
            f"no common week: latest start {start}, earliest end {end}")
    return SignalPanel(s.slice(start, end) for s in series_list)


def unit_scale(x: np.ndarray) -> np.ndarray:
    """``x`` divided by the power of two that brings max|x| into [0.5, 1).

    The division is exact, so centring, scaling and correlation give the
    bits they give on ``x`` itself, and the sum of squares of a finite
    series of any magnitude stays finite.
    """
    return np.ldexp(x, -math.frexp(float(np.abs(x).max()))[1])


def pearson(x, y) -> float:
    """Pearson product-moment correlation of two equal-length series.

    Accepts WeeklySeries or plain 1-D arrays. Raises DegenerateInput when
    either side is constant.
    """
    x = x.values if isinstance(x, WeeklySeries) else np.asarray(x, dtype=float)
    y = y.values if isinstance(y, WeeklySeries) else np.asarray(y, dtype=float)
    if x.size != y.size:
        raise AlignmentError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise ValueError("need at least 2 points")
    if x.min() == x.max() or y.min() == y.max():
        raise DegenerateInput("constant series has no defined correlation")
    x = unit_scale(x)
    y = unit_scale(y)
    dx = x - x.mean()
    dy = y - y.mean()
    # numpy reductions, not BLAS dots, whose bits depend on the host's kernels
    sx = float(np.sqrt(np.sum(dx * dx)))
    sy = float(np.sqrt(np.sum(dy * dy)))
    return float(np.sum(dx * dy) / (sx * sy))


@dataclass(frozen=True)
class StandardizationParams:
    """Per-column centering and scaling learned from a fit matrix.

    ``scale`` is the population (divide by n) standard deviation;
    constant columns are flagged degenerate and standardize to zero.
    """

    mean: np.ndarray
    scale: np.ndarray
    degenerate: np.ndarray  # bool mask, True where the column is constant

    @property
    def n_columns(self) -> int:
        return self.mean.size


def standardize_fit(columns) -> StandardizationParams:
    """Per-column mean and population standard deviation of a 2-D matrix."""
    mat = np.asarray(columns, dtype=float)
    if mat.ndim != 2:
        raise ShapeMismatch("expected a 2-D matrix of columns")
    mean = mat.mean(axis=0) if mat.shape[0] else np.zeros(mat.shape[1])
    scale = mat.std(axis=0) if mat.shape[0] else np.zeros(mat.shape[1])
    # min == max tells a constant column, whose std need not be 0 (its mean
    # may not round back to its value); scale == 0 also flags distinct values
    # too close together for their deviations to square
    constant = mat.min(axis=0) == mat.max(axis=0) if mat.shape[0] else True
    return StandardizationParams(mean=mean, scale=scale, degenerate=constant | (scale == 0.0))


def standardize_apply(columns, params: StandardizationParams) -> np.ndarray:
    """(value - mean)/scale per cell; degenerate columns map to all zero."""
    mat = np.asarray(columns, dtype=float)
    if mat.ndim != 2 or mat.shape[1] != params.n_columns:
        raise ShapeMismatch(
            f"matrix has {mat.shape} columns, params expect {params.n_columns}")
    safe_scale = np.where(params.degenerate, 1.0, params.scale)
    out = (mat - params.mean) / safe_scale
    out[:, params.degenerate] = 0.0
    return out


# ---------------------------------------------------------------------------
# CSV interchange: header exactly `date,value`, ISO Monday dates, ascending,
# no gaps. Gaps are a hard error by design, never imputed.
# ---------------------------------------------------------------------------

CSV_HEADER = ["date", "value"]


def read_series_csv(path, name: str | None = None,
                    resource: ResourceKind = ResourceKind.SEARCH_QUERY) -> WeeklySeries:
    """Load one weekly series from its CSV file.

    The file must have the exact header ``date,value``, ISO-8601 Monday
    dates sorted ascending with no missing weeks, and finite decimal values.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ValueError(f"{path}: expected header 'date,value', got {header}")
        weeks: list[WeekIndex] = []
        values: list[float] = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise ValueError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
            weeks.append(WeekIndex.parse(row[0]))
            value = float(row[1])
            if not math.isfinite(value):
                raise ValueError(f"{path}:{lineno}: value must be finite")
            values.append(value)
    if not weeks:
        raise ValueError(f"{path}: no data rows")
    for prev, cur in zip(weeks, weeks[1:]):
        if cur - prev != 1:
            raise ValueError(
                f"{path}: weeks must be consecutive; {prev} is followed by {cur}")
    return WeeklySeries(name or path.stem, resource, weeks[0], values)


def write_series_csv(series: WeeklySeries, path) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for week, value in series:
            writer.writerow([week.iso(), repr(value)])
