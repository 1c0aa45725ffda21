"""Seeded synthetic stand-ins for the proprietary surveillance feeds.

``gen_flu`` produces a weekly patient-count series: a constant off-season
baseline plus one Gaussian epidemic bump per 52-week season (peak week
jittered per season) plus Gaussian noise, clipped at zero. ``gen_proxy``
derives a correlated resource signal from it with configurable lead/lag,
gain, noise, and an optional crawl-failure dropout window of zeros.

Draw order is part of the contract (per-season peak jitters first, then
per-week noise), and all randomness comes from the package xorshift64*
stream, so a (config, seed) pair regenerates any series bit-exactly on
any platform.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, fields

import numpy as np

from .rng import Xorshift64Star
from .series import ResourceKind, WeekIndex, WeeklySeries

WEEKS_PER_SEASON = 52

# ISO Monday of the week containing the start of a northern flu season.
DEFAULT_START = dt.date(2013, 9, 30)


@dataclass(frozen=True)
class SynthConfig:
    years: int = 5
    baseline: float = 1000.0
    peak_scale: float = 30000.0
    peak_week_mean: float = 18.0    # week-of-season of the epidemic peak
    peak_week_jitter: int = 2       # uniform integer jitter in [-j, j]
    peak_width: float = 3.0         # Gaussian bump sd, weeks
    noise_sd: float = 300.0
    seed: int = 0
    start: dt.date = DEFAULT_START

    def __post_init__(self):
        if self.years <= 0:
            raise ValueError("years must be positive")
        if self.baseline <= 0:
            raise ValueError("baseline must be positive")
        if self.peak_scale < 0 or self.noise_sd < 0:
            raise ValueError("peak_scale and noise_sd must be non-negative")


@dataclass(frozen=True)
class ProxyConfig:
    name: str
    resource: ResourceKind = ResourceKind.SEARCH_QUERY
    lead_weeks: int = 0             # positive: proxy moves before the flu series
    gain: float = 1.0
    noise_sd: float = 0.0
    dropout: tuple[int, int] | None = None  # (start week offset, length), zeroed
    seed: int = 0


def gen_flu(config: SynthConfig) -> WeeklySeries:
    """Deterministic synthetic weekly flu-patient counts."""
    rng = Xorshift64Star(config.seed)
    n = config.years * WEEKS_PER_SEASON
    jitters = [rng.randint(2 * config.peak_week_jitter + 1) - config.peak_week_jitter
               if config.peak_week_jitter > 0 else 0
               for _ in range(config.years)]
    t = np.arange(n, dtype=float)
    values = np.full(n, config.baseline, dtype=float)
    for season, jitter in enumerate(jitters):
        peak = season * WEEKS_PER_SEASON + config.peak_week_mean + jitter
        values += config.peak_scale * np.exp(
            -((t - peak) ** 2) / (2.0 * config.peak_width ** 2))
    if config.noise_sd > 0:
        values += np.array(rng.normals(n, sd=config.noise_sd))
    values = np.maximum(values, 0.0)
    return WeeklySeries("flu", ResourceKind.FLU_PATIENTS,
                        WeekIndex(config.start), values)


def gen_proxy(flu: WeeklySeries, config: ProxyConfig) -> WeeklySeries:
    """Correlated proxy: gain * flu(t + lead) + noise, with dropout zeros.

    Edge weeks whose shifted source falls outside the flu series copy the
    nearest available value. Clipped at zero like every generated signal.
    """
    rng = Xorshift64Star(config.seed)
    n = len(flu)
    src_idx = np.clip(np.arange(n) + config.lead_weeks, 0, n - 1)
    values = config.gain * flu.values[src_idx]
    if config.noise_sd > 0:
        values = values + np.array(rng.normals(n, sd=config.noise_sd))
    if config.dropout is not None:
        start, length = config.dropout
        if not (0 <= start and start + length <= n and length >= 0):
            raise ValueError(f"dropout window {config.dropout} outside the range")
        values[start:start + length] = 0.0
    values = np.maximum(values, 0.0)
    return WeeklySeries(config.name, config.resource, flu.start, values)


def config_to_dict(config: SynthConfig | ProxyConfig) -> dict:
    """A generator config as JSON values: dates in ISO form, resources by
    their tag, tuples as lists."""
    def encode(value):
        if isinstance(value, dt.date):
            return value.isoformat()
        if isinstance(value, ResourceKind):
            return value.value
        return list(value) if isinstance(value, tuple) else value

    return {f.name: encode(getattr(config, f.name)) for f in fields(config)}
