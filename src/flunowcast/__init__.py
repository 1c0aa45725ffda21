"""Multi-resource influenza nowcasting toolkit.

Builds weekly nowcasts of flu patient counts from the series' own history
plus correlated proxy signals (search, social, shopping, Q&A volumes):
correlation-gated query selection, lag-feature datasets, five regression
models, rolling-origin evaluation with leave-one-resource-out ablation,
and Bayesian change-point agreement scoring.
"""

from .changepoint import (
    BcpConfig,
    MatchReport,
    PosteriorResult,
    bcp_posterior,
    detect,
    match,
    score_resource,
)
from .errors import FluNowcastError
from .evaluation import (
    BacktestResult,
    MetricReport,
    ModelSpec,
    backtest,
    compute_metrics,
    mae,
    mape,
    r2,
)
from .features import LagSpec, SplitPlan, SupervisedDataset, build_dataset
from .selection import (
    CandidateQuery,
    SelectionConfig,
    rank_frequency,
    rank_tfidf,
    select_queries,
)
from .series import (
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
from .synth import ProxyConfig, SynthConfig, gen_flu, gen_proxy

__version__ = "0.1.0"

__all__ = [
    "BcpConfig", "MatchReport", "PosteriorResult", "bcp_posterior", "detect",
    "match", "score_resource",
    "FluNowcastError",
    "BacktestResult", "MetricReport", "ModelSpec", "backtest",
    "compute_metrics", "mae", "mape", "r2",
    "LagSpec", "SplitPlan", "SupervisedDataset", "build_dataset",
    "CandidateQuery", "SelectionConfig", "rank_frequency", "rank_tfidf",
    "select_queries",
    "ResourceKind", "SignalPanel", "WeekIndex", "WeeklySeries", "align",
    "pearson", "read_series_csv", "standardize_apply", "standardize_fit",
    "write_series_csv",
    "ProxyConfig", "SynthConfig", "gen_flu", "gen_proxy",
    "__version__",
]
