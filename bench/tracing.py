"""Per-layer tracing of one in-process CLI command, without editing ``src/``.

Each hook replaces a public function at the name its caller looks up (for
example ``flunowcast.evaluation:fit_lasso``, which ``backtest`` resolves
from its own module) with a wrapper that records a span: calls, duration,
and the time its child spans cover, so a layer's self time is its duration
minus its children. Some hooks also record counts or check the solver's
certificate on the returned model with the package's public checkers. That
bookkeeping runs outside the span, and its time is charged to no layer.

Functions called about a million times per run (``COUNTED``) are not
wrapped while the spans are timed, because a counter there would cost more
than the work it counts. ``replay_counts`` calls each recorded
``bcp_posterior`` again afterwards, untimed, with a counter on each of them.

Installing a hook whose target no longer exists raises ``HookError``, and
so does a run that leaves a required hook uncalled, so a refactor cannot
quietly turn a layer's numbers into zeros.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np


class HookError(RuntimeError):
    """A hook target is missing, or a required hook was never called."""


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# --- certificate and count recorders; each runs after the span closes -----

def _after_select(tr, fn, args, kwargs, result):
    tr.counts["selection.candidates"] += len(_bound(fn, args, kwargs)["candidates"])
    tr.counts["selection.kept"] += len(result.selected)


def _after_lasso(tr, fn, args, kwargs, model):
    from flunowcast.models import lasso_stationarity_violation
    a = _bound(fn, args, kwargs)
    X = np.asarray(a["X"], dtype=float)
    y = np.asarray(a["y"], dtype=float)
    viol = lasso_stationarity_violation(X, y, model.beta, model.intercept, a["lam"],
                                        include_intercept=a["include_intercept"])
    if a["include_intercept"]:
        X, y = X - X.mean(axis=0), y - y.mean()
    scale = max(1.0, float(np.abs(2.0 * (X.T @ y)).max()))  # the solver's own scale
    tr.values["lasso.kkt_rel"].append(viol / scale)
    tr.values["lasso.nnz"].append(int(np.count_nonzero(model.beta)))


def _after_huber(tr, fn, args, kwargs, model):
    from flunowcast.models import huber_loss_gradient
    a = _bound(fn, args, kwargs)
    X = np.asarray(a["X"], dtype=float)
    y = np.asarray(a["y"], dtype=float)

    def norm(beta, intercept):
        g_beta, g_int = huber_loss_gradient(X, y, beta, intercept, model.sigma,
                                            model.delta, form=a["form"])
        return max(float(np.abs(g_beta).max(initial=0.0)), abs(g_int))

    # gradient at the fit over the gradient at zero, both at the returned scale
    at_zero = norm(np.zeros_like(model.beta), 0.0)
    tr.values["huber.grad_rel"].append(norm(model.beta, model.intercept)
                                       / max(at_zero, 1e-300))


def _after_svr(tr, fn, args, kwargs, model):
    from flunowcast.models import dual_objective, primal_objective
    a = _bound(fn, args, kwargs)
    primal = primal_objective(model, a["X"], a["y"])
    dual = dual_objective(model, a["X"], a["y"])
    tr.values["svr.gap_rel"].append((primal - dual) / max(abs(primal), 1e-300))
    multipliers = np.maximum(model.alphas, model.alpha_stars)
    tr.values["svr.at_bound"].append(
        float(np.mean(multipliers >= model.c_penalty * (1.0 - 1e-9))))


def _count_nodes(tree: dict) -> int:
    if "value" in tree:
        return 1
    return 1 + _count_nodes(tree["left"]) + _count_nodes(tree["right"])


def _after_forest(tr, fn, args, kwargs, model):
    # counted from the serialized form, which a rewrite must keep byte-identical
    from flunowcast.models import model_to_json
    trees = json.loads(model_to_json(model))["trees"]
    tr.counts["forest.nodes"] += sum(_count_nodes(t) for t in trees)


def _after_css_objective(tr, fn, args, kwargs, value):
    if not math.isfinite(value):
        tr.counts["arima.nonfinite_evals"] += 1


def _after_css_gradient(tr, fn, args, kwargs, grad):
    if not np.all(np.isfinite(grad)):
        tr.counts["arima.nonfinite_evals"] += 1


def _after_bcp(tr, fn, args, kwargs, result):
    tr.counts["changepoint.sweeps"] += _bound(fn, args, kwargs)["config"].iterations
    tr.replays.append((fn, args, kwargs))


@dataclass(frozen=True)
class Hook:
    target: str              # "module:qualname"
    span: str | None         # span name; None records calls only
    after: Callable | None = None
    generator: bool = False  # time each step of a returned generator


HOOKS = [
    Hook("flunowcast.cli:read_series_csv", "cli.io"),
    Hook("flunowcast.cli:write_report_json", "cli.io"),
    Hook("flunowcast.cli:write_plot_csv", "cli.io"),
    Hook("flunowcast.cli:_dump_json", "cli.io"),
    Hook("flunowcast.cli:align", "series.align"),
    Hook("flunowcast.cli:select_queries", "selection.select", _after_select),
    Hook("flunowcast.cli:backtest", "evaluation.backtest"),
    Hook("flunowcast.evaluation:compute_metrics", "evaluation.metrics"),
    Hook("flunowcast.evaluation:build_dataset", "features.build_dataset"),
    Hook("flunowcast.evaluation:expanding_splits", "features.splits", generator=True),
    Hook("flunowcast.evaluation:standardize_fit", "series.standardize"),
    Hook("flunowcast.evaluation:standardize_apply", "series.standardize"),
    Hook("flunowcast.evaluation:fit_lasso", "lasso.fit", _after_lasso),
    Hook("flunowcast.evaluation:fit_huber", "huber.fit", _after_huber),
    Hook("flunowcast.evaluation:fit_svr_linear", "svr.fit", _after_svr),
    Hook("flunowcast.evaluation:fit_forest", "forest.fit", _after_forest),
    Hook("flunowcast.models.forest:ForestModel.predict", "forest.predict"),
    Hook("flunowcast.evaluation:fit_arima", "arima.fit"),
    Hook("flunowcast.evaluation:forecast_arima", "arima.forecast"),
    Hook("flunowcast.models.arima:css_objective", "arima.obj", _after_css_objective),
    Hook("flunowcast.models.arima:css_gradient", "arima.grad", _after_css_gradient),
    Hook("flunowcast.changepoint:bcp_posterior", "changepoint.bcp", _after_bcp),
    Hook("flunowcast.changepoint:match", "changepoint.match"),
]

# Counted only in the untimed replay of each bcp_posterior call.
COUNTED = ["flunowcast.changepoint:log_w_integral", "flunowcast.changepoint:log_inc_beta"]

# Hooks each command kind must call at least once.
REQUIRED = {
    "backtest": [
        "flunowcast.cli:read_series_csv", "flunowcast.cli:align",
        "flunowcast.cli:select_queries", "flunowcast.cli:backtest",
        "flunowcast.cli:write_report_json", "flunowcast.cli:write_plot_csv",
        "flunowcast.evaluation:build_dataset", "flunowcast.evaluation:expanding_splits",
        "flunowcast.evaluation:standardize_fit", "flunowcast.evaluation:standardize_apply",
        "flunowcast.evaluation:fit_lasso", "flunowcast.evaluation:fit_huber",
        "flunowcast.evaluation:fit_svr_linear", "flunowcast.evaluation:fit_forest",
        "flunowcast.models.forest:ForestModel.predict",
        "flunowcast.evaluation:fit_arima", "flunowcast.evaluation:forecast_arima",
        "flunowcast.models.arima:css_objective", "flunowcast.models.arima:css_gradient",
        "flunowcast.evaluation:compute_metrics"],
    "changepoint": [
        "flunowcast.cli:read_series_csv", "flunowcast.cli:align",
        "flunowcast.cli:_dump_json", "flunowcast.changepoint:bcp_posterior",
        "flunowcast.changepoint:match", "flunowcast.changepoint:log_w_integral",
        "flunowcast.changepoint:log_inc_beta"],
}


def _resolve(target: str):
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
        *path, name = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, name, getattr(owner, name)
    except (ImportError, AttributeError) as exc:
        raise HookError(f"hook target {target} no longer exists: {exc}") from exc


class Tracer:
    """Installs the hooks on entry, removes them on exit, and keeps the
    spans, counts and certificate values in memory."""

    def __init__(self):
        self.calls: Counter = Counter()          # target -> calls
        self.durations = defaultdict(list)       # span -> seconds per call
        self.self_s: dict = defaultdict(float)   # span -> seconds minus children
        self.counts: Counter = Counter()
        self.values = defaultdict(list)
        self.replays: list = []                  # (bcp_posterior, args, kwargs)
        self._open: list[float] = []             # child time of each open span
        self._undo: list = []

    def __enter__(self) -> "Tracer":
        for target in COUNTED:
            _resolve(target)  # fail now, not after the timed command
        try:
            for hook in HOOKS:
                owner, name, original = _resolve(hook.target)
                setattr(owner, name, self._wrap(hook, original))
                self._undo.append((owner, name, original))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _charge_parent(self, seconds: float) -> None:
        if self._open:
            self._open[-1] += seconds

    def _timed(self, span: str, call):
        self._open.append(0.0)
        t0 = perf_counter()
        try:
            return call()
        finally:
            elapsed = perf_counter() - t0
            children = self._open.pop()
            self.durations[span].append(elapsed)
            self.self_s[span] += elapsed - children
            self._charge_parent(elapsed)

    def _wrap(self, hook: Hook, fn):
        calls, target = self.calls, hook.target
        if hook.span is None:
            def counted(*args, **kwargs):
                calls[target] += 1
                return fn(*args, **kwargs)
            return counted

        if hook.generator:
            def stepped(*args, **kwargs):
                calls[target] += 1
                steps = fn(*args, **kwargs)
                while True:
                    try:
                        item = self._timed(hook.span, lambda: next(steps))
                    except StopIteration:
                        return
                    yield item
            return stepped

        def spanned(*args, **kwargs):
            calls[target] += 1
            result = self._timed(hook.span, lambda: fn(*args, **kwargs))
            if hook.after is not None:
                t0 = perf_counter()
                hook.after(self, fn, args, kwargs, result)
                # bookkeeping is tracing overhead, not the parent's self time
                self._charge_parent(perf_counter() - t0)
            return result
        return spanned

    def replay_counts(self) -> None:
        """Call each recorded ``bcp_posterior`` again, with the hooks of
        ``__enter__`` removed and a counter on every ``COUNTED`` target.
        The sampler is seeded from its config, so the calls repeat exactly."""
        undo = []
        try:
            for target in COUNTED:
                owner, name, original = _resolve(target)
                setattr(owner, name, self._wrap(Hook(target, None), original))
                undo.append((owner, name, original))
            for fn, args, kwargs in self.replays:
                fn(*args, **kwargs)
        finally:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)

    def check_required(self, kind: str) -> None:
        missing = [t for t in REQUIRED[kind] if self.calls[t] == 0]
        if missing:
            raise HookError(f"{kind} run never called: {', '.join(missing)}")

    # --- per-layer metrics ------------------------------------------------

    def total(self, span: str) -> float:
        return float(sum(self.durations[span]))

    def calls_of(self, span: str) -> int:
        return len(self.durations[span])

    def metrics(self) -> tuple[dict, list[str]]:
        """(name -> value, names reported as 0 because the layer did not
        run or has too few samples for the statistic)."""
        out: dict = {}
        absent: list[str] = []

        def put(name, value):
            if value is None:
                absent.append(name)
                value = 0
            out[name] = value

        def ms_quantile(span, q):
            d = self.durations[span]
            if q == 0.5:
                return 1e3 * statistics.median(d) if d else None
            # a p90 needs ten samples beyond it
            return 1e3 * statistics.quantiles(d, n=10)[8] if len(d) >= 100 else None

        def vmax(key):
            return max(self.values[key]) if self.values[key] else None

        def vmean(key):
            return statistics.fmean(self.values[key]) if self.values[key] else None

        c = self.counts
        put("cli.io_s", self.total("cli.io"))
        put("series.align_s", self.total("series.align"))
        put("selection.select_s", self.total("selection.select"))
        put("selection.kept_frac", c["selection.kept"] / c["selection.candidates"]
            if c["selection.candidates"] else None)
        put("features.build_dataset_s", self.total("features.build_dataset"))
        put("features.build_dataset_calls", self.calls_of("features.build_dataset"))
        put("features.splits_s", self.total("features.splits"))
        put("series.standardize_s", self.total("series.standardize"))
        put("series.standardize_calls", self.calls_of("series.standardize"))
        put("lasso.fit_s", self.total("lasso.fit"))
        put("lasso.fit_ms_p50", ms_quantile("lasso.fit", 0.5))
        put("lasso.fits", self.calls_of("lasso.fit"))
        put("lasso.kkt_rel_max", vmax("lasso.kkt_rel"))
        put("lasso.nnz_mean", vmean("lasso.nnz"))
        put("huber.fit_s", self.total("huber.fit"))
        put("huber.fit_ms_p50", ms_quantile("huber.fit", 0.5))
        put("huber.fit_ms_p90", ms_quantile("huber.fit", 0.9))
        put("huber.fits", self.calls_of("huber.fit"))
        put("huber.grad_rel_max", vmax("huber.grad_rel"))
        put("svr.fit_s", self.total("svr.fit"))
        put("svr.fits", self.calls_of("svr.fit"))
        put("svr.gap_rel_max", vmax("svr.gap_rel"))
        put("svr.at_bound_frac", vmean("svr.at_bound"))
        put("forest.fit_s", self.total("forest.fit"))
        put("forest.fit_ms_p50", ms_quantile("forest.fit", 0.5))
        put("forest.fits", self.calls_of("forest.fit"))
        put("forest.nodes", c["forest.nodes"])
        put("forest.predict_s", self.total("forest.predict"))
        put("arima.fit_s", self.total("arima.fit"))
        put("arima.forecast_s", self.total("arima.forecast"))
        put("arima.fits", self.calls_of("arima.fit"))
        put("arima.obj_calls", self.calls_of("arima.obj"))
        put("arima.grad_calls", self.calls_of("arima.grad"))
        put("arima.obj_s", self.total("arima.obj"))
        put("arima.grad_s", self.total("arima.grad"))
        put("arima.nonfinite_evals", c["arima.nonfinite_evals"])
        put("evaluation.backtest_s", self.total("evaluation.backtest"))
        put("evaluation.backtest_self_s", self.self_s["evaluation.backtest"])
        put("evaluation.metrics_s", self.total("evaluation.metrics"))
        put("changepoint.bcp_s", self.total("changepoint.bcp"))
        put("changepoint.bcp_calls", self.calls_of("changepoint.bcp"))
        put("changepoint.sweep_ms", 1e3 * self.total("changepoint.bcp") / c["changepoint.sweeps"]
            if c["changepoint.sweeps"] else None)
        put("changepoint.log_w_integral_calls",
            self.calls["flunowcast.changepoint:log_w_integral"])
        put("changepoint.log_inc_beta_calls",
            self.calls["flunowcast.changepoint:log_inc_beta"])
        put("changepoint.match_s", self.total("changepoint.match"))
        return out, absent
