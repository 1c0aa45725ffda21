"""Batch command-line front door.

Subcommands: ``synth``, ``select``, ``backtest``, ``ablate``,
``changepoint``. Every command is idempotent: identical flags and seeds
produce byte-identical output files (no timestamps, sorted JSON keys,
shortest-round-trip floats). Config files are JSON; command-line flags win
over file values.

Exit codes: 0 success; 2 I/O failure or an invalid flag; 3 alignment
failure; 4 model failure (partial results are still written); 5 unknown
ablation label; 6 degenerate change-point input. ``main`` is the one place
that turns errors into exit codes 2, 3 and 6; a command body only parses
its input, runs, and hands its output to ``_write_run`` (or to stdout).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .changepoint import BcpConfig, score_resource
from .errors import AlignmentError, DegenerateInput, EmptyIntersection, FluNowcastError
from .evaluation import (
    ModelSpec,
    backtest,
    check_type,
    drop_labels,
    dump_json as _dump_json,
    report_text,
    result_to_dict,
    write_plot_csv,
    write_report_json,
)
from .features import DEFAULT_SIGNAL_LAG, LagSpec, SplitPlan
from .models import MODELS
from .rng import derive_seed
from .selection import CandidateQuery, SelectionConfig, select_queries
from .series import (
    ResourceKind,
    UGC_RESOURCES,
    WeekIndex,
    align,
    read_series_csv,
    write_series_csv,
)
from .synth import ProxyConfig, SynthConfig, config_to_dict, gen_flu, gen_proxy

EXIT_OK = 0
EXIT_IO = 2
EXIT_ALIGNMENT = 3
EXIT_MODEL = 4
EXIT_BAD_DROP = 5
EXIT_DEGENERATE = 6

DEFAULT_THRESHOLDS = {"search": 0.70, "social": 0.75, "shopping": None, "qa": None}


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


# The keys each command reads from its --config object or its flags, and
# their types; a key that is also a flag of the command is taken from the flag.
SYNTH_KEYS = {"years": int, "proxies": int, "baseline": float, "peak_scale": float,
              "noise_sd": float, "proxy_lead": int, "proxy_gain": float,
              "proxy_noise": float, "seed": int, "out": str}
SELECT_KEYS = {"target": str, "candidates": list[str], "threshold": float, "out": str}
RUN_KEYS = {"flu": str, "resources": dict[str, list[str]],
            "thresholds": dict[str, float | None], "train_start": str,
            "windows": list[dict[str, str]], "lag": dict[str, int], "signal_lag": int,
            "model": str, "model_options": dict[str, dict], "seed": int, "out": str}


def _merged_options(args, keys: dict) -> dict:
    """The ``--config`` file's JSON object, if one is given, with each flag
    among ``keys`` that was given on the command line written over it. Every
    value of a key in ``keys`` must fit that key's type; other keys pass."""
    merged = {}
    if getattr(args, "config", None):
        merged = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(merged, dict):
            raise ValueError(f"{args.config}: a run config must be a JSON object")
    for name, hint in keys.items():
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = value
        if name in merged:
            check_type(repr(name), hint, merged[name])
    return merged


def _write_run(out, write, wrote: str, failures=(), failed: str = "") -> int:
    """Make the directory ``out``, call ``write`` on its path, and add
    failures.json when some of the run failed: exit 4 then, with the
    partial results kept."""
    out = Path(out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        write(out)
        if failures:
            _dump_json(failures, out / "failures.json")
    except OSError as exc:
        raise OSError(f"cannot write to {out}: {exc}") from exc
    if failures:
        return _fail(EXIT_MODEL, f"{len(failures)} {failed} failed; "
                                 f"partial results in {out}")
    print(f"wrote {wrote} to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    opts = _merged_options(args, SYNTH_KEYS)
    if "out" not in opts:
        raise ValueError("synth needs --out (or an 'out' config entry)")
    n_proxies = opts.get("proxies", 4)
    if n_proxies < 0:
        raise ValueError(f"proxies must be non-negative, got {n_proxies}")
    flu_cfg = SynthConfig(**{name: opts[name] for name in
                             ("years", "baseline", "peak_scale", "noise_sd", "seed")
                             if name in opts})
    proxy_cfgs = [ProxyConfig(name=f"proxy_{i + 1:02d}",
                              resource=UGC_RESOURCES[i % len(UGC_RESOURCES)],
                              lead_weeks=opts.get("proxy_lead", 2),
                              gain=opts.get("proxy_gain", 0.05),
                              noise_sd=opts.get("proxy_noise", 150.0),
                              seed=derive_seed(flu_cfg.seed, i + 1))
                  for i in range(n_proxies)]
    flu = gen_flu(flu_cfg)

    def write(out: Path) -> None:
        write_series_csv(flu, out / "flu.csv")
        for cfg in proxy_cfgs:
            write_series_csv(gen_proxy(flu, cfg), out / f"{cfg.name}.csv")
        _dump_json({"flu": config_to_dict(flu_cfg),
                    "proxies": [config_to_dict(c) for c in proxy_cfgs]},
                   out / "manifest.json")

    return _write_run(opts["out"], write,
                      f"{1 + len(proxy_cfgs)} series + manifest")


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------

def cmd_select(args) -> int:
    opts = _merged_options(args, SELECT_KEYS)
    if "target" not in opts or not opts.get("candidates"):
        raise ValueError("select needs --target and --candidates")
    target = read_series_csv(opts["target"], resource=ResourceKind.FLU_PATIENTS)
    candidates = [CandidateQuery(term=Path(p).stem, volume=read_series_csv(p))
                  for p in opts["candidates"]]
    result = select_queries(candidates, target,
                            SelectionConfig(threshold=opts.get("threshold", 0.70)))
    payload = [{"term": term, "r": r} for term, r in result.selected]
    if opts.get("out"):
        _dump_json(payload, Path(opts["out"]))
    else:
        sys.stdout.write(report_text(payload))
    return EXIT_OK


# ---------------------------------------------------------------------------
# shared run loading for backtest/ablate
# ---------------------------------------------------------------------------

def _load_run_config(args, models: list[str]) -> dict:
    """The run config, with ``model`` one of ``models`` (the values the
    command's own ``--model`` would take). It must have ``flu``,
    ``train_start`` and ``windows``, each window a ``start`` and an ``end``.
    Every key of ``resources`` and ``thresholds`` must be a UGC resource
    tag, every key of ``lag`` ``min`` or ``max``, and every key of
    ``model_options`` a model kind."""
    config = _merged_options(args, RUN_KEYS)
    tags = [kind.value for kind in UGC_RESOURCES]
    for key, accepted in (("resources", tags), ("thresholds", tags),
                          ("lag", ["min", "max"]), ("model_options", list(MODELS))):
        unknown = sorted(set(config.get(key, {})) - set(accepted))
        if unknown:
            raise ValueError(f"unknown key(s) {unknown} in {key!r}; accepted: {accepted}")
    for key in ("flu", "train_start", "windows"):
        if key not in config:
            raise ValueError(f"the run config has no {key!r}")
    for window in config["windows"]:
        for key in ("start", "end"):
            if key not in window:
                raise ValueError(f"window {window} in the run config has no {key!r}")
    config.setdefault("out", ".")
    config.setdefault("seed", 0)
    config.setdefault("model", "huber")
    config.setdefault("signal_lag", DEFAULT_SIGNAL_LAG)
    if config["model"] not in models:
        raise ValueError(f"'model' must be one of {models}, got {config['model']!r}")
    return config


def _build_panel_and_selection(config: dict):
    """Load the flu series and per-resource candidates, align everything,
    and apply each resource's selection threshold (null = keep all)."""
    thresholds = {**DEFAULT_THRESHOLDS, **config.get("thresholds", {})}
    flu = read_series_csv(config["flu"], name="flu",
                          resource=ResourceKind.FLU_PATIENTS)
    candidates = {kind: [read_series_csv(p, resource=kind)
                         for p in config.get("resources", {}).get(kind.value, [])]
                  for kind in UGC_RESOURCES}
    panel = align([flu, *(s for group in candidates.values() for s in group)])
    per_resource: dict[ResourceKind, list[str]] = {}
    for kind, group in candidates.items():
        names = [s.name for s in group]
        threshold = thresholds[kind.value]
        if threshold is None:
            per_resource[kind] = names
        else:
            result = select_queries([CandidateQuery(term=n, volume=panel[n]) for n in names],
                                    panel["flu"], SelectionConfig(threshold=threshold))
            per_resource[kind] = result.terms()
    return panel, per_resource


def _load_run(args, models: list[str]) -> tuple[dict, dict]:
    """The run config of a backtest/ablate command, whose ``model`` must be
    one of ``models``, and the keywords that each of its ``backtest`` calls
    takes."""
    config = _load_run_config(args, models)
    panel, selected = _build_panel_and_selection(config)
    plan = SplitPlan.of(WeekIndex.parse(config["train_start"]),
                        [(WeekIndex.parse(w["start"]), WeekIndex.parse(w["end"]))
                         for w in config["windows"]])
    lag = config.get("lag", {})
    lag_spec = LagSpec(**{field: lag[key] for key, field in
                          (("min", "min_lag"), ("max", "max_lag")) if key in lag})
    return config, {"panel": panel, "selected": selected, "plan": plan,
                    "lag_spec": lag_spec, "signal_lag": config["signal_lag"],
                    "seed": config["seed"]}


def _model_spec(config: dict, kind: str) -> ModelSpec:
    return ModelSpec(kind=kind, options=config.get("model_options", {}).get(kind, {}))


def _run_each(key: str, names, run) -> tuple[list, list]:
    """``(name, run(name))`` for each name. A model failure becomes a
    failures.json entry under ``key`` and the remaining names still run."""
    done, failures = [], []
    for name in names:
        try:
            done.append((name, run(name)))
        except (FluNowcastError, ValueError) as exc:
            failures.append({key: name, "error": str(exc)})
    return done, failures


# ---------------------------------------------------------------------------
# backtest
# ---------------------------------------------------------------------------

def cmd_backtest(args) -> int:
    config, run_args = _load_run(args, [*MODELS, "all"])
    kinds = list(MODELS) if config["model"] == "all" else [config["model"]]
    runs, failures = _run_each(
        "model", kinds, lambda kind: backtest(spec=_model_spec(config, kind), **run_args))
    results = [res for _, blocks in runs for res in blocks]

    def write(out: Path) -> None:
        write_report_json(results, out / "backtest.json")
        for res in results:
            write_plot_csv(res, out / f"plot_{res.model_kind}_{res.window[0].iso()}.csv")

    return _write_run(config["out"], write,
                      f"{len(results)} result block(s)", failures, "model run(s)")


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------

def cmd_ablate(args) -> int:
    if args.drop not in ("all", *drop_labels()):
        print(f"usage: --drop must be one of {['all', *drop_labels()]}", file=sys.stderr)
        return EXIT_BAD_DROP
    labels = drop_labels() if args.drop == "all" else [args.drop]
    config, run_args = _load_run(args, list(MODELS))
    model = config["model"]
    # a kind that reads no features gives the same row under every label
    once = not MODELS[model].features
    runs, failures = _run_each(
        "dropped", labels[:1] if once else labels,
        lambda label: backtest(spec=_model_spec(config, model), drop=label, **run_args))
    if once:
        runs = [(label, results) for _, results in runs for label in labels]
        failures = [{**fail, "dropped": label} for fail in failures for label in labels]
    rows = [{"dropped": label, "windows": [result_to_dict(r) for r in results]}
            for label, results in runs]
    return _write_run(config["out"], lambda out: _dump_json(rows, out / "ablation.json"),
                      f"{len(rows)} ablation row(s)", failures, "ablation row(s)")


# ---------------------------------------------------------------------------
# changepoint
# ---------------------------------------------------------------------------

def cmd_changepoint(args) -> int:
    flu = read_series_csv(args.flu, name="flu", resource=ResourceKind.FLU_PATIENTS)
    queries = [read_series_csv(p) for p in args.queries]
    panel = align([flu, *queries])
    flu_aligned = panel["flu"]
    if flu_aligned.values.min() == flu_aligned.values.max():
        raise DegenerateInput("flu series has zero variance")

    config = BcpConfig(iterations=args.iterations, burn_in=args.burn_in,
                       p0=args.p0, w0=args.w0, seed=args.seed)
    score = score_resource(flu_aligned, [panel[q.name] for q in queries], flu_aligned,
                           config, top_k=args.top_k, threshold=args.threshold,
                           window=args.window)

    def report_dict(report):
        return {"tp": report.true_positive, "fp": report.false_positive,
                "fn": report.false_negative, "sensitivity": report.sensitivity,
                "ppv": report.ppv}

    payload = {
        "probabilities": [float(p) for p in score.flu_probabilities],
        "detected": score.flu_detected,
        "queries": [
            {"term": q.term, "r": q.correlation, "detected": q.detected,
             "matches": report_dict(q.report)}
            for q in score.queries
        ],
        "matches": report_dict(score.aggregate),
    }
    if args.out:
        return _write_run(args.out,
                          lambda out: _dump_json(payload, out / "changepoint.json"),
                          "change-point report")
    sys.stdout.write(report_text(payload))
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flunowcast",
        description="Multi-resource influenza nowcasting toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic panel")
    p_synth.add_argument("--config", help="JSON file; flags override its values")
    p_synth.add_argument("--years", type=int)
    p_synth.add_argument("--proxies", type=int)
    p_synth.add_argument("--baseline", type=float)
    p_synth.add_argument("--peak-scale", type=float, dest="peak_scale")
    p_synth.add_argument("--noise-sd", type=float, dest="noise_sd")
    p_synth.add_argument("--proxy-lead", type=int, dest="proxy_lead")
    p_synth.add_argument("--proxy-gain", type=float, dest="proxy_gain")
    p_synth.add_argument("--proxy-noise", type=float, dest="proxy_noise")
    p_synth.add_argument("--seed", type=int)
    p_synth.add_argument("--out")
    p_synth.set_defaults(func=cmd_synth)

    p_select = sub.add_parser("select", help="correlation-gated query selection")
    p_select.add_argument("--config", help="JSON file; flags override its values")
    p_select.add_argument("--target")
    p_select.add_argument("--candidates", nargs="+")
    p_select.add_argument("--threshold", type=float)
    p_select.add_argument("--seed", type=int,
                          help="accepted for interface uniformity; selection is deterministic")
    p_select.add_argument("--out")
    p_select.set_defaults(func=cmd_select)

    p_back = sub.add_parser("backtest", help="rolling-origin model evaluation")
    p_back.add_argument("--config", required=True)
    p_back.add_argument("--model", choices=[*MODELS, "all"])
    p_back.add_argument("--seed", type=int)
    p_back.add_argument("--out")
    p_back.set_defaults(func=cmd_backtest)

    p_abl = sub.add_parser("ablate", help="leave-one-resource-out comparison")
    p_abl.add_argument("--config", required=True)
    p_abl.add_argument("--drop", default="all")
    p_abl.add_argument("--seed", type=int)
    p_abl.add_argument("--out")
    p_abl.set_defaults(func=cmd_ablate)

    p_cp = sub.add_parser("changepoint", help="Bayesian change-point scoring")
    p_cp.add_argument("--flu", required=True)
    p_cp.add_argument("--queries", nargs="+", required=True)
    p_cp.add_argument("--iterations", type=int, default=500)
    p_cp.add_argument("--burn-in", type=int, default=50)
    p_cp.add_argument("--p0", type=float, default=0.1)
    p_cp.add_argument("--w0", type=float, default=0.1)
    p_cp.add_argument("--threshold", type=float, default=0.5)
    p_cp.add_argument("--window", type=int, default=1)
    p_cp.add_argument("--top-k", type=int, default=3)
    p_cp.add_argument("--seed", type=int, default=0)
    p_cp.add_argument("--out")
    p_cp.set_defaults(func=cmd_changepoint)

    return parser


def main(argv=None) -> int:
    """Run one command; the one place where an error becomes an exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (AlignmentError, EmptyIntersection) as exc:
        return _fail(EXIT_ALIGNMENT, str(exc))
    except DegenerateInput as exc:
        return _fail(EXIT_DEGENERATE, str(exc))
    except (OSError, ValueError, KeyError) as exc:
        return _fail(EXIT_IO, str(exc))


if __name__ == "__main__":
    sys.exit(main())
