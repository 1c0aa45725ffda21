"""Batch command-line front door.

Subcommands: ``synth``, ``select``, ``backtest``, ``ablate``,
``changepoint``. Every command is idempotent: identical flags and seeds
produce byte-identical output files (no timestamps, sorted JSON keys,
shortest-round-trip floats). Config files are JSON; command-line flags win
over file values.

Exit codes: 0 success; 2 I/O failure or an invalid flag; 3 alignment
failure; 4 model failure (partial results are still written); 5 unknown
ablation label; 6 degenerate change-point input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .changepoint import BcpConfig, score_resource
from .errors import AlignmentError, DegenerateInput, EmptyIntersection, FluNowcastError
from .evaluation import (
    MODEL_KINDS,
    ModelSpec,
    ablate,
    backtest,
    drop_labels,
    result_to_dict,
    write_plot_csv,
    write_report_json,
)
from .features import DEFAULT_SIGNAL_LAG, LagSpec, SplitPlan
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
from .synth import (
    ProxyConfig,
    SynthConfig,
    flu_config_to_dict,
    gen_flu,
    gen_proxy,
    proxy_config_to_dict,
)

EXIT_OK = 0
EXIT_IO = 2
EXIT_ALIGNMENT = 3
EXIT_MODEL = 4
EXIT_BAD_DROP = 5
EXIT_DEGENERATE = 6

DEFAULT_THRESHOLDS = {"search": 0.70, "social": 0.75, "shopping": None, "qa": None}


def _dump_json(payload, path: Path) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def _merged_options(args, flag_names) -> dict:
    """Config-file values overridden by explicitly supplied flags."""
    merged = {}
    if getattr(args, "config", None):
        merged.update(json.loads(Path(args.config).read_text(encoding="utf-8")))
    for name in flag_names:
        value = getattr(args, name)
        if value is not None:
            merged[name] = value
    return merged


def cmd_synth(args) -> int:
    opts = _merged_options(args, ["years", "proxies", "baseline", "peak_scale",
                                  "noise_sd", "proxy_lead", "proxy_gain",
                                  "proxy_noise", "seed", "out"])
    if "out" not in opts:
        return _fail(EXIT_IO, "synth needs --out (or an 'out' config entry)")
    out = Path(opts["out"])
    seed = opts.get("seed", 0)
    flu_cfg = SynthConfig(years=opts.get("years", 5),
                          baseline=opts.get("baseline", 1000.0),
                          peak_scale=opts.get("peak_scale", 30000.0),
                          noise_sd=opts.get("noise_sd", 300.0),
                          seed=seed)
    flu = gen_flu(flu_cfg)
    proxy_cfgs = []
    for i in range(opts.get("proxies", 4)):
        resource = UGC_RESOURCES[i % len(UGC_RESOURCES)]
        proxy_cfgs.append(ProxyConfig(
            name=f"proxy_{i + 1:02d}", resource=resource,
            lead_weeks=opts.get("proxy_lead", 2),
            gain=opts.get("proxy_gain", 0.05),
            noise_sd=opts.get("proxy_noise", 150.0),
            seed=derive_seed(seed, i + 1)))
    try:
        out.mkdir(parents=True, exist_ok=True)
        write_series_csv(flu, out / "flu.csv")
        for cfg in proxy_cfgs:
            write_series_csv(gen_proxy(flu, cfg), out / f"{cfg.name}.csv")
        manifest = {
            "flu": flu_config_to_dict(flu_cfg),
            "proxies": [proxy_config_to_dict(c) for c in proxy_cfgs],
        }
        _dump_json(manifest, out / "manifest.json")
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write to {out}: {exc}")
    print(f"wrote {1 + len(proxy_cfgs)} series + manifest to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------

def cmd_select(args) -> int:
    opts = _merged_options(args, ["target", "candidates", "threshold", "out"])
    if "target" not in opts or not opts.get("candidates"):
        return _fail(EXIT_IO, "select needs --target and --candidates")
    try:
        target = read_series_csv(opts["target"], resource=ResourceKind.FLU_PATIENTS)
        candidates = [
            CandidateQuery(term=Path(p).stem, volume=read_series_csv(p))
            for p in opts["candidates"]
        ]
        result = select_queries(candidates, target,
                                SelectionConfig(threshold=opts.get("threshold", 0.70)))
    except (AlignmentError, EmptyIntersection) as exc:
        return _fail(EXIT_ALIGNMENT, str(exc))
    except (OSError, ValueError) as exc:
        return _fail(EXIT_IO, str(exc))
    payload = [{"term": term, "r": r} for term, r in result.selected]
    if opts.get("out"):
        _dump_json(payload, Path(opts["out"]))
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# shared run loading and writing for backtest/ablate
# ---------------------------------------------------------------------------

def _load_run_config(args) -> dict:
    config = {}
    if args.config:
        config = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(config, dict):
            raise ValueError(f"{args.config}: a run config must be a JSON object")
    if args.seed is not None:
        config["seed"] = args.seed
    if getattr(args, "model", None):
        config["model"] = args.model
    if args.out:
        config["out"] = args.out
    config.setdefault("seed", 0)
    config.setdefault("model", "huber")
    config.setdefault("signal_lag", DEFAULT_SIGNAL_LAG)
    return config


def _build_panel_and_selection(config: dict):
    """Load the flu series and per-resource candidates, align everything,
    and apply each resource's selection threshold (null = keep all)."""
    flu = read_series_csv(config["flu"], name="flu",
                          resource=ResourceKind.FLU_PATIENTS)
    series_list = [flu]
    per_resource: dict[ResourceKind, list[str]] = {}
    thresholds = {**DEFAULT_THRESHOLDS, **config.get("thresholds", {})}
    for kind in UGC_RESOURCES:
        paths = config.get("resources", {}).get(kind.value, [])
        for p in paths:
            series_list.append(read_series_csv(p, resource=kind))
    panel = align(series_list)
    target = panel["flu"]
    for kind in UGC_RESOURCES:
        paths = config.get("resources", {}).get(kind.value, [])
        names = [Path(p).stem for p in paths]
        threshold = thresholds.get(kind.value)
        if threshold is None:
            per_resource[kind] = names
        else:
            candidates = [CandidateQuery(term=n, volume=panel[n]) for n in names]
            result = select_queries(candidates, target,
                                    SelectionConfig(threshold=threshold))
            per_resource[kind] = result.terms()
    return panel, per_resource


def _load_run(args) -> tuple[dict, dict] | int:
    """The run config of a backtest/ablate command and the keywords that
    each of its ``backtest``/``ablate`` calls takes; or the exit code when
    they cannot be loaded."""
    try:
        config = _load_run_config(args)
        panel, selected = _build_panel_and_selection(config)
        plan = SplitPlan.of(WeekIndex.parse(config["train_start"]),
                            [(WeekIndex.parse(w["start"]), WeekIndex.parse(w["end"]))
                             for w in config["windows"]])
        lag = config.get("lag", {})
        lag_spec = LagSpec(min_lag=lag.get("min", 2), max_lag=lag.get("max", 53))
    except (AlignmentError, EmptyIntersection) as exc:
        return _fail(EXIT_ALIGNMENT, str(exc))
    except (OSError, ValueError, KeyError) as exc:
        return _fail(EXIT_IO, str(exc))
    return config, {"panel": panel, "selected": selected, "plan": plan,
                    "lag_spec": lag_spec, "signal_lag": config["signal_lag"],
                    "seed": config["seed"]}


def _model_spec(config: dict, kind: str) -> ModelSpec:
    return ModelSpec(kind=kind, options=config.get("model_options", {}).get(kind, {}))


def _run_each(key: str, names, run) -> tuple[list, list]:
    """``run(name)`` for each name. A model failure becomes a failures.json
    entry under ``key`` and the remaining names still run."""
    done, failures = [], []
    for name in names:
        try:
            done.append(run(name))
        except (FluNowcastError, ValueError) as exc:
            failures.append({key: name, "error": str(exc)})
    return done, failures


def _write_run(config: dict, write, failures: list, failed: str, wrote: str) -> int:
    """Write what ran into the run's out directory, plus failures.json when
    some of it failed: exit 4 then, with the partial results kept."""
    out = Path(config.get("out", "."))
    try:
        out.mkdir(parents=True, exist_ok=True)
        write(out)
        if failures:
            _dump_json(failures, out / "failures.json")
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write to {out}: {exc}")
    if failures:
        return _fail(EXIT_MODEL, f"{len(failures)} {failed} failed; "
                                 f"partial results in {out}")
    print(f"wrote {wrote} to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# backtest
# ---------------------------------------------------------------------------

def cmd_backtest(args) -> int:
    loaded = _load_run(args)
    if isinstance(loaded, int):
        return loaded
    config, run_args = loaded
    kinds = MODEL_KINDS if config["model"] == "all" else [config["model"]]
    runs, failures = _run_each(
        "model", kinds, lambda kind: backtest(spec=_model_spec(config, kind), **run_args))
    results = [res for blocks in runs for res in blocks]

    def write(out: Path) -> None:
        write_report_json(results, out / "backtest.json")
        for res in results:
            write_plot_csv(res, out / f"plot_{res.model_kind}_{res.window[0].iso()}.csv")

    return _write_run(config, write, failures, "model run(s)",
                      f"{len(results)} result block(s)")


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------

def cmd_ablate(args) -> int:
    if args.drop not in ("all", *drop_labels()):
        print(f"usage: --drop must be one of {['all', *drop_labels()]}", file=sys.stderr)
        return EXIT_BAD_DROP
    labels = drop_labels() if args.drop == "all" else [args.drop]
    loaded = _load_run(args)
    if isinstance(loaded, int):
        return loaded
    config, run_args = loaded
    results, failures = _run_each(
        "dropped", labels,
        lambda label: ablate(spec=_model_spec(config, config["model"]), drop=label,
                             **run_args))
    rows = [{"dropped": res.dropped, "windows": [result_to_dict(r) for r in res.results]}
            for res in results]
    return _write_run(config, lambda out: _dump_json(rows, out / "ablation.json"),
                      failures, "ablation row(s)", f"{len(rows)} ablation row(s)")


# ---------------------------------------------------------------------------
# changepoint
# ---------------------------------------------------------------------------

def cmd_changepoint(args) -> int:
    try:
        flu = read_series_csv(args.flu, name="flu",
                              resource=ResourceKind.FLU_PATIENTS)
        queries = [read_series_csv(p) for p in args.queries]
        panel = align([flu, *queries])
    except (AlignmentError, EmptyIntersection) as exc:
        return _fail(EXIT_ALIGNMENT, str(exc))
    except (OSError, ValueError) as exc:
        return _fail(EXIT_IO, str(exc))
    flu_aligned = panel["flu"]
    if flu_aligned.values.min() == flu_aligned.values.max():
        return _fail(EXIT_DEGENERATE, "flu series has zero variance")

    aligned_queries = [panel[q.name] for q in queries]
    try:
        config = BcpConfig(iterations=args.iterations, burn_in=args.burn_in,
                           p0=args.p0, w0=args.w0, seed=args.seed)
        score = score_resource(flu_aligned, aligned_queries, flu_aligned, config,
                               top_k=args.top_k, threshold=args.threshold,
                               window=args.window)
    except DegenerateInput as exc:
        return _fail(EXIT_DEGENERATE, str(exc))
    except ValueError as exc:
        return _fail(EXIT_IO, str(exc))

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
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
            _dump_json(payload, out / "changepoint.json")
        except OSError as exc:
            return _fail(EXIT_IO, f"cannot write to {out}: {exc}")
        print(f"wrote change-point report to {out}")
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
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
    p_back.add_argument("--model", choices=[*MODEL_KINDS, "all"])
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
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
