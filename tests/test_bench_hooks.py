"""The benchmark's per-layer hooks still fit the program.

``bench/tracing.py`` wraps public functions at the names their callers look
up, and its certificate recorders read the arguments of the fits they wrap.
A rename or a signature change there only fails the traced benchmark run,
with ``HookError`` or a binding error; these cases run the same tracer on
two small CLI commands so the suite fails first. The backtest case also
checks the solver certificates the tracer records on its fits. The tracer
is imported from its file and used as it is.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from flunowcast import changepoint, evaluation, parallel
from flunowcast.cli import main

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    writes_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)  # leaves nothing behind under bench/
    finally:
        sys.dont_write_bytecode = writes_bytecode
    return module


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("hooks") / "data"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--years", "5", "--proxies", "4", "--seed", "42",
                     "--out", str(out)]) == 0
    return out


def traced(tracing, argv):
    with tracing.Tracer() as tracer, contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    return code, tracer


def traced_backtest(tracing, data_dir, tmp_path):
    """The tracer of a 2-split ``backtest --model all`` run."""
    config = {
        "flu": str(data_dir / "flu.csv"),
        "resources": {kind: [str(data_dir / f"proxy_{i + 1:02d}.csv")]
                      for i, kind in enumerate(["search", "social", "shopping", "qa"])},
        "train_start": "2014-10-06",
        "windows": [{"start": "2017-10-30", "end": "2017-11-06"}],
        "model_options": {"forest": {"n_trees": 3}},
        "seed": 0,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, tracer = traced(tracing, ["backtest", "--config", path, "--model", "all",
                                    "--out", tmp_path / "out"])
    assert code == 0
    tracer.check_required("backtest")
    return tracer


def test_backtest_all_calls_every_required_hook(tracing, data_dir, tmp_path, monkeypatch):
    monkeypatch.setattr(parallel, "cpus", lambda: 1)
    tracer = traced_backtest(tracing, data_dir, tmp_path)
    metrics, _ = tracer.metrics()
    assert metrics["forest.nodes"] > 0
    assert metrics["lasso.fits"] == metrics["huber.fits"] == metrics["svr.fits"] == 2
    # each solver's certificate on these real backtest fits: LASSO's stopping
    # bound, and for Huber's gradient and SVR's duality gap bounds far above
    # what a converged fit reads here (about 2e-9 and 1e-12)
    assert metrics["lasso.kkt_rel_max"] < 1e-8
    assert metrics["huber.grad_rel_max"] < 1e-6
    assert metrics["svr.gap_rel_max"] < 1e-6


def test_backtest_traces_only_the_calling_process_chunk(tracing, data_dir, tmp_path,
                                                        monkeypatch):
    # the hooks live in this process, so on 2 CPUs they see chunk 0 (split 0)
    # of each model and not split 1, which a forked child fits
    monkeypatch.setattr(parallel, "cpus", lambda: 2)
    splits = []
    derive_seed = evaluation.derive_seed
    monkeypatch.setattr(evaluation, "derive_seed",
                        lambda seed, split_no: splits.append(split_no) or
                        derive_seed(seed, split_no))
    tracer = traced_backtest(tracing, data_dir, tmp_path)
    assert splits == [0, 0, 0, 0]  # one split of each feature model
    metrics, _ = tracer.metrics()
    for kind in ("lasso", "huber", "svr", "forest", "arima"):
        assert metrics[f"{kind}.fits"] == 1, kind


def traced_changepoint(tracing, data_dir, tmp_path):
    """The tracer of a 20-sweep changepoint run on the flu series and two
    queries, after its replay."""
    code, tracer = traced(tracing, [
        "changepoint", "--flu", data_dir / "flu.csv",
        "--queries", data_dir / "proxy_01.csv", data_dir / "proxy_02.csv",
        "--iterations", "20", "--burn-in", "2", "--out", tmp_path / "cp"])
    assert code == 0
    tracer.replay_counts()
    return tracer


def w_integrals(posteriors, monkeypatch):
    """The W-integrals that direct ``bcp_posterior`` calls on these
    (series, config) pairs compute, counted at the name the sampler looks
    up: the start, plus each draw that the first-order test does not settle."""
    calls = []
    original = changepoint.log_w_integral

    def counted(*args):
        calls.append(args)
        return original(*args)

    with monkeypatch.context() as patch:
        patch.setattr(changepoint, "log_w_integral", counted)
        for series, config in posteriors:
            changepoint.bcp_posterior(series, config)
    return len(calls)


def sampled(tracer):
    """The (series, config) of each recorded bcp_posterior call."""
    return [(args[0], args[1]) for _, args, _ in tracer.replays]


def test_changepoint_calls_every_required_hook(tracing, data_dir, tmp_path, monkeypatch):
    monkeypatch.setattr(parallel, "cpus", lambda: 1)
    tracer = traced_changepoint(tracing, data_dir, tmp_path)
    tracer.check_required("changepoint")
    # the replay counts every W-integral the sampler computes: flu and both
    # queries, each with its own stream
    posteriors = sampled(tracer)
    assert posteriors[0][0].name == "flu"
    assert len({config.seed for _, config in posteriors}) == len(posteriors) == 3
    assert tracer.calls["flunowcast.changepoint:log_w_integral"] == \
        w_integrals(posteriors, monkeypatch)


def test_changepoint_traces_only_the_calling_process_chunk(tracing, data_dir, tmp_path,
                                                          monkeypatch):
    # the hooks live in this process, so on 2 CPUs they see chunk 0 (the flu
    # series) and not the queries sampled in the forked child
    monkeypatch.setattr(parallel, "cpus", lambda: 2)
    tracer = traced_changepoint(tracing, data_dir, tmp_path)
    tracer.check_required("changepoint")
    assert tracer.calls["flunowcast.changepoint:bcp_posterior"] == 1
    posteriors = sampled(tracer)
    assert [series.name for series, _ in posteriors] == ["flu"]
    assert tracer.calls["flunowcast.changepoint:log_w_integral"] == \
        w_integrals(posteriors, monkeypatch)
