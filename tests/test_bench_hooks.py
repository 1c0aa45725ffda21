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

from flunowcast import parallel
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


def test_backtest_all_calls_every_required_hook(tracing, data_dir, tmp_path):
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
    metrics, _ = tracer.metrics()
    assert metrics["forest.nodes"] > 0
    assert metrics["lasso.fits"] == metrics["huber.fits"] == metrics["svr.fits"] == 2
    # each solver's certificate on these real backtest fits: LASSO's stopping
    # bound, and for Huber's gradient and SVR's duality gap bounds far above
    # what a converged fit reads here (about 2e-9 and 1e-12)
    assert metrics["lasso.kkt_rel_max"] < 1e-8
    assert metrics["huber.grad_rel_max"] < 1e-6
    assert metrics["svr.gap_rel_max"] < 1e-6


def traced_changepoint(tracing, data_dir, tmp_path):
    """The tracer of a 20-sweep changepoint run on the flu series and two
    queries, after its replay, and the number of W-integrals one posterior
    computes: one per position per sweep, plus the start."""
    code, tracer = traced(tracing, [
        "changepoint", "--flu", data_dir / "flu.csv",
        "--queries", data_dir / "proxy_01.csv", data_dir / "proxy_02.csv",
        "--iterations", "20", "--burn-in", "2", "--out", tmp_path / "cp"])
    assert code == 0
    tracer.replay_counts()
    n = len((data_dir / "flu.csv").read_text(encoding="utf-8").splitlines()) - 1
    return tracer, 20 * (n - 1) + 1


def test_changepoint_calls_every_required_hook(tracing, data_dir, tmp_path, monkeypatch):
    monkeypatch.setattr(parallel, "cpus", lambda: 1)
    tracer, per_posterior = traced_changepoint(tracing, data_dir, tmp_path)
    tracer.check_required("changepoint")
    # the replay counts every W-integral, not only the sampler's fallbacks:
    # flu and both queries
    assert tracer.calls["flunowcast.changepoint:log_w_integral"] == 3 * per_posterior


def test_changepoint_traces_only_the_calling_process_chunk(tracing, data_dir, tmp_path,
                                                          monkeypatch):
    # the hooks live in this process, so on 2 CPUs they see chunk 0 (the flu
    # series) and not the queries sampled in the forked child
    monkeypatch.setattr(parallel, "cpus", lambda: 2)
    tracer, per_posterior = traced_changepoint(tracing, data_dir, tmp_path)
    tracer.check_required("changepoint")
    assert tracer.calls["flunowcast.changepoint:bcp_posterior"] == 1
    assert tracer.calls["flunowcast.changepoint:log_w_integral"] == per_posterior
