"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload changepoint_default --seed 3 --seconds 30 --trace 0

Run it from the root of a source checkout; it needs nothing built or
installed. It writes the workload's inputs from ``--seed`` (see ``gen.py``)
and then does one of two things.

``--trace 0`` times CLI commands, each in a fresh interpreter with tracing
off (``child.py``): one client, one command at a time, at least once and
again while the next should end within ``--seconds``. It also times
``import flunowcast.cli`` alone in ``SETUP_IMPORTS`` fresh interpreters
and takes the median of all import times, so one import that still fills
the bytecode cache does not count. It prints the end-to-end metrics, with
times scaled to the reference host speed (see ``probe_s``).

``--trace 1`` runs the command once in this process with every layer
wrapped (``tracing.py``), then once untraced in a fresh interpreter, and
prints the per-layer metrics, including the tracing overhead: the traced
wall time over the untraced one, minus 1.

Every command's outputs are checked: exit code 0, the expected blocks
with ``n`` equal to the window length or the expected scored series,
finite predictions, and files byte-identical to the run's first good
command (the CLI's determinism contract). A failed check fails the
operations it touches (a model block or a scored series) and is printed.
Work files go under ``.bench_work/`` and are removed.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the line before it is the full record, with the machine's facts.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import importlib.util
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

DEADLINE_S = 170.0   # a run must end within 180 s
SETUP_IMPORTS = 5    # import-only interpreters per timed run


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


# --- machine facts (read only; nothing is changed to get them) -------------

def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    import numpy  # noqa: F401  (loads the BLAS library)
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # a plain source tree, as when the benchmark is driven
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def files_digest(root: Path, pattern: str):
    """sha256 over the names and bytes of the files under ``root``."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob(pattern) if p.is_file()):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest


def machine_facts() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": _git_commit(),
        "src_sha256": files_digest(SRC, "*.py").hexdigest(),
    }


# --- host speed -----------------------------------------------------------

# The host's speed drifts by up to half again in phases lasting minutes,
# longer than a run. A fixed job timed between the commands of a run tells
# how fast the host ran then, and the run's times are scaled by it.
PROBE_ROUNDS = 10000
PROBE_REPEATS = 2     # probes at each point of a run
PROBE_REF_S = 0.25    # probe time at the reference speed; sets the scale


def probe_s() -> float:
    """Seconds for one fixed job shaped like the program's inner loops:
    scalar numpy indexing and math calls in interpreted loops. It shares no
    code with the program, so only the host's speed moves it."""
    import numpy as np
    gram = np.linspace(-1.0, 1.0, 56 * 56).reshape(56, 56)
    grad = np.zeros(56)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(PROBE_ROUNDS):
        j = i % 56
        for k in range(56):
            grad[k] -= 1e-9 * gram[k, j]
        acc += math.log1p(abs(grad[j])) + math.exp(-1e-3 * j)
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise RuntimeError("host speed probe went non-finite")
    return elapsed


# --- output checks --------------------------------------------------------

def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and not isinstance(v, bool)
               and math.isfinite(v) for v in values)


def operations(expect: dict) -> list[str]:
    if expect["kind"] == "backtest":
        return list(expect["models"])
    return ["flu"] + [f"query{k + 1}" for k in range(expect["queries"])]


def fits(expect: dict) -> int:
    """Model refits per command; on change points, BCP posteriors."""
    if expect["kind"] == "changepoint":
        return 1 + expect["queries"]
    return len(expect["models"]) * expect["n"]


def _check_window(block: dict, n: int) -> str | None:
    preds = block["predictions"]
    if block["n"] != n or len(preds) != n:
        return f"n={block['n']} with {len(preds)} predictions, expected {n}"
    if not _finite(block["r2"], block["mae"], block["mape"],
                   *(p["predicted"] for p in preds), *(p["actual"] for p in preds)):
        return "non-finite prediction or metric"
    return None


def _check_backtest(expect: dict, out: Path, failed: dict, quality: dict) -> None:
    if (out / "failures.json").exists():
        for entry in json.loads((out / "failures.json").read_text(encoding="utf-8")):
            failed[entry["model"]] = f"in failures.json: {entry['error']}"
    blocks = {b["model"]: b for b in
              json.loads((out / "backtest.json").read_text(encoding="utf-8"))}
    for model in expect["models"]:
        block = blocks.get(model)
        problem = "no result block" if block is None else _check_window(block, expect["n"])
        if problem is None and not (out / f"plot_{model}_{block['window']['start']}.csv").is_file():
            problem = "no plot CSV"
        if problem is not None:
            failed.setdefault(model, problem)
            continue
        for key in ("r2", "mae", "mape"):
            quality[key].append(block[key])


def _check_changepoint(expect: dict, out: Path, failed: dict, quality: dict) -> None:
    report = json.loads((out / "changepoint.json").read_text(encoding="utf-8"))
    probs = report["probabilities"]
    if (len(probs) != expect["positions"] or not _finite(*probs)
            or not all(0.0 <= p <= 1.0 for p in probs)
            or not isinstance(report["detected"], list)):
        failed["flu"] = "bad flu probabilities or detections"
    queries = report["queries"]
    for k in range(expect["queries"]):
        q = queries[k] if k < len(queries) else None
        if q is None or not _finite(q["r"]) or not isinstance(q["detected"], list):
            failed[f"query{k + 1}"] = "missing or malformed query score"
    quality["sensitivity"] = report["matches"]["sensitivity"]
    quality["ppv"] = report["matches"]["ppv"]
    quality["detected"] = len(report["detected"]) + sum(len(q["detected"]) for q in queries)


_CHECKS = {"backtest": _check_backtest, "changepoint": _check_changepoint}


def tree_digests(out: Path) -> dict:
    if not out.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def check_command(expect: dict, code, out: Path, reference: dict | None):
    """(failed operation -> reason, quality values, file digests)."""
    ops = operations(expect)
    failed: dict = {}
    quality: dict = {"r2": [], "mae": [], "mape": []}
    if code != 0:
        failed = {op: f"exit code {code}" for op in ops}
    else:
        try:
            _CHECKS[expect["kind"]](expect, out, failed, quality)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            failed = {op: f"unreadable output: {exc!r}" for op in ops}
    digests = tree_digests(out)
    if reference is not None and digests != reference:
        differ = sorted(set(digests) ^ set(reference)
                        | {k for k in digests.keys() & reference.keys()
                           if digests[k] != reference[k]})
        for op in ops:
            failed.setdefault(op, f"not byte-identical to the first run: {differ}")
    return failed, quality, digests


# --- runs -----------------------------------------------------------------

def run_child(wdir: Path, argv: list, tag: str, deadline: float) -> dict:
    """One fresh interpreter running child.py; its record, or an error."""
    result = wdir / f"{tag}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(wdir / f"{tag}.log", "wb") as log:
        try:
            done = subprocess.run([sys.executable, str(BENCH / "child.py"), str(result), *argv],
                                  cwd=wdir, env=env, stdout=log, stderr=log, check=False,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            return {"error": "timed out"}
    if done.returncode != 0 or not result.exists():
        tail = (wdir / f"{tag}.log").read_text(encoding="utf-8", errors="replace")[-400:]
        return {"error": f"interpreter exited {done.returncode}: {tail}"}
    return json.loads(result.read_text(encoding="utf-8"))


class Tally:
    """Operation and failure tallies of one run, and the reference output
    digests of its first good command."""

    def __init__(self, expect: dict):
        self.expect = expect
        self.reference: dict | None = None
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, tag: str, code, out: Path) -> dict:
        failed, quality, digests = check_command(self.expect, code, out, self.reference)
        if self.reference is None and not failed:
            self.reference = digests
        self.attempted += len(operations(self.expect))
        self.failures += [f"{tag}: {op}: {why}" for op, why in sorted(failed.items())]
        return quality


def untraced(w: dict, wdir: Path, tag: str, deadline: float, tally: Tally) -> dict:
    """The workload's command once, in a fresh interpreter, checked."""
    rec = run_child(wdir, [*w["argv"], "--out", tag], tag, deadline)
    tally.check(tag, rec.get("exit_code", rec.get("error")), wdir / tag)
    return rec


def timed_run(w: dict, wdir: Path, seconds: float, deadline: float,
              tally: Tally) -> tuple[dict, dict]:
    probes: list[float] = []

    def probe():
        probes.extend(probe_s() for _ in range(PROBE_REPEATS))

    probe()
    setup = [run_child(wdir, [], f"setup{k}", deadline).get("setup_s")
             for k in range(SETUP_IMPORTS)]
    probe()
    commands = []
    start = time.monotonic()
    while True:
        rec = untraced(w, wdir, f"cmd{len(commands) + 1}", deadline, tally)
        commands.append(rec)
        probe()
        if "wall_s" not in rec:
            break
        setup.append(rec["setup_s"])
        if (time.monotonic() - start + rec["wall_s"] > seconds
                or time.monotonic() + 1.5 * rec["wall_s"] > deadline):
            break
    timed = [c for c in commands if "wall_s" in c]
    setup = [x for x in setup if x is not None]
    if not timed or not setup:
        raise RuntimeError(f"no command completed: {commands[-1]}")
    walls = [c["wall_s"] for c in timed]
    raw = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "fits_per_s": fits(w["expect"]) * len(walls) / sum(walls),
    }
    slowdown = statistics.median(probes) / PROBE_REF_S
    metrics = {
        "wall_s": raw["wall_s"] / slowdown,
        "setup_s": raw["setup_s"] / slowdown,
        "fits_per_s": raw["fits_per_s"] * slowdown,
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in timed),
    }
    return metrics, {"commands": commands, "setup_samples": setup, "raw": raw,
                     "probe_s": probes, "host_slowdown": slowdown}


def traced_run(w: dict, wdir: Path, deadline: float, tally: Tally) -> tuple[dict, dict]:
    import tracing
    import flunowcast.cli as cli

    cwd = os.getcwd()
    os.chdir(wdir)
    try:
        with tracing.Tracer() as tracer, contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main([*w["argv"], "--out", "traced"])
            wall = time.perf_counter() - t0
    finally:
        os.chdir(cwd)
    tracer.replay_counts()
    tracer.check_required(w["expect"]["kind"])
    quality = tally.check("traced", code, wdir / "traced")
    rec = untraced(w, wdir, "untraced", deadline, tally)

    values, absent = tracer.metrics()
    for key in ("r2", "mae", "mape"):
        values[f"evaluation.{key}_mean"] = (statistics.fmean(quality[key])
                                            if quality[key] else None)
    for key in ("sensitivity", "ppv", "detected"):
        values[f"changepoint.{key}"] = quality.get(key)
    # without an untraced wall time to compare, the overhead is not known
    values["trace.overhead_frac"] = wall / rec["wall_s"] - 1.0 if "wall_s" in rec else None
    for name, value in values.items():
        if value is None:
            absent.append(name)
            values[name] = 0
    detail = dict(traced_wall_s=wall, untraced=rec, not_applicable=sorted(absent),
                  # iteration counts only private solver code can see
                  solver_iterations={"lasso.sweeps": None, "huber.irls_steps": None,
                                     "svr.smo_updates": None})
    return values, detail


def main(argv=None) -> int:
    # One BLAS thread, here and in every child. With OpenBLAS's default pool
    # (one thread per CPU) the small solves here spin the second CPU, which
    # doubles CPU time for no wall-time gain and makes run-to-run spread
    # several times wider.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    # On SIGTERM, unwind: the child interpreter is killed and reaped, and the
    # work files are removed.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    sys.path.insert(0, str(BENCH))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "flunowcast" / "cli.py").is_file():
        return _fail(f"no flunowcast source under {SRC}; run from a source checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import gen
    if args.workload not in gen.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; one of {sorted(gen.WORKLOADS)}")

    wdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(wdir, ignore_errors=True)
    try:
        w = gen.generate(args.workload, args.seed, wdir)
        tally = Tally(w["expect"])
        metrics, detail = (traced_run(w, wdir, deadline, tally) if args.trace
                           else timed_run(w, wdir, args.seconds, deadline, tally))
    finally:
        shutil.rmtree(wdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    failed = len(tally.failures)
    if not args.trace:
        metrics["ok_frac"] = (tally.attempted - failed) / tally.attempted
    # KeyError here means BENCHMARK.json names a metric this run does not make
    reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    for line in tally.failures:
        print(f"check failed: {line}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "why": w["why"], "machine": machine_facts(), "failures": tally.failures,
              **detail}
    print(json.dumps({"record": record}, sort_keys=True, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
