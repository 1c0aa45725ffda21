"""Seeded inputs for the benchmark workloads.

    python3 bench/gen.py --seed 7 --out inputs/

writes one directory per workload. Each holds the data CSVs under
``data/``, a ``run.json`` for the backtest command, and a ``workload.json``
naming the CLI arguments the benchmark runs there, the output shape it
expects, the seed, and why the workload exists. The program under test only
ever receives those files: the CLI runs with the workload directory as its
working directory and relative paths.

The same seed always writes byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from flunowcast.cli import main as cli_main  # noqa: E402
from flunowcast.rng import derive_seed  # noqa: E402
from flunowcast.series import UGC_RESOURCES, write_series_csv  # noqa: E402
from flunowcast.synth import ProxyConfig, SynthConfig, gen_flu, gen_proxy  # noqa: E402

# The backtest keeps one flu curve for every seed; the seed moves the four
# proxies and the forest's bootstrap stream. Coordinate descent's sweep
# count follows the flu curve, so a per-seed curve would make run time a
# lottery: one LASSO fit of this window takes 28 s on seed 1's curve, 72 s
# on seed 2's, and had not finished after 150 s on seed 3's. On this curve,
# the CLI tests' panel, it takes 15.7k-16.2k sweeps whatever the proxies.
CLEAN_FLU_SEED = 42

WHY = {
    "backtest_clean": "LASSO's slow regime (about 16k coordinate-descent sweeps "
                      "per fit) and the default 100-tree forest, on a clean "
                      "panel over a 2-week window",
    "changepoint_default": "BCP Gibbs sweeps over four 260-week series with CLI "
                           "defaults; touches no model",
}


def _backtest_clean(seed: int, wdir: Path) -> tuple[list, dict]:
    data = wdir / "data"
    data.mkdir(parents=True)
    flu = gen_flu(SynthConfig(years=5, seed=CLEAN_FLU_SEED))
    write_series_csv(flu, data / "flu.csv")
    for i, kind in enumerate(UGC_RESOURCES):
        proxy = gen_proxy(flu, ProxyConfig(name=f"proxy_{i + 1:02d}", resource=kind,
                                           lead_weeks=2, gain=0.05, noise_sd=150.0,
                                           seed=derive_seed(seed, i + 1)))
        write_series_csv(proxy, data / f"{proxy.name}.csv")
    config = {
        "flu": "data/flu.csv",
        "resources": {kind.value: [f"data/proxy_{i + 1:02d}.csv"]
                      for i, kind in enumerate(UGC_RESOURCES)},
        "train_start": "2014-10-06",  # one year after the panel starts
        "windows": [{"start": "2017-10-30", "end": "2017-11-06"}],
        "seed": seed,
    }
    (wdir / "run.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n",
                                   encoding="utf-8")
    argv = ["backtest", "--config", "run.json", "--model", "all"]
    return argv, {"kind": "backtest", "models": ["lasso", "huber", "svr", "forest", "arima"],
                  "n": 2}


def _changepoint_default(seed: int, wdir: Path) -> tuple[list, dict]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["synth", "--years", "5", "--proxies", "8", "--seed", str(seed),
                         "--out", str(wdir / "data")])
    if code != 0:
        raise RuntimeError(f"synth exited with {code}")
    queries = [f"data/proxy_{i:02d}.csv" for i in range(1, 9)]
    argv = ["changepoint", "--flu", "data/flu.csv", "--queries", *queries]
    return argv, {"kind": "changepoint", "positions": 259, "queries": 3}


WORKLOADS = {
    "backtest_clean": _backtest_clean,
    "changepoint_default": _changepoint_default,
}


def generate(name: str, seed: int, wdir: Path) -> dict:
    """Write workload ``name`` for ``seed`` into ``wdir``; return its
    ``workload.json`` record."""
    argv, expect = WORKLOADS[name](seed, wdir)
    record = {"name": name, "seed": seed, "why": WHY[name], "argv": argv,
              "expect": expect}
    (wdir / "workload.json").write_text(json.dumps(record, indent=2, sort_keys=True)
                                        + "\n", encoding="utf-8")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    for name in WORKLOADS:
        generate(name, args.seed, Path(args.out) / name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
