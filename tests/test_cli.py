import hashlib
import json
import os
import platform
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import flunowcast
from flunowcast import changepoint, cli, evaluation, parallel
from flunowcast.cli import main
from flunowcast.errors import DegenerateInput, InsufficientHistory
from flunowcast.evaluation import MODELS, drop_labels
from flunowcast.features import LagSpec
from flunowcast.series import WeekIndex


def run(argv):
    return main([str(a) for a in argv])


def tree_bytes(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


@pytest.fixture()
def synth_dir(tmp_path):
    out = tmp_path / "data"
    code = run(["synth", "--years", "5", "--proxies", "4", "--seed", "42",
                "--out", out])
    assert code == 0
    return out


def write_run_config(path, synth_dir, model="huber", windows=None,
                     model_options=None):
    windows = windows or [{"start": "2017-10-30", "end": "2017-12-04"}]
    config = {
        "flu": str(synth_dir / "flu.csv"),
        "resources": {
            "search": [str(synth_dir / "proxy_01.csv")],
            "social": [str(synth_dir / "proxy_02.csv")],
            "shopping": [str(synth_dir / "proxy_03.csv")],
            "qa": [str(synth_dir / "proxy_04.csv")],
        },
        "train_start": "2014-10-06",
        "windows": windows,
        "model": model,
        "seed": 0,
    }
    if model_options:
        config["model_options"] = model_options
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


class TestSynth:
    def test_file_count(self, synth_dir):
        files = sorted(p.name for p in synth_dir.iterdir())
        assert files == ["flu.csv", "manifest.json", "proxy_01.csv",
                         "proxy_02.csv", "proxy_03.csv", "proxy_04.csv"]

    def test_rerun_byte_identical(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        for out in (a_dir, b_dir):
            assert run(["synth", "--years", "3", "--proxies", "2",
                        "--seed", "9", "--out", out]) == 0
        assert tree_bytes(a_dir) == tree_bytes(b_dir)

    def test_manifest_regenerates_dataset(self, synth_dir):
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        assert manifest["flu"]["seed"] == 42
        assert len(manifest["proxies"]) == 4

    def test_config_file_equals_flags_and_flags_win(self, tmp_path):
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps({"years": 2, "proxies": 1, "seed": 5,
                                   "out": str(tmp_path / "a")}), encoding="utf-8")
        assert run(["synth", "--config", cfg]) == 0
        assert run(["synth", "--years", "2", "--proxies", "1", "--seed", "5",
                    "--out", tmp_path / "b"]) == 0
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")
        # explicit flag overrides the file value
        assert run(["synth", "--config", cfg, "--seed", "6",
                    "--out", tmp_path / "c"]) == 0
        assert tree_bytes(tmp_path / "c") != tree_bytes(tmp_path / "a")

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = run(["synth", "--years", "1", "--proxies", "1", "--seed", "1",
                    "--out", blocker / "sub"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--years", "0"], ["--proxies", "-1"]])
    def test_invalid_generator_option_exits_2(self, tmp_path, capsys, flags):
        out = tmp_path / "data"
        assert run(["synth", *flags, "--seed", "1", "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_integer_config_values_equal_float_flags(self, tmp_path):
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps({"years": 1, "proxies": 1, "baseline": 700,
                                   "peak_scale": 2000, "noise_sd": 50,
                                   "proxy_gain": 1, "proxy_noise": 10}),
                       encoding="utf-8")
        assert run(["synth", "--config", cfg, "--out", tmp_path / "a"]) == 0
        assert run(["synth", "--years", "1", "--proxies", "1", "--baseline", "700",
                    "--peak-scale", "2000", "--noise-sd", "50", "--proxy-gain", "1",
                    "--proxy-noise", "10", "--out", tmp_path / "b"]) == 0
        a, b = tree_bytes(tmp_path / "a"), tree_bytes(tmp_path / "b")
        # the manifests differ only in how they spell a number (700 and 700.0)
        assert json.loads(a.pop("manifest.json")) == json.loads(b.pop("manifest.json"))
        assert a == b


class TestSelect:
    def test_exact_copy_selected(self, synth_dir, tmp_path, capsys):
        noiseless = tmp_path / "mirror"
        assert run(["synth", "--years", "5", "--proxies", "1", "--seed", "42",
                    "--proxy-noise", "0", "--proxy-lead", "0",
                    "--out", noiseless]) == 0
        out = tmp_path / "sel.json"
        code = run(["select", "--target", noiseless / "flu.csv",
                    "--candidates", noiseless / "proxy_01.csv",
                    "--threshold", "0.1", "--out", out])
        assert code == 0
        selection = json.loads(out.read_text())
        assert selection[0]["r"] == pytest.approx(1.0)

    def test_high_threshold_empty_is_success(self, synth_dir, tmp_path):
        out = tmp_path / "sel.json"
        code = run(["select", "--target", synth_dir / "flu.csv",
                    "--candidates", synth_dir / "proxy_01.csv",
                    "--threshold", "0.999999", "--out", out])
        assert code == 0
        assert json.loads(out.read_text()) == []

    def test_misaligned_ranges_exit_3(self, synth_dir, tmp_path, capsys):
        short = tmp_path / "short"
        assert run(["synth", "--years", "2", "--proxies", "1", "--seed", "1",
                    "--out", short]) == 0
        code = run(["select", "--target", synth_dir / "flu.csv",
                    "--candidates", short / "proxy_01.csv",
                    "--threshold", "0.5"])
        assert code == 3

    def test_out_in_missing_directory_exits_2(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "missing" / "sel.json"
        assert run(["select", "--target", synth_dir / "flu.csv",
                    "--candidates", synth_dir / "proxy_01.csv", "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.parent.exists()


# sha256 of backtest.json and ablation.json for the runs in the
# test_report_bytes_are_pinned tests of TestBacktest and TestAblate; only
# the ARIMA block of the backtest moved, in the last digits, when its MA
# filter went from a fused-multiply-add BLAS band solve to Python floats.
# Only the Huber numbers moved when its scale became a certified MAD root
# instead of the end of an alternation: predictions by at most 1.7e-6 and
# R2, MAE and MAPE by at most 1.0e-7 (relative). Only the forest block
# moved when a forest node's target sum became the cumulative sum of its
# parent's split search: where two columns cut a node into the same rows,
# rounding picks between them, so the 5-tree forest's R2 went from -0.656
# to -0.743, MAE from 224.3 to 239.4 and MAPE from 25.73 to 26.90. Only
# the forest block moved again when a node's split tie band became relative
# to its sum of squared targets, so that such columns tie to the lowest
# feature: R2 went to -0.857, MAE to 243.5 and MAPE to 27.52. Only the
# forest block moved when trees grew one level at a time on their bootstrap
# counts, each searching node in level order taking its tree's next feature
# subset: R2 went to 0.530, MAE to 138.1 and MAPE to 14.26.
GOLDEN_BACKTEST = "1ef45cdea342f4488a8ebd8f8aee4efb548128127b69ba0a6e331af601a8b19a"
GOLDEN_ABLATION = "1af189067bcf4a4161975a44168dec2c2f99d380f816b1ec074b0e6388ae40fe"


CPU_COUNTS = (1, 2, 3, 5)  # the pinned window's 3 splits cut into 1, 2, 3 and 3 chunks


def fail_after_first_split(monkeypatch, kind, error):
    """Make ``kind``'s fit raise ``error`` on every split after the first
    of a window that starts 2017-10-30, in whichever process fits it."""
    split = [0]  # the split this process fits last, by the seed it derives
    derive_seed = evaluation.derive_seed

    def recorded(seed, split_no):
        split[0] = split_no
        return derive_seed(seed, split_no)

    fit = getattr(evaluation, MODELS[kind].fit)
    first_cutoff = WeekIndex.parse("2017-10-30") - LagSpec().min_lag

    def failing(*data, **kwargs):
        # ARIMA derives no seed; its history ends min_lag weeks before the test week
        if (data[0].end > first_cutoff) if kind == "arima" else split[0] >= 1:
            raise error
        return fit(*data, **kwargs)

    monkeypatch.setattr(evaluation, "derive_seed", recorded)
    monkeypatch.setattr(evaluation, MODELS[kind].fit, failing)


class TestBacktest:
    def test_report_schema(self, synth_dir, tmp_path):
        config = write_run_config(tmp_path / "run.json", synth_dir)
        out = tmp_path / "results"
        assert run(["backtest", "--config", config, "--out", out]) == 0
        report = json.loads((out / "backtest.json").read_text())
        assert len(report) == 1
        assert {"r2", "mae", "mape", "model", "window"} <= set(report[0])
        plots = list(out.glob("plot_huber_*.csv"))
        assert len(plots) == 1

    def test_model_all_gives_five_blocks(self, synth_dir, tmp_path):
        config = write_run_config(
            tmp_path / "run.json", synth_dir,
            windows=[{"start": "2017-10-30", "end": "2017-11-13"}],
            model_options={"forest": {"n_trees": 5}})
        out = tmp_path / "results"
        assert run(["backtest", "--config", config, "--model", "all",
                    "--out", out]) == 0
        report = json.loads((out / "backtest.json").read_text())
        assert [r["model"] for r in report] == \
            ["lasso", "huber", "svr", "forest", "arima"]

    def test_report_bytes_are_pinned(self, synth_dir, tmp_path, monkeypatch):
        # every model's fits and the report's layout fix every byte, at any
        # CPU count; a change to how the design matrix is built must
        # reproduce them
        config = write_run_config(
            tmp_path / "run.json", synth_dir,
            windows=[{"start": "2017-10-30", "end": "2017-11-13"}],
            model_options={"forest": {"n_trees": 5}})
        outputs = []
        for cpus in CPU_COUNTS:
            monkeypatch.setattr(parallel, "cpus", lambda: cpus)
            out = tmp_path / f"r{cpus}"
            assert run(["backtest", "--config", config, "--model", "all",
                        "--out", out]) == 0
            digest = hashlib.sha256((out / "backtest.json").read_bytes()).hexdigest()
            assert digest == GOLDEN_BACKTEST, cpus
            outputs.append(tree_bytes(out))
        assert all(files == outputs[0] for files in outputs)

    def test_forks_once_per_model_and_never_inside_a_chunk(self, synth_dir, tmp_path,
                                                          monkeypatch, fork_log):
        # each model's 2 splits fork one child on 2 CPUs, and no fit inside a
        # chunk forks, not even a forest of 60 trees
        config = write_run_config(
            tmp_path / "run.json", synth_dir,
            windows=[{"start": "2017-10-30", "end": "2017-11-06"}],
            model_options={"forest": {"n_trees": 60}})
        monkeypatch.setattr(parallel, "cpus", lambda: 2)
        assert run(["backtest", "--config", config, "--model", "all",
                    "--out", tmp_path / "r"]) == 0
        assert fork_log.read_bytes() == b"f" * len(MODELS)

    @pytest.mark.parametrize("kind, error", [
        ("lasso", ValueError("injected lasso failure")),
        ("huber", ValueError("injected huber failure")),
        ("svr", ValueError("injected svr failure")),
        ("forest", ValueError("injected forest failure")),
        ("arima", InsufficientHistory("injected arima failure")),
    ])
    def test_fit_error_on_a_later_split_reads_the_same_at_any_cpu_count(
            self, synth_dir, tmp_path, monkeypatch, kind, error):
        # on 2 CPUs split 0 runs here and splits 1 and 2 in a forked child,
        # which meets the error
        config = write_run_config(
            tmp_path / "run.json", synth_dir,
            windows=[{"start": "2017-10-30", "end": "2017-11-13"}],
            model_options={"forest": {"n_trees": 5}})
        fail_after_first_split(monkeypatch, kind, error)
        outputs = []
        for cpus in (1, 2):
            monkeypatch.setattr(parallel, "cpus", lambda: cpus)
            out = tmp_path / f"r{cpus}"
            assert run(["backtest", "--config", config, "--model", "all",
                        "--out", out]) == 4
            outputs.append(tree_bytes(out))
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0]["failures.json"]) == \
            [{"model": kind, "error": str(error)}]
        report = json.loads(outputs[0]["backtest.json"])
        assert [r["model"] for r in report] == [k for k in MODELS if k != kind]

    def test_rerun_byte_identical(self, synth_dir, tmp_path):
        config = write_run_config(tmp_path / "run.json", synth_dir)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["backtest", "--config", config, "--out", out_a]) == 0
        assert run(["backtest", "--config", config, "--out", out_b]) == 0
        assert tree_bytes(out_a) == tree_bytes(out_b)

    def test_model_failure_writes_partial_results_and_exits_4(self, synth_dir,
                                                              tmp_path, capsys):
        # a 2-week lag horizon leaves ARIMA with a 3-observation history,
        # far below its minimum series length: that model fails, the rest run
        config_path = write_run_config(
            tmp_path / "run.json", synth_dir,
            windows=[{"start": "2017-10-30", "end": "2017-11-06"}],
            model_options={"forest": {"n_trees": 3}})
        cfg = json.loads(config_path.read_text())
        cfg["lag"] = {"min": 2, "max": 2}
        cfg["train_start"] = "2017-10-09"
        config_path.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "results"
        code = run(["backtest", "--config", config_path, "--model", "all",
                    "--out", out])
        assert code == 4
        failures = json.loads((out / "failures.json").read_text())
        assert [f["model"] for f in failures] == ["arima"]
        report = json.loads((out / "backtest.json").read_text())
        assert [r["model"] for r in report] == ["lasso", "huber", "svr", "forest"]

    def test_arima_window_past_panel_exits_4(self, synth_dir, tmp_path):
        # the panel ends 2018-09-17, so the window's last week has no actual
        config = write_run_config(
            tmp_path / "run.json", synth_dir, model="arima",
            windows=[{"start": "2018-09-10", "end": "2018-09-24"}])
        out = tmp_path / "results"
        assert run(["backtest", "--config", config, "--out", out]) == 4
        failures = json.loads((out / "failures.json").read_text())
        assert [f["model"] for f in failures] == ["arima"]
        assert "outside the panel" in failures[0]["error"]

    def test_arima_week_past_panel_in_a_child_reads_the_same(self, synth_dir, tmp_path,
                                                            monkeypatch):
        # of the window's 3 weeks only the last lies past the panel; on 2
        # CPUs a forked child forecasts it
        config = write_run_config(
            tmp_path / "run.json", synth_dir, model="arima",
            windows=[{"start": "2018-09-10", "end": "2018-09-24"}])
        outputs = []
        for cpus in (1, 2):
            monkeypatch.setattr(parallel, "cpus", lambda: cpus)
            out = tmp_path / f"r{cpus}"
            assert run(["backtest", "--config", config, "--out", out]) == 4
            outputs.append(tree_bytes(out))
        assert outputs[0] == outputs[1]
        failures = json.loads(outputs[0]["failures.json"])
        assert failures == [{"model": "arima",
                             "error": "target week 2018-09-24 outside the panel"}]

    def test_mistyped_model_option_exits_4(self, synth_dir, tmp_path):
        config = write_run_config(
            tmp_path / "run.json", synth_dir, model="lasso",
            windows=[{"start": "2017-10-30", "end": "2017-11-06"}],
            model_options={"lasso": {"lam": 1e9}})
        out = tmp_path / "results"
        assert run(["backtest", "--config", config, "--out", out]) == 4
        failures = json.loads((out / "failures.json").read_text())
        assert [f["model"] for f in failures] == ["lasso"]
        assert "'lam'" in failures[0]["error"] and "'lambda'" in failures[0]["error"]

    def test_wrongly_typed_model_options_keep_other_models_and_exit_4(
            self, synth_dir, tmp_path):
        config = write_run_config(
            tmp_path / "run.json", synth_dir,
            windows=[{"start": "2017-10-30", "end": "2017-11-06"}],
            model_options={"lasso": {"lambda": "1"}, "forest": {"n_trees": "5"}})
        out = tmp_path / "results"
        assert run(["backtest", "--config", config, "--model", "all",
                    "--out", out]) == 4
        failures = json.loads((out / "failures.json").read_text())
        assert [f["model"] for f in failures] == ["lasso", "forest"]
        assert "lasso option 'lambda'" in failures[0]["error"]
        assert "forest option 'n_trees'" in failures[1]["error"]
        report = json.loads((out / "backtest.json").read_text())
        assert [r["model"] for r in report] == ["huber", "svr", "arima"]

    @pytest.mark.parametrize("options, kind, key", [
        ({"lasso": {"lambda": float("nan")}}, "lasso", "lambda"),
        ({"svr": {"c": float("inf")}}, "svr", "'c'"),
        ({"huber": {"delta": 0}}, "huber", "delta"),
    ])
    def test_option_out_of_range_fails_its_model_at_once(self, synth_dir, tmp_path,
                                                         options, kind, key):
        config = write_run_config(
            tmp_path / "run.json", synth_dir,
            windows=[{"start": "2017-10-30", "end": "2017-11-06"}],
            model_options={**options, "forest": {"n_trees": 5}})
        out = tmp_path / "results"
        start = time.perf_counter()
        assert run(["backtest", "--config", config, "--model", "all",
                    "--out", out]) == 4
        assert time.perf_counter() - start < 10.0
        failures = json.loads((out / "failures.json").read_text())
        assert [f["model"] for f in failures] == [kind]
        assert key in failures[0]["error"]
        report = json.loads((out / "backtest.json").read_text())
        assert [r["model"] for r in report] == [k for k in MODELS if k != kind]

    def test_bad_forest_option_keeps_other_models_and_exits_4(self, synth_dir,
                                                              tmp_path):
        config = write_run_config(
            tmp_path / "run.json", synth_dir,
            windows=[{"start": "2017-10-30", "end": "2017-11-06"}],
            model_options={"forest": {"n_trees": 0}})
        out = tmp_path / "results"
        assert run(["backtest", "--config", config, "--model", "all",
                    "--out", out]) == 4
        failures = json.loads((out / "failures.json").read_text())
        assert [f["model"] for f in failures] == ["forest"]
        assert "n_trees" in failures[0]["error"]
        report = json.loads((out / "backtest.json").read_text())
        assert [r["model"] for r in report] == ["lasso", "huber", "svr", "arima"]

    def test_inputs_never_mutated(self, synth_dir, tmp_path):
        before = {p.name: p.read_bytes() for p in sorted(synth_dir.iterdir())}
        config = write_run_config(
            tmp_path / "run.json", synth_dir,
            windows=[{"start": "2017-10-30", "end": "2017-11-06"}])
        assert run(["backtest", "--config", config, "--out", tmp_path / "r"]) == 0
        assert run(["select", "--target", synth_dir / "flu.csv",
                    "--candidates", synth_dir / "proxy_01.csv",
                    "--threshold", "0.5", "--out", tmp_path / "s.json"]) == 0
        after = {p.name: p.read_bytes() for p in sorted(synth_dir.iterdir())}
        assert before == after

    def test_arima_is_past_only(self, synth_dir, tmp_path):
        """Swapping the proxy files cannot change an ARIMA backtest."""
        config_a = write_run_config(tmp_path / "a.json", synth_dir, model="arima")
        cfg = json.loads(config_a.read_text())
        cfg["resources"] = {"search": [str(synth_dir / "proxy_02.csv")]}
        config_b = tmp_path / "b.json"
        config_b.write_text(json.dumps(cfg), encoding="utf-8")
        out_a, out_b = tmp_path / "ra", tmp_path / "rb"
        assert run(["backtest", "--config", config_a, "--out", out_a]) == 0
        assert run(["backtest", "--config", config_b, "--out", out_b]) == 0
        assert (out_a / "backtest.json").read_bytes() == \
            (out_b / "backtest.json").read_bytes()


class TestAblate:
    def test_six_rows(self, synth_dir, tmp_path):
        config = write_run_config(
            tmp_path / "run.json", synth_dir,
            windows=[{"start": "2017-10-30", "end": "2017-11-13"}])
        out = tmp_path / "results"
        assert run(["ablate", "--config", config, "--out", out]) == 0
        rows = json.loads((out / "ablation.json").read_text())
        assert [r["dropped"] for r in rows] == \
            ["none", "search", "social", "shopping", "qa", "past"]

    def test_report_bytes_are_pinned(self, synth_dir, tmp_path, monkeypatch):
        config = write_run_config(
            tmp_path / "run.json", synth_dir,
            windows=[{"start": "2017-10-30", "end": "2017-11-13"}])
        for cpus in CPU_COUNTS:
            monkeypatch.setattr(parallel, "cpus", lambda: cpus)
            out = tmp_path / f"r{cpus}"
            assert run(["ablate", "--config", config, "--drop", "all", "--out", out]) == 0
            digest = hashlib.sha256((out / "ablation.json").read_bytes()).hexdigest()
            assert digest == GOLDEN_ABLATION, cpus

    def test_fit_error_on_a_later_split_reads_the_same_at_any_cpu_count(
            self, synth_dir, tmp_path, monkeypatch):
        config = write_run_config(
            tmp_path / "run.json", synth_dir,
            windows=[{"start": "2017-10-30", "end": "2017-11-13"}])
        fail_after_first_split(monkeypatch, "huber", ValueError("injected huber failure"))
        outputs = []
        for cpus in (1, 2):
            monkeypatch.setattr(parallel, "cpus", lambda: cpus)
            out = tmp_path / f"r{cpus}"
            assert run(["ablate", "--config", config, "--drop", "all", "--out", out]) == 4
            outputs.append(tree_bytes(out))
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0]["ablation.json"]) == []
        assert json.loads(outputs[0]["failures.json"]) == \
            [{"dropped": label, "error": "injected huber failure"} for label in drop_labels()]

    def test_none_row_equals_plain_backtest(self, synth_dir, tmp_path):
        config = write_run_config(
            tmp_path / "run.json", synth_dir,
            windows=[{"start": "2017-10-30", "end": "2017-11-13"}])
        back_out = tmp_path / "back"
        abl_out = tmp_path / "abl"
        assert run(["backtest", "--config", config, "--out", back_out]) == 0
        assert run(["ablate", "--config", config, "--drop", "none",
                    "--out", abl_out]) == 0
        back = json.loads((back_out / "backtest.json").read_text())
        abl = json.loads((abl_out / "ablation.json").read_text())
        assert abl[0]["windows"] == back

    def test_model_failure_writes_partial_results_and_exits_4(self, synth_dir,
                                                              tmp_path):
        # the panel ends 2018-09-17, so no row of the window can be built
        config = write_run_config(
            tmp_path / "run.json", synth_dir,
            windows=[{"start": "2018-09-03", "end": "2018-10-01"}])
        out = tmp_path / "results"
        assert run(["ablate", "--config", config, "--drop", "all",
                    "--out", out]) == 4
        assert json.loads((out / "ablation.json").read_text()) == []
        failures = json.loads((out / "failures.json").read_text())
        assert [f["dropped"] for f in failures] == \
            ["none", "search", "social", "shopping", "qa", "past"]

    def test_arima_runs_once_for_all_six_rows(self, synth_dir, tmp_path, monkeypatch):
        config = write_run_config(
            tmp_path / "run.json", synth_dir, model="arima",
            windows=[{"start": "2017-10-30", "end": "2017-11-06"}])
        back_out, abl_out = tmp_path / "back", tmp_path / "abl"
        assert run(["backtest", "--config", config, "--out", back_out]) == 0
        # one CPU, so that every fit runs in this process, where it is counted
        monkeypatch.setattr(parallel, "cpus", lambda: 1)
        fits = []
        fit_arima = evaluation.fit_arima
        monkeypatch.setattr(evaluation, "fit_arima",
                            lambda *args, **kw: fits.append(1) or fit_arima(*args, **kw))
        assert run(["ablate", "--config", config, "--drop", "all", "--out", abl_out]) == 0
        assert len(fits) == 2  # one per week of the window
        back = json.loads((back_out / "backtest.json").read_text())
        rows = json.loads((abl_out / "ablation.json").read_text())
        assert [r["dropped"] for r in rows] == drop_labels()
        assert all(r["windows"] == back for r in rows)

    def test_failing_arima_fails_each_row(self, synth_dir, tmp_path):
        # the panel ends 2018-09-17, so the window's last week has no actual
        config = write_run_config(
            tmp_path / "run.json", synth_dir, model="arima",
            windows=[{"start": "2018-09-10", "end": "2018-09-24"}])
        out = tmp_path / "results"
        assert run(["ablate", "--config", config, "--drop", "all", "--out", out]) == 4
        assert json.loads((out / "ablation.json").read_text()) == []
        failures = json.loads((out / "failures.json").read_text())
        assert [f["dropped"] for f in failures] == drop_labels()
        assert len({f["error"] for f in failures}) == 1

    def test_wrongly_typed_model_option_fails_each_row_and_exits_4(
            self, synth_dir, tmp_path):
        config = write_run_config(
            tmp_path / "run.json", synth_dir, model="lasso",
            windows=[{"start": "2017-10-30", "end": "2017-11-06"}],
            model_options={"lasso": {"lambda": "1"}})
        out = tmp_path / "results"
        assert run(["ablate", "--config", config, "--drop", "all",
                    "--out", out]) == 4
        assert json.loads((out / "ablation.json").read_text()) == []
        failures = json.loads((out / "failures.json").read_text())
        assert [f["dropped"] for f in failures] == \
            ["none", "search", "social", "shopping", "qa", "past"]
        assert all("lasso option 'lambda'" in f["error"] for f in failures)

    def test_unknown_model_exits_2_and_writes_nothing(self, synth_dir, tmp_path, capsys):
        # a config model that the command's own --model would refuse
        for command, model in (("backtest", "prophet"), ("ablate", "prophet"),
                               ("ablate", "all")):
            config = write_run_config(tmp_path / "run.json", synth_dir, model=model)
            out = tmp_path / "results"
            assert run([command, "--config", config, "--out", out]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ")
            assert "'model' must be one of" in err[0] and repr(model) in err[0]
            assert not out.exists()

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text("{", encoding="utf-8")
        listed = tmp_path / "list.json"
        listed.write_text("[]", encoding="utf-8")
        for config in (tmp_path / "missing.json", broken, listed):
            for command in ("backtest", "ablate", "synth", "select"):
                assert run([command, "--config", config, "--out", tmp_path / "r"]) == 2
                assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "r").exists()

    def test_unknown_drop_exits_5(self, synth_dir, tmp_path, capsys):
        config = write_run_config(tmp_path / "run.json", synth_dir)
        code = run(["ablate", "--config", config, "--drop", "weather",
                    "--out", tmp_path / "x"])
        assert code == 5
        assert "usage" in capsys.readouterr().err


# sha256 of changepoint.json for the run in test_report_bytes_are_pinned; the
# correlations are numpy reductions, so the digest holds under any BLAS kernel
GOLDEN_CHANGEPOINT = "8631cf4b9192618af3e997849734a01edc82434d4690a52dda149bc38dd3c29b"


class TestChangepoint:
    def test_defaults_match_protocol(self):
        from flunowcast.cli import build_parser

        args = build_parser().parse_args(
            ["changepoint", "--flu", "f.csv", "--queries", "q.csv"])
        assert args.iterations == 500
        assert args.p0 == 0.1 and args.w0 == 0.1
        assert args.threshold == 0.5 and args.window == 1 and args.top_k == 3

    def test_threshold_one_detects_nothing(self, synth_dir, tmp_path):
        out = tmp_path / "cp"
        code = run(["changepoint", "--flu", synth_dir / "flu.csv",
                    "--queries", synth_dir / "proxy_01.csv",
                    "--iterations", "60", "--burn-in", "10",
                    "--threshold", "1.0", "--seed", "3", "--out", out])
        assert code == 0
        payload = json.loads((out / "changepoint.json").read_text())
        assert payload["detected"] == []
        assert all(q["detected"] == [] for q in payload["queries"])

    def test_rerun_byte_identical(self, synth_dir, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run(["changepoint", "--flu", synth_dir / "flu.csv",
                        "--queries", synth_dir / "proxy_01.csv",
                        synth_dir / "proxy_02.csv",
                        "--iterations", "80", "--burn-in", "10",
                        "--seed", "5", "--out", out]) == 0
        assert tree_bytes(out_a) == tree_bytes(out_b)

    def test_report_bytes_are_pinned(self, synth_dir, tmp_path):
        # the sampler's arithmetic and draw order fix every byte of the
        # report; a faster sweep must reproduce them exactly
        out = tmp_path / "cp"
        queries = [synth_dir / f"proxy_{i:02d}.csv" for i in range(1, 5)]
        assert run(["changepoint", "--flu", synth_dir / "flu.csv", "--queries", *queries,
                    "--iterations", "100", "--burn-in", "10", "--seed", "7",
                    "--out", out]) == 0
        digest = hashlib.sha256((out / "changepoint.json").read_bytes()).hexdigest()
        assert digest == GOLDEN_CHANGEPOINT

    def test_report_bytes_do_not_depend_on_cpu_count(self, synth_dir, tmp_path, monkeypatch,
                                                      fork_log):
        # the flu series and its three queries, cut into 1, 2, 3 and 4 chunks,
        # each chunk but the first sampled in one forked child
        queries = [synth_dir / f"proxy_{i:02d}.csv" for i in range(1, 5)]
        forks = []
        for cpus in (1, 2, 3, 5):
            monkeypatch.setattr(parallel, "cpus", lambda: cpus)
            out = tmp_path / f"cp{cpus}"
            assert run(["changepoint", "--flu", synth_dir / "flu.csv", "--queries", *queries,
                        "--iterations", "100", "--burn-in", "10", "--seed", "7",
                        "--out", out]) == 0
            digest = hashlib.sha256((out / "changepoint.json").read_bytes()).hexdigest()
            assert digest == GOLDEN_CHANGEPOINT, cpus
            forks.append(len(fork_log.read_bytes()))
        assert forks == [0, 1, 3, 6]

    def test_top_k_zero_samples_the_flu_series_without_forking(self, synth_dir, tmp_path,
                                                               monkeypatch):
        def no_fork():
            raise AssertionError("one series forked a child")

        monkeypatch.setattr(os, "fork", no_fork)
        reports = set()
        for cpus in (1, 2, 3, 5):
            monkeypatch.setattr(parallel, "cpus", lambda: cpus)
            out = tmp_path / f"cp{cpus}"
            assert run(["changepoint", "--flu", synth_dir / "flu.csv",
                        "--queries", synth_dir / "proxy_01.csv", "--top-k", "0",
                        "--iterations", "60", "--burn-in", "10", "--out", out]) == 0
            reports.add((out / "changepoint.json").read_bytes())
        assert len(reports) == 1

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_sampler_error_in_any_chunk_exits_6(self, synth_dir, tmp_path, monkeypatch,
                                                capfd, cpus):
        # with --top-k 1 the query is the second of two series: on 2 CPUs a
        # forked child samples it, and its error must still exit 6
        parent, sample = os.getpid(), changepoint.bcp_posterior

        def failing(series, config):
            if series.name != "flu":
                where = "parent" if os.getpid() == parent else "child"
                raise DegenerateInput(f"injected for a query in the {where}")
            return sample(series, config)

        monkeypatch.setattr(changepoint, "bcp_posterior", failing)
        monkeypatch.setattr(parallel, "cpus", lambda: cpus)
        out = tmp_path / "cp"
        assert run(["changepoint", "--flu", synth_dir / "flu.csv",
                    "--queries", synth_dir / "proxy_01.csv", "--top-k", "1",
                    "--iterations", "20", "--burn-in", "2", "--out", out]) == 6
        where = "parent" if cpus == 1 else "child"
        assert f"error: injected for a query in the {where}\n" in capfd.readouterr().err
        assert not out.exists()

    def test_schema(self, synth_dir, tmp_path):
        out = tmp_path / "cp"
        assert run(["changepoint", "--flu", synth_dir / "flu.csv",
                    "--queries", synth_dir / "proxy_01.csv",
                    "--iterations", "60", "--burn-in", "10",
                    "--seed", "1", "--out", out]) == 0
        payload = json.loads((out / "changepoint.json").read_text())
        assert set(payload) == {"probabilities", "detected", "queries", "matches"}
        assert {"tp", "fp", "fn", "sensitivity", "ppv"} == set(payload["matches"])

    def test_non_finite_query_value_exits_2(self, synth_dir, tmp_path, capsys):
        lines = (synth_dir / "proxy_01.csv").read_text().splitlines()
        lines[10] = lines[10].split(",")[0] + ",nan"
        query = tmp_path / "q.csv"
        query.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run(["changepoint", "--flu", synth_dir / "flu.csv",
                    "--queries", query, "--iterations", "20", "--burn-in", "2",
                    "--out", tmp_path / "cp"]) == 2
        assert "q.csv:11: value must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--iterations", "0"],
        ["--iterations", "60", "--burn-in", "60"],
        ["--iterations", "60", "--burn-in", "-1"],
        ["--p0", "0"],
        ["--p0", "1.5"],
        ["--w0", "0"],
        ["--w0", "-0.1"],
        ["--top-k", "-1"],
        ["--window", "-1"],
        ["--threshold", "-1"],
        ["--threshold", "2"],
        ["--threshold", "nan"],
    ])
    def test_bad_flag_exits_2(self, synth_dir, tmp_path, capsys, flags):
        out = tmp_path / "cp"
        assert run(["changepoint", "--flu", synth_dir / "flu.csv",
                    "--queries", synth_dir / "proxy_01.csv",
                    "--iterations", "20", "--burn-in", "2", *flags,
                    "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_large_magnitude_flu_is_scored(self, synth_dir, tmp_path):
        # every value finite, but the raw sum of squares overflows
        lines = (synth_dir / "flu.csv").read_text().splitlines()
        flu = tmp_path / "flu.csv"
        flu.write_text("\n".join([lines[0]] + [
            f"{date},{float(value) * 1e200!r}"
            for date, value in (line.split(",") for line in lines[1:])]) + "\n",
            encoding="utf-8")
        reports = {}
        for name, path in (("plain", synth_dir / "flu.csv"), ("large", flu)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no overflow on the way
                assert run(["changepoint", "--flu", path,
                            "--queries", synth_dir / "proxy_01.csv",
                            synth_dir / "proxy_02.csv", "--iterations", "40",
                            "--burn-in", "5", "--out", tmp_path / name]) == 0
            reports[name] = json.loads((tmp_path / name / "changepoint.json").read_text())
        assert reports["large"]["detected"] == reports["plain"]["detected"]
        assert [q["term"] for q in reports["large"]["queries"]] == \
            [q["term"] for q in reports["plain"]["queries"]]

    def test_degenerate_sampler_input_exits_6(self, synth_dir, tmp_path, monkeypatch,
                                              capsys):
        from flunowcast.errors import DegenerateInput, InsufficientHistory

        def degenerate(*args, **kwargs):
            raise DegenerateInput("both block sums vanish")

        monkeypatch.setattr(cli, "score_resource", degenerate)
        assert run(["changepoint", "--flu", synth_dir / "flu.csv",
                    "--queries", synth_dir / "proxy_01.csv", "--iterations", "20",
                    "--burn-in", "2", "--out", tmp_path / "cp"]) == 6
        assert "both block sums vanish" in capsys.readouterr().err

    def test_degenerate_flu_exits_6(self, tmp_path):
        flu = tmp_path / "flat.csv"
        rows = ["date,value"] + [f"{d},5.0" for d in
                                 ["2015-01-05", "2015-01-12", "2015-01-19",
                                  "2015-01-26", "2015-02-02"]]
        flu.write_text("\n".join(rows) + "\n", encoding="utf-8")
        q = tmp_path / "q.csv"
        q.write_text("date,value\n2015-01-05,1\n2015-01-12,2\n2015-01-19,5\n"
                     "2015-01-26,3\n2015-02-02,4\n", encoding="utf-8")
        assert run(["changepoint", "--flu", flu, "--queries", q,
                    "--iterations", "20", "--burn-in", "2"]) == 6

    def test_flat_flu_with_nonzero_std_exits_6(self, synth_dir, tmp_path, capsys):
        # every value 1234.567: its std is 2.3e-13, not 0
        lines = (synth_dir / "flu.csv").read_text().splitlines()
        flu = tmp_path / "flat.csv"
        flu.write_text("\n".join([lines[0]] + [f"{line.split(',')[0]},1234.567"
                                               for line in lines[1:]]) + "\n",
                       encoding="utf-8")
        assert run(["changepoint", "--flu", flu, "--queries", synth_dir / "proxy_01.csv",
                    "--iterations", "20", "--burn-in", "2",
                    "--out", tmp_path / "cp"]) == 6
        assert "zero variance" in capsys.readouterr().err


class TestConfigTypes:
    @pytest.mark.parametrize("command, entry", [
        ("synth", {"years": "2"}),
        ("synth", {"proxy_lead": "2"}),
        ("synth", {"noise_sd": float("nan")}),
        ("backtest", {"seed": "1"}),
        ("backtest", {"seed": 1.5}),
        ("backtest", {"signal_lag": "2"}),
        ("backtest", {"signal_lag": 2.5}),
        ("backtest", {"lag": {"min": "2"}}),
        ("backtest", {"lag": {"min": 2.0}}),
        ("backtest", {"thresholds": {"search": "0.7"}}),
        ("backtest", {"thresholds": {"social": float("inf")}}),
        ("backtest", {"train_start": 5}),
        ("backtest", {"windows": "x"}),
        ("backtest", {"resources": {"search": "data/proxy_01.csv"}}),
        ("ablate", {"seed": "1"}),
        ("select", {"candidates": "data/proxy_01.csv"}),
    ])
    def test_wrongly_typed_value_exits_2_and_writes_nothing(self, synth_dir, tmp_path,
                                                            capsys, command, entry):
        config = tmp_path / "config.json"
        if command in ("backtest", "ablate"):
            base = json.loads(write_run_config(config, synth_dir).read_text())
        else:
            base = {"target": str(synth_dir / "flu.csv")} if command == "select" else {}
        config.write_text(json.dumps({**base, **entry}), encoding="utf-8")
        out = tmp_path / "out"
        assert run([command, "--config", config, "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert repr(next(iter(entry))) in err[0]
        assert not out.exists()


    @pytest.mark.parametrize("command", ["backtest", "ablate"])
    @pytest.mark.parametrize("key, typo", [("resources", "serach"), ("thresholds", "socail")])
    def test_unknown_resource_tag_exits_2_and_writes_nothing(self, synth_dir, tmp_path,
                                                             capsys, command, key, typo):
        # a misspelled tag used to drop that resource's queries without a word
        config = tmp_path / "config.json"
        base = json.loads(write_run_config(config, synth_dir).read_text())
        if key == "resources":
            base["resources"][typo] = base["resources"].pop("search")
        else:
            base["thresholds"] = {typo: 0.9}
        config.write_text(json.dumps(base), encoding="utf-8")
        out = tmp_path / "out"
        assert run([command, "--config", config, "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert repr(typo) in err[0] and repr(key) in err[0]
        assert "accepted: ['search', 'social', 'shopping', 'qa']" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["backtest", "ablate"])
    @pytest.mark.parametrize("entry, typo, accepted", [
        ({"lag": {"minimum": 4}}, "minimum", "accepted: ['min', 'max']"),
        ({"model_options": {"frest": {"n_trees": 5}}}, "frest",
         "accepted: ['lasso', 'huber', 'svr', 'forest', 'arima']"),
    ])
    def test_unknown_lag_or_model_options_key_exits_2_and_writes_nothing(
            self, synth_dir, tmp_path, capsys, monkeypatch, command, entry, typo, accepted):
        # both typos used to run with the defaults and exit 0
        config = tmp_path / "config.json"
        base = json.loads(write_run_config(config, synth_dir).read_text())
        config.write_text(json.dumps({**base, **entry}), encoding="utf-8")

        def unread(*_):
            raise AssertionError("the run read a series before checking its config")

        monkeypatch.setattr(cli, "read_series_csv", unread)
        out = tmp_path / "out"
        assert run([command, "--config", config, "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert repr(typo) in err[0] and repr(next(iter(entry))) in err[0]
        assert accepted in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["backtest", "ablate"])
    def test_empty_window_list_exits_2_and_writes_nothing(self, synth_dir, tmp_path,
                                                          capsys, command):
        # an empty list used to end in an IndexError traceback and exit 1
        config = tmp_path / "config.json"
        base = json.loads(write_run_config(config, synth_dir).read_text())
        config.write_text(json.dumps({**base, "windows": []}), encoding="utf-8")
        out = tmp_path / "out"
        assert run([command, "--config", config, "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: the plan needs at least one eval window"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["backtest", "ablate"])
    @pytest.mark.parametrize("key, message", [
        ("flu", "the run config has no 'flu'"),
        ("train_start", "the run config has no 'train_start'"),
        ("windows", "the run config has no 'windows'"),
        ("start", "window {'end': '2017-12-04'} in the run config has no 'start'"),
        ("end", "window {'start': '2017-10-30'} in the run config has no 'end'"),
    ])
    def test_missing_run_config_key_is_named(self, synth_dir, tmp_path, capsys,
                                             command, key, message):
        # each used to print only the key, as "error: 'end'"
        config = tmp_path / "config.json"
        base = json.loads(write_run_config(config, synth_dir).read_text())
        del (base["windows"][0] if key in ("start", "end") else base)[key]
        config.write_text(json.dumps(base), encoding="utf-8")
        out = tmp_path / "out"
        assert run([command, "--config", config, "--out", out]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()


def test_printed_report_is_the_out_file(synth_dir, tmp_path, capsysbinary):
    flu = synth_dir / "flu.csv"
    queries = [synth_dir / "proxy_01.csv", synth_dir / "proxy_02.csv"]
    for argv, out, written in (
            (["select", "--target", flu, "--candidates", *queries, "--threshold", "0.01"],
             tmp_path / "select.json", tmp_path / "select.json"),
            (["changepoint", "--flu", flu, "--queries", *queries, "--iterations", "20",
              "--burn-in", "2"], tmp_path / "cp", tmp_path / "cp" / "changepoint.json")):
        assert run(argv) == 0
        printed = capsysbinary.readouterr().out
        assert run([*argv, "--out", out]) == 0
        assert printed == written.read_bytes(), argv[0]


def modules_after(code: str, *packages: str) -> list[str]:
    """The modules of ``packages`` (and their submodules) loaded once
    ``code`` has run in a fresh interpreter that imports this source tree's
    package."""
    src = str(Path(flunowcast.__file__).resolve().parent.parent)
    code = (f"import json, sys; sys.path.insert(0, {src!r}); {code}; "
            "print(json.dumps(sorted(m for m in sys.modules "
            f"if any(m == p or m.startswith(p + '.') for p in {packages!r}))))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_import_leaves_scipy_unloaded():
    # scipy.linalg and scipy.special were most of every command's start-up
    # time and memory
    assert modules_after("import flunowcast.cli", "scipy") == []


def test_no_command_loads_scipy(synth_dir, tmp_path):
    config = write_run_config(
        tmp_path / "run.json", synth_dir,
        windows=[{"start": "2017-10-30", "end": "2017-11-06"}],
        model_options={"forest": {"n_trees": 2}})
    commands = [
        ["synth", "--years", "5", "--proxies", "2", "--seed", "3", "--out", tmp_path / "s"],
        ["select", "--target", synth_dir / "flu.csv", "--candidates",
         synth_dir / "proxy_01.csv", synth_dir / "proxy_02.csv", "--out", tmp_path / "sel.json"],
        ["backtest", "--config", config, "--model", "all", "--out", tmp_path / "bt"],
        ["ablate", "--config", config, "--drop", "all", "--out", tmp_path / "ab"],
        ["changepoint", "--flu", synth_dir / "flu.csv", "--queries",
         synth_dir / "proxy_01.csv", "--iterations", "20", "--burn-in", "5",
         "--out", tmp_path / "cp"],
    ]

    def loaded_by(argv, *packages):
        return modules_after("from flunowcast.cli import main; "
                             f"assert main({[str(a) for a in argv]!r}) == 0", *packages)

    # nor numpy.ma, which np.median imports on its first call
    for argv in commands:
        assert loaded_by(argv, "scipy", "numpy.ma") == [], argv[0]


def test_changepoint_bytes_are_pinned_without_scipy(synth_dir, tmp_path):
    # the change-point sampler's special functions are plain Python: with
    # scipy unimportable, the pinned report comes out byte for byte
    out = tmp_path / "cp"
    queries = [synth_dir / f"proxy_{i:02d}.csv" for i in range(1, 5)]
    argv = ["changepoint", "--flu", synth_dir / "flu.csv", "--queries", *queries,
            "--iterations", "100", "--burn-in", "10", "--seed", "7", "--out", out]
    # the one scipy entry left is the None that blocks its import
    assert modules_after("sys.modules['scipy'] = None; from flunowcast.cli import main; "
                         f"assert main({[str(a) for a in argv]!r}) == 0", "scipy") == ["scipy"]
    digest = hashlib.sha256((out / "changepoint.json").read_bytes()).hexdigest()
    assert digest == GOLDEN_CHANGEPOINT


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the OpenBLAS core types named here are x86-64 kernels")
def test_changepoint_and_select_bytes_do_not_depend_on_blas_kernels(synth_dir, tmp_path):
    # Prescott (SSE3) runs on any x86-64 host; the variable is set only in
    # the children's environment
    src = str(Path(flunowcast.__file__).resolve().parent.parent)
    flu = synth_dir / "flu.csv"
    queries = [synth_dir / f"proxy_{i:02d}.csv" for i in range(1, 5)]

    def outputs(coretype):
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("OPENBLAS_CORETYPE", None)
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        out = tmp_path / (coretype or "default")
        for argv in (["changepoint", "--flu", flu, "--queries", *queries, "--iterations", "40",
                      "--burn-in", "5", "--seed", "7", "--out", out],
                     ["select", "--target", flu, "--candidates", *queries,
                      "--threshold", "0.01", "--out", out / "select.json"]):
            subprocess.run([sys.executable, "-m", "flunowcast.cli", *map(str, argv)],
                           env=env, capture_output=True, check=True)
        return tree_bytes(out)

    default = outputs(None)
    assert sorted(default) == ["changepoint.json", "select.json"]
    assert outputs("Prescott") == default
