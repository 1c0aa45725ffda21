"""Acceptance gate: one test per criterion, each printed as a PASS/FAIL
line with its runtime. Tolerances are pinned here and nowhere else."""

import functools
import json
import time

import numpy as np
import pytest

from flunowcast.changepoint import BcpConfig, bcp_posterior, detect, match
from flunowcast.cli import main as cli_main
from flunowcast.evaluation import ModelSpec, backtest, mae, mape, r2
from flunowcast.features import SplitPlan
from flunowcast.models import (
    dual_objective,
    fit_arima,
    fit_forest,
    fit_huber,
    fit_lasso,
    forecast_arima,
    huber_loss,
    huber_loss_gradient,
    lasso_stationarity_violation,
    primal_objective,
    fit_svr_linear,
)
from flunowcast.rng import Xorshift64Star, derive_seed
from flunowcast.series import ResourceKind, SignalPanel, WeeklySeries
from flunowcast.synth import ProxyConfig, SynthConfig, gen_flu, gen_proxy

from oracles import central_difference, lasso_grid_search_1d, ols_fit, yule_walker_ar

UGC = [ResourceKind.SEARCH_QUERY, ResourceKind.SOCIAL_MEDIA,
       ResourceKind.SHOPPING, ResourceKind.QA_SERVICE]


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number:2d} FAIL "
                      f"({time.perf_counter() - start:.1f}s): {title}")
                raise
            print(f"[acceptance] criterion {number:2d} PASS "
                  f"({time.perf_counter() - start:.1f}s): {title}")
        return wrapper
    return decorate


@criterion(1, "metric exactness on hand-derived examples")
def test_criterion_01_metric_exactness():
    start = time.perf_counter()
    assert r2([1.0, 2.0, 2.0], [1.0, 2.0, 3.0]) == pytest.approx(0.5, abs=1e-12)
    assert mae([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert mape([110.0], [100.0])[0] == pytest.approx(10.0, abs=1e-12)
    assert r2([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0
    assert r2([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]) == 0.0
    assert time.perf_counter() - start < 1.0


@criterion(2, "lasso subgradient stationarity + grid-search oracle")
def test_criterion_02_lasso_oracle():
    start = time.perf_counter()
    rs = np.random.RandomState(20)
    for trial in range(20):
        n = rs.randint(5, 31)
        p = rs.randint(1, 9)
        X = rs.normal(size=(n, p))
        y = rs.normal(size=n)
        lam = float(rs.uniform(0.05, 4.0))
        model = fit_lasso(X, y, lam=lam)
        viol = lasso_stationarity_violation(X, y, model.beta, model.intercept, lam)
        assert viol <= 1e-4, f"trial {trial}: stationarity violation {viol}"
    X = np.array([[1.0], [-1.0]])
    y = np.array([3.0, -3.0])
    for lam in [0.5, 2.0, 4.0, 7.0]:
        model = fit_lasso(X, y, lam=lam, include_intercept=False)
        assert model.beta[0] == pytest.approx(3.0 - lam / 4.0, abs=1e-6)
        grid = lasso_grid_search_1d(X, y, lam, lo=-5.0, hi=5.0)
        assert abs(model.beta[0] - grid) <= 1e-4
    assert time.perf_counter() - start < 10.0


@criterion(3, "huber analytic gradient + outlier robustness vs OLS")
def test_criterion_03_huber_correctness():
    rs = np.random.RandomState(30)
    X = rs.normal(size=(25, 3))
    y = X @ np.array([2.0, -1.0, 0.5]) + rs.normal(0, 1.0, 25)
    worst = 0.0
    for _ in range(10):
        beta = rs.normal(size=3)
        c0 = float(rs.normal())
        sigma = float(rs.uniform(0.5, 2.0))
        analytic_b, analytic_c = huber_loss_gradient(X, y, beta, c0, sigma)
        numeric = central_difference(
            lambda par: huber_loss(y - X @ par[:3] - par[3], sigma),
            np.append(beta, c0))
        ref = np.append(analytic_b, analytic_c)
        rel = np.abs(numeric - ref) / np.maximum(1.0, np.abs(ref))
        worst = max(worst, float(rel.max()))
    assert worst < 1e-5

    wins = 0
    for seed in range(100):
        rs = np.random.RandomState(1000 + seed)
        x = np.linspace(0.0, 10.0, 20)
        yy = x + rs.normal(0, 0.1, 20)
        yy[rs.randint(20)] += 100.0
        huber = fit_huber(x[:, None], yy)
        beta_ols, _ = ols_fit(x[:, None], yy)
        if abs(huber.beta[0] - 1.0) < abs(beta_ols[0] - 1.0):
            wins += 1
    assert wins >= 95, f"huber beat OLS in only {wins}/100 runs"


@criterion(4, "huber doubled-loss / canonical-loss fits coincide")
def test_criterion_04_huber_loss_equivalence():
    for seed in range(8):
        rs = np.random.RandomState(40 + seed)
        X = rs.normal(size=(30, 2))
        y = X @ np.array([1.5, -0.5]) + rs.normal(0, 0.3, 30)
        y[rs.randint(30)] += 50.0
        doubled = fit_huber(X, y, form="doubled")
        canon = fit_huber(X, y, form="canonical")
        assert np.abs(doubled.beta - canon.beta).max() < 1e-6
        assert abs(doubled.intercept - canon.intercept) < 1e-6


@criterion(5, "svr duality gap, complementarity, tube feasibility")
def test_criterion_05_svr():
    X = np.arange(10, dtype=float)[:, None]
    y = 2.0 * X.ravel() + 1.0
    model = fit_svr_linear(X, y, c_penalty=10.0, epsilon=0.5)
    assert np.abs(model.predict(X) - y).max() <= 0.5 + 1e-3

    for seed in range(6):
        rs = np.random.RandomState(50 + seed)
        Xr = rs.normal(size=(14, 2))
        yr = Xr @ rs.normal(size=2) + rs.normal(0, 0.2, 14)
        m = fit_svr_linear(Xr, yr, c_penalty=1.0, epsilon=0.1)
        p_obj = primal_objective(m, Xr, yr)
        d_obj = dual_objective(m, Xr, yr)
        assert p_obj - d_obj < 1e-3 * max(abs(p_obj), 1e-12)
        assert float(np.max(m.alphas * m.alpha_stars)) <= 1e-6


@criterion(6, "forest memorization, seed determinism, range bounds")
def test_criterion_06_forest():
    X = np.arange(4, dtype=float)[:, None]
    y = np.arange(4, dtype=float)
    memorizer = fit_forest(X, y, n_trees=1, bootstrap=False, min_leaf=1,
                           max_depth=None, max_features=1, seed=0)
    assert memorizer.predict(X).tolist() == y.tolist()

    for seed in range(20):
        rs = np.random.RandomState(60 + seed)
        Xr = rs.normal(size=(35, 4))
        yr = Xr[:, 0] * 2.0 + rs.normal(0, 0.5, 35)
        a = fit_forest(Xr, yr, n_trees=8, seed=seed)
        b = fit_forest(Xr, yr, n_trees=8, seed=seed)
        probe = rs.normal(0, 3, size=(20, 4))
        pa, pb = a.predict(probe), b.predict(probe)
        assert np.array_equal(pa, pb)  # bitwise
        assert pa.min() >= yr.min() - 1e-12 and pa.max() <= yr.max() + 1e-12


@criterion(7, "arima AR recovery vs Yule-Walker, random-walk forecast, shift invariance")
def test_criterion_07_arima():
    rng = Xorshift64Star(42)
    z = [0.0]
    for _ in range(499):
        z.append(0.8 * z[-1] + rng.normal())
    z = np.array(z)
    model = fit_arima(z, order=(1, 0, 0))
    yw = yule_walker_ar(z, 1)[0]
    assert abs(model.ar[0] - 0.8) < 0.1
    assert abs(yw - 0.8) < 0.1

    rw = fit_arima(np.cumsum(np.ones(20)), order=(0, 1, 0))
    assert forecast_arima(rw, np.array([4.0, 5.0]), 3).tolist() == [5.0, 5.0, 5.0]

    rng2 = Xorshift64Star(3)
    y = np.cumsum(np.array(rng2.normals(300))) + 10.0
    f_base = forecast_arima(fit_arima(y, order=(3, 1, 2)), y, 5)
    f_shift = forecast_arima(fit_arima(y + 1000.0, order=(3, 1, 2)), y + 1000.0, 5)
    assert np.abs(f_shift - f_base - 1000.0).max() < 1e-8


@criterion(8, "changepoint step detection, noise calibration, bitwise seeding")
def test_criterion_08_changepoint():
    start = time.perf_counter()
    hits = 0
    for seed in range(20):
        gen = Xorshift64Star(derive_seed(800, seed))
        x = np.concatenate([np.zeros(30), np.full(30, 10.0)])
        x = x + np.array(gen.normals(60, sd=0.1))
        found = detect(bcp_posterior(x, BcpConfig(seed=seed)).probabilities)
        if found and min(abs(pos - 29) for pos in found) <= 1:
            hits += 1
    assert hits >= 19, f"step found within +/-1 in only {hits}/20 runs"

    rates = []
    for seed in range(20):
        gen = Xorshift64Star(derive_seed(900, seed))
        noise = np.array(gen.normals(60, sd=1.0))
        p = bcp_posterior(noise, BcpConfig(seed=seed)).probabilities
        rates.append(float((p > 0.5).mean()))
    assert float(np.mean(rates)) < 0.05

    gen = Xorshift64Star(derive_seed(800, 0))
    x = np.concatenate([np.zeros(30), np.full(30, 10.0)])
    x = x + np.array(gen.normals(60, sd=0.1))
    a = bcp_posterior(x, BcpConfig(seed=0)).probabilities
    b = bcp_posterior(x, BcpConfig(seed=0)).probabilities
    assert np.array_equal(a, b)
    assert time.perf_counter() - start < 60.0


@criterion(9, "match-scoring hand count")
def test_criterion_09_match_exactness():
    report = match([10, 20], [11, 35], window=1)
    assert report.true_positive == 1
    assert report.false_positive == 1
    assert report.false_negative == 1
    assert report.sensitivity == 50.0
    assert report.ppv == 50.0


def _panel(seed, lead=2, proxy_noise=150.0, gain=0.05, contaminate=False,
           noise_proxies=False):
    flu = gen_flu(SynthConfig(years=5, seed=seed))
    values = flu.values
    if contaminate:
        values = values.copy()
        gen = Xorshift64Star(derive_seed(seed, 77))
        for _ in range(10):  # reporting-glitch spikes in the training era
            week = 54 + gen.randint(140)
            values[week] += 30000.0 + 20000.0 * gen.random()
    flu_panel = WeeklySeries("flu", ResourceKind.FLU_PATIENTS, flu.start, values)
    members = [flu_panel]
    for i, kind in enumerate(UGC):
        cfg = (ProxyConfig(name=f"q{i}", resource=kind, gain=0.0, noise_sd=500.0,
                           seed=derive_seed(seed, i + 1))
               if noise_proxies else
               ProxyConfig(name=f"q{i}", resource=kind, lead_weeks=lead,
                           gain=gain, noise_sd=proxy_noise,
                           seed=derive_seed(seed, i + 1)))
        members.append(gen_proxy(flu, cfg))
    selected = {kind: [f"q{i}"] for i, kind in enumerate(UGC)}
    return SignalPanel(members), selected


@criterion(10, "end-to-end synthetic reproduction of the qualitative findings")
def test_criterion_10_end_to_end():
    start = time.perf_counter()

    # (a) informative proxies: Huber tracks the epidemic season
    panel, selected = _panel(seed=101)
    season5 = SplitPlan.of(panel.start + 53,
                           [(panel.start + 208, panel.start + 259)])
    huber_run = backtest(panel, selected, ModelSpec("huber"), season5, seed=0)[0]
    assert huber_run.metrics.r2 >= 0.85, f"(a) R2 {huber_run.metrics.r2}"

    # (b) noise proxies: removing the past-lag block collapses accuracy
    noise_panel, noise_selected = _panel(seed=55, noise_proxies=True)
    plan_b = SplitPlan.of(noise_panel.start + 53,
                          [(noise_panel.start + 215, noise_panel.start + 234)])
    full = backtest(noise_panel, noise_selected, ModelSpec("huber"), plan_b,
                    drop="none", seed=1)[0]
    no_past = backtest(noise_panel, noise_selected, ModelSpec("huber"), plan_b,
                       drop="past", seed=1)[0]
    degradation = full.metrics.r2 - no_past.metrics.r2
    assert degradation >= 0.2, f"(b) degradation {degradation}"

    # (c) contaminated panels: Huber at least matches Lasso almost always
    wins = 0
    for seed in range(20):
        panel_c, selected_c = _panel(seed=1000 + seed, contaminate=True,
                                     proxy_noise=200.0)
        plan_c = SplitPlan.of(panel_c.start + 53,
                              [(panel_c.start + 210, panel_c.start + 229)])
        hub = backtest(panel_c, selected_c, ModelSpec("huber"), plan_c,
                       seed=seed)[0].metrics.r2
        las = backtest(panel_c, selected_c, ModelSpec("lasso"), plan_c,
                       seed=seed)[0].metrics.r2
        if hub >= las:
            wins += 1
    assert wins >= 16, f"(c) huber won only {wins}/20"

    assert time.perf_counter() - start < 300.0


@criterion(11, "CLI determinism: byte-identical reruns of every command")
def test_criterion_11_cli_determinism(tmp_path):
    def tree(root):
        return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}

    def run(argv):
        assert cli_main([str(a) for a in argv]) == 0

    data_a, data_b = tmp_path / "da", tmp_path / "db"
    for out in (data_a, data_b):
        run(["synth", "--years", "5", "--proxies", "4", "--seed", "11", "--out", out])
    assert tree(data_a) == tree(data_b)

    sel_a, sel_b = tmp_path / "sa.json", tmp_path / "sb.json"
    for out in (sel_a, sel_b):
        run(["select", "--target", data_a / "flu.csv",
             "--candidates", data_a / "proxy_01.csv", data_a / "proxy_02.csv",
             "--threshold", "0.7", "--out", out])
    assert sel_a.read_bytes() == sel_b.read_bytes()

    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "flu": str(data_a / "flu.csv"),
        "resources": {"search": [str(data_a / "proxy_01.csv")],
                      "social": [str(data_a / "proxy_02.csv")],
                      "shopping": [str(data_a / "proxy_03.csv")],
                      "qa": [str(data_a / "proxy_04.csv")]},
        "train_start": "2014-10-06",
        "windows": [{"start": "2017-10-30", "end": "2017-11-27"}],
        "seed": 3,
    }), encoding="utf-8")

    back_a, back_b = tmp_path / "ba", tmp_path / "bb"
    for out in (back_a, back_b):
        run(["backtest", "--config", config, "--model", "huber", "--out", out])
    assert tree(back_a) == tree(back_b)

    abl_a, abl_b = tmp_path / "aa", tmp_path / "ab"
    for out in (abl_a, abl_b):
        run(["ablate", "--config", config, "--drop", "all", "--out", out])
    assert tree(abl_a) == tree(abl_b)

    cp_a, cp_b = tmp_path / "ca", tmp_path / "cb"
    for out in (cp_a, cp_b):
        run(["changepoint", "--flu", data_a / "flu.csv",
             "--queries", data_a / "proxy_01.csv", data_a / "proxy_02.csv",
             "--iterations", "120", "--burn-in", "20", "--seed", "7",
             "--out", out])
    assert tree(cp_a) == tree(cp_b)
