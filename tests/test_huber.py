import contextlib
import importlib.util
import io
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from flunowcast import evaluation, parallel
from flunowcast.cli import main
from flunowcast.errors import NoData, NonConvergence
from flunowcast.evaluation import ModelSpec, backtest, drop_labels
from flunowcast.features import SplitPlan
from flunowcast.models import (
    fit_huber,
    huber,
    huber_loss,
    huber_loss_gradient,
    model_from_json,
    model_to_json,
)
from flunowcast.rng import derive_seed
from flunowcast.series import UGC_RESOURCES, SignalPanel, WeekIndex
from flunowcast.synth import ProxyConfig, SynthConfig, gen_flu, gen_proxy

from oracles import central_difference, ols_fit
from test_acceptance import _panel as criterion_10_panel

GEN = Path(__file__).resolve().parent.parent / "bench" / "gen.py"
TOL = huber.TOL


def outlier_dataset(seed, n=20, jump=100.0):
    """y = x with one gross response outlier."""
    rs = np.random.RandomState(seed)
    x = np.linspace(0.0, 10.0, n) + rs.normal(0, 0.05, n)
    y = x + rs.normal(0, 0.1, n)
    y[rs.randint(n)] += jump
    return x[:, None], y


class TestLossFunction:
    def test_branch_continuity_at_delta(self):
        # both branches equal 1 at a = delta = 1, both derivatives equal 2
        assert huber_loss([1.0], sigma=1.0, delta=1.0) == pytest.approx(1.0)
        assert 2 * abs(1.0) - 1 == pytest.approx(1.0 ** 2)
        eps = 1e-8
        inner = (huber_loss([1.0], 1.0) - huber_loss([1.0 - eps], 1.0)) / eps
        outer = (huber_loss([1.0 + eps], 1.0) - huber_loss([1.0], 1.0)) / eps
        assert inner == pytest.approx(2.0, abs=1e-6)
        assert outer == pytest.approx(2.0, abs=1e-6)

    def test_doubled_form_is_twice_canonical(self):
        rs = np.random.RandomState(0)
        r = rs.normal(0, 3, 50)
        doubled = huber_loss(r, sigma=1.5, form="doubled")
        canon = huber_loss(r, sigma=1.5, form="canonical")
        assert doubled == pytest.approx(2.0 * canon, rel=1e-12)

    def test_analytic_gradient_matches_central_differences(self):
        rs = np.random.RandomState(11)
        X = rs.normal(size=(30, 3))
        y = X @ np.array([1.0, -2.0, 0.5]) + rs.normal(0, 1.0, 30)
        worst = 0.0
        for _ in range(10):
            beta = rs.normal(size=3)
            intercept = float(rs.normal())
            sigma = float(rs.uniform(0.5, 2.0))

            def f(params):
                return huber_loss(y - X @ params[:3] - params[3], sigma)

            analytic_b, analytic_c = huber_loss_gradient(X, y, beta, intercept, sigma)
            numeric = central_difference(f, np.append(beta, intercept))
            ref = np.append(analytic_b, analytic_c)
            rel = np.abs(numeric - ref) / np.maximum(1.0, np.abs(ref))
            worst = max(worst, float(rel.max()))
        assert worst < 1e-5


class TestFit:
    def test_exact_linear_data_reduces_to_least_squares(self):
        x = np.arange(10, dtype=float)[:, None]
        y = 2.0 * x.ravel() + 1.0
        model = fit_huber(x, y, sigma=1.0)
        assert model.beta[0] == pytest.approx(2.0, abs=1e-6)
        assert model.intercept == pytest.approx(1.0, abs=1e-6)

    def test_outlier_robustness_beats_ols(self):
        X, y = outlier_dataset(seed=3)
        huber = fit_huber(X, y)
        beta_ols, _ = ols_fit(X, y)
        assert abs(huber.beta[0] - 1.0) < abs(beta_ols[0] - 1.0)
        assert model_sigma_positive(huber)

    def test_heldout_prediction_closer_than_ols(self):
        X, y = outlier_dataset(seed=8)
        huber = fit_huber(X, y)
        beta_ols, c_ols = ols_fit(X, y)
        x_new = 20.0
        truth = 20.0
        assert abs(huber.predict(np.array([x_new])) - truth) < \
            abs(beta_ols[0] * x_new + c_ols - truth)

    def test_doubled_and_canonical_forms_coincide(self):
        X, y = outlier_dataset(seed=21)
        a = fit_huber(X, y, form="doubled")
        b = fit_huber(X, y, form="canonical")
        assert abs(a.beta[0] - b.beta[0]) < 1e-6
        assert abs(a.intercept - b.intercept) < 1e-6

    @pytest.mark.parametrize("call", [
        lambda X, y: huber_loss(y, sigma=1.0, form="bogus"),
        lambda X, y: huber_loss_gradient(X, y, np.zeros(1), 0.0, 1.0, form="bogus"),
        lambda X, y: fit_huber(X, y, form="bogus"),
    ], ids=["loss", "loss_gradient", "fit_huber"])
    def test_unknown_form_rejected(self, call):
        X, y = outlier_dataset(seed=21)
        with pytest.raises(ValueError, match="unknown loss form 'bogus'"):
            call(X, y)

    def test_fixed_sigma_respected(self):
        X, y = outlier_dataset(seed=4)
        model = fit_huber(X, y, sigma=2.5)
        assert model.sigma == 2.5

    def test_intercept_flag(self):
        x = np.arange(8, dtype=float)[:, None]
        y = 3.0 * x.ravel()
        model = fit_huber(x, y, sigma=1.0, include_intercept=False)
        assert model.intercept == 0.0
        assert model.beta[0] == pytest.approx(3.0, abs=1e-8)

    def test_too_few_rows(self):
        with pytest.raises(NoData):
            fit_huber(np.ones((1, 1)), np.ones(1))


def model_sigma_positive(model):
    return model.sigma > 0.0


def test_json_round_trip_bitwise():
    X, y = outlier_dataset(seed=13)
    model = fit_huber(X, y)
    clone = model_from_json(model_to_json(model))
    assert np.array_equal(clone.beta, model.beta)
    assert clone.intercept == model.intercept
    assert clone.sigma == model.sigma and clone.delta == model.delta


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 160, 161, 398, 399])
def test_median_matches_numpy_bitwise(size):
    from flunowcast.models.huber import _median

    rng = np.random.default_rng(size)
    cases = [
        rng.standard_normal(size),
        rng.integers(-3, 4, size).astype(float),  # ties
        rng.choice([0.0, -0.0], size),            # signed zeros only
        rng.choice([0.0, -0.0, 1.0, -1.0], size),
        rng.standard_normal(size) * 1e300,        # a middle pair that overflows
        np.abs(rng.standard_normal(size)) * 1e-310,  # subnormals
    ]
    for x in cases:
        assert np.float64(_median(x)).tobytes() == np.median(x).tobytes(), x


# ---------------------------------------------------------------------------
# The two certificates, checked from outside the fit
# ---------------------------------------------------------------------------

def mad_sigma(resid):
    return huber.MAD_TO_SIGMA * float(np.median(np.abs(resid - np.median(resid))))


def certificates(X, y, model):
    """The scale certificate's |MAD(r) - sigma| / sigma, and the step
    certificate's relative parameter change of one IRLS step (weighted least
    squares, whose fixed points are the fixed-scale minimizers) from the
    model at its own sigma."""
    X = np.asarray(X, dtype=float).reshape(len(y), -1)
    resid = y - X @ model.beta - model.intercept
    scale_gap = abs(mad_sigma(resid) - model.sigma) / model.sigma
    design = np.column_stack([X, np.ones(len(y))])
    theta = np.append(model.beta, model.intercept)
    a = np.abs(resid / model.sigma)
    sw = np.sqrt(np.where(a <= model.delta, 1.0, model.delta / np.maximum(a, 1e-300)))
    new, *_ = np.linalg.lstsq(design * sw[:, None], y * sw, rcond=None)
    step = float(np.max(np.abs(new - theta))) / max(1.0, float(np.max(np.abs(new))))
    return scale_gap, step


def recorded_fits(monkeypatch, run):
    """(X, y, model) of every Huber fit that ``run()`` makes, all in this process."""
    fits = []
    fit = evaluation.fit_huber

    def recording(X, y, **kwargs):
        model = fit(X, y, **kwargs)
        fits.append((X, y, model))
        return model

    monkeypatch.setattr(parallel, "cpus", lambda: 1)
    monkeypatch.setattr(evaluation, "fit_huber", recording)
    run()
    return fits


def clean_panel(seed):
    """The benchmark's ``backtest_clean`` panel, built in memory: the seed-42
    flu curve and one proxy per UGC resource, seeded by ``seed``."""
    flu = gen_flu(SynthConfig(years=5, seed=42))
    proxies = [gen_proxy(flu, ProxyConfig(name=f"proxy_{i + 1:02d}", resource=kind,
                                          lead_weeks=2, gain=0.05, noise_sd=150.0,
                                          seed=derive_seed(seed, i + 1)))
               for i, kind in enumerate(UGC_RESOURCES)]
    return SignalPanel([flu, *proxies]), {kind: [p.name] for kind, p in
                                          zip(UGC_RESOURCES, proxies)}


def test_every_fit_of_an_ablated_backtest_window_is_certified(monkeypatch):
    # eight weeks of the season window on the backtest_clean panel, under
    # every ablation row: 48 fits, of which the alternated scale of earlier
    # versions left 15 more than TOL from MAD(r), by up to 4.2e-4
    panel, selected = clean_panel(seed=1)
    plan = SplitPlan.of(WeekIndex.parse("2014-10-06"),
                        [(WeekIndex.parse("2017-10-30"), WeekIndex.parse("2017-12-18"))])

    def run():
        for label in drop_labels():
            backtest(panel, selected, ModelSpec("huber"), plan, seed=1, drop=label)

    fits = recorded_fits(monkeypatch, run)
    assert len(fits) == 48
    for X, y, model in fits:
        scale_gap, step = certificates(X, y, model)
        assert scale_gap <= TOL and step <= TOL, (X.shape, scale_gap, step)


def test_every_fit_on_the_contaminated_panels_is_certified(monkeypatch):
    # criterion 10(c)'s 20 panels, each with ten reporting spikes in training:
    # 400 fits, of which the alternated scale left 91 uncertified
    def run():
        for seed in range(20):
            panel, selected = criterion_10_panel(seed=1000 + seed, contaminate=True,
                                                 proxy_noise=200.0)
            plan = SplitPlan.of(panel.start + 53, [(panel.start + 210, panel.start + 229)])
            backtest(panel, selected, ModelSpec("huber"), plan, seed=seed)

    fits = recorded_fits(monkeypatch, run)
    assert len(fits) == 400
    worst = np.max([certificates(X, y, model) for X, y, model in fits], axis=0)
    assert worst[0] <= TOL and worst[1] <= TOL, worst


@pytest.fixture(scope="module")
def season_rows(tmp_path_factory):
    """A function (drop label, week) -> the (X, y) that the ablation row
    fits for that week of the 2017-10-30..2018-05-21 season, on the seed-1
    ``backtest_clean`` inputs that ``bench/gen.py`` writes."""
    spec = importlib.util.spec_from_file_location("bench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    writes_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(gen)  # leaves nothing behind under bench/
    finally:
        sys.dont_write_bytecode = writes_bytecode
    wdir = tmp_path_factory.mktemp("season") / "backtest_clean"
    gen.generate("backtest_clean", 1, wdir)
    config = json.loads((wdir / "run.json").read_text())

    def row(label, week):
        start = WeekIndex.parse(week)
        config["windows"] = [{"start": week, "end": (start + 1).iso()}]
        path = wdir / f"{label}_{week}.json"
        path.write_text(json.dumps(config))

        def run():
            assert main(["ablate", "--config", path.name, "--drop", label,
                         "--out", "out"]) == 0

        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
            mp.chdir(wdir)  # the config's paths are relative to it
            X, y, _ = recorded_fits(mp, run)[0]
        return X, y

    return row


def scale_gap_at(X, y, sigma):
    """g(sigma) = MAD(r) - sigma at the fixed-scale fit."""
    model = fit_huber(X, y, sigma=sigma)
    return mad_sigma(y - X @ model.beta - model.intercept) - sigma


def test_a_kink_in_g_beside_the_root_is_certified(season_rows):
    X, y = season_rows("shopping", "2017-10-30")
    assert X.shape == (160, 55)
    model = fit_huber(X, y)
    assert max(certificates(X, y, model)) <= TOL
    # g falls at slope -0.48 through the root, and within 6e-4 sigma above
    # it turns almost flat (-0.014), where a secant step crawls
    root = model.sigma
    near = scale_gap_at(X, y, root * (1 + 4e-4)) / (4e-4 * root)
    far = ((scale_gap_at(X, y, root * (1 + 1.2e-3)) - scale_gap_at(X, y, root * (1 + 6e-4)))
           / (6e-4 * root))
    assert near < -0.4 < -0.05 < far


def test_a_secant_that_points_away_from_the_root_is_certified(season_rows):
    X, y = season_rows("qa", "2017-12-18")
    assert X.shape == (167, 55)
    model = fit_huber(X, y)
    assert max(certificates(X, y, model)) <= TOL
    # below the root g rises towards it before it falls, so a secant through
    # two evaluations there points away from the root, out of the bracket
    root = model.sigma
    assert 0.0 < scale_gap_at(X, y, 0.97 * root) < scale_gap_at(X, y, 0.985 * root)


def reported(message, label):
    match = re.search(re.escape(label) + r" ([-+0-9.e]+)$", str(message))
    assert match, message
    return float(match.group(1))


def test_scale_budget_raises_with_the_gap_reached(monkeypatch):
    X, y = outlier_dataset(seed=3)
    monkeypatch.setattr(huber, "SCALE_ITER", 1)
    with pytest.raises(NonConvergence, match="within 1 fits") as err:
        fit_huber(X, y)
    # the one fixed-scale fit is at the MAD of y about its median
    first = mad_sigma(y)
    gap = abs(scale_gap_at(X, y, first)) / first
    assert gap > TOL
    assert reported(err.value, "smallest |MAD - sigma| / sigma") == pytest.approx(gap, rel=1e-2)


@pytest.mark.parametrize("sigma", [None, 2.5])
def test_step_budget_raises_with_the_last_step(monkeypatch, sigma):
    X, y = outlier_dataset(seed=3)
    monkeypatch.setattr(huber, "MAX_ITER", 1)
    with pytest.raises(NonConvergence, match="within 1 steps") as err:
        fit_huber(X, y, sigma=sigma)
    assert reported(err.value, "last relative step") > TOL


def test_near_perfect_fit_takes_the_residual_spread_as_scale():
    # every residual is rounding, so the MAD collapses and g < 0 at every
    # scale: the fit keeps the step certificate at the floored spread
    x = np.arange(10, dtype=float)[:, None]
    y = 2.0 * x.ravel() + 1.0
    model = fit_huber(x, y)
    assert model.sigma == 1e-12
    assert model.beta[0] == pytest.approx(2.0, abs=1e-9)
    assert certificates(x, y, model)[1] <= TOL


def test_fixed_sigma_fit_holds_the_step_certificate():
    X, y = outlier_dataset(seed=4)
    model = fit_huber(X, y, sigma=2.5)
    assert certificates(X, y, model)[1] <= TOL


def test_rank_deficient_band_falls_back_to_least_squares(monkeypatch):
    # a duplicated column leaves every band's Gram matrix singular, so each
    # step is IRLS's weighted least squares
    rs = np.random.RandomState(5)
    X = rs.normal(size=(40, 3))
    X = np.column_stack([X, X[:, 0]])
    y = X[:, :3] @ np.array([1.0, 2.0, 3.0]) + rs.standard_t(2, 40)
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
    model = fit_huber(X, y)
    assert calls
    monkeypatch.undo()
    assert max(certificates(X, y, model)) <= TOL
    assert model.beta[0] == pytest.approx(model.beta[3], rel=1e-9)


BLAS = parallel._openblas_threads()


@pytest.mark.skipif(BLAS is None, reason="numpy links no OpenBLAS")
def test_fit_bytes_do_not_depend_on_the_blas_pool():
    # OpenBLAS rounds the band rows' Gram matrix of these shapes differently
    # on one thread and on two unless the fit runs on one thread under any pool
    get, put = BLAS
    rs = np.random.RandomState(0)
    problems = []
    for n, p in ((500, 150), (2000, 100)):
        X = rs.normal(size=(n, p))
        problems.append((X, 100.0 * (X @ rs.normal(size=p) + rs.standard_t(3, n))))
    before = get()
    fits = []
    try:
        for threads in (1, 2):
            put(threads)
            fits.append([model_to_json(fit_huber(X, y)) for X, y in problems])
            assert get() == threads
    finally:
        put(before)
    assert fits[0] == fits[1]
