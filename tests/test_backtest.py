import importlib.resources
import itertools
import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

import wctsv.backtest
import wctsv.frontier
from wctsv import DegenerateMeans, NonConvergence, TooFewRows
from wctsv.backtest import (
    MODEL_ORDER,
    BacktestConfig,
    BacktestResult,
    ModelRun,
    parse_config_text,
    render_summary_json,
    render_wealth_csv,
    run_backtest,
    summarize,
)
from wctsv.frontier import _Segment, classical_mv, frontier_params
from wctsv.market_data import LossPanel, compute_losses, estimate_moments, load_price_panel
from wctsv.simplex import _Chain, _critical_line, _long_only_frontier, _short_selling_top


def loss_panel(losses):
    losses = np.asarray(losses, dtype=float)
    dates = tuple(f"2024-03-{k + 1:02d}" for k in range(losses.shape[0]))
    tickers = tuple(chr(ord("A") + i) for i in range(losses.shape[1]))
    return LossPanel(dates=dates, tickers=tickers, losses=losses)


def random_panel(seed, rows=16, d=3, scale=0.01):
    rng = np.random.default_rng(seed)
    return loss_panel(rng.normal(loc=1e-4, scale=scale, size=(rows, d)))


class TestConfig:
    def test_defaults(self):
        cfg = BacktestConfig()
        assert cfg.window == 252
        assert cfg.models == MODEL_ORDER
        assert (cfg.t, cfg.lam, cfg.nu) == (-0.003, 0.015, -0.001)

    def test_model_order_normalized(self):
        cfg = BacktestConfig(models=("EEP_TSV", "MV"))
        assert cfg.models == ("MV", "EEP_TSV")

    def test_validation(self):
        with pytest.raises(ValueError):
            BacktestConfig(window=1)
        with pytest.raises(ValueError):
            BacktestConfig(lam=0.0)
        with pytest.raises(ValueError):
            BacktestConfig(models=())
        with pytest.raises(ValueError):
            BacktestConfig(models=("MV", "NOPE"))

    @pytest.mark.parametrize("field", ["t", "nu"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_and_cap_rejected(self, field, bad):
        with pytest.raises(ValueError):
            BacktestConfig(**{field: bad})

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_budget_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            BacktestConfig(lam=float(bad))
        with pytest.raises(ValueError, match="finite"):
            parse_config_text(f"lambda = {bad}\n")


class TestRunBacktest:
    def test_single_day_composes_known_pieces(self):
        panel = random_panel(0, rows=7, d=3)
        cfg = BacktestConfig(window=6, models=("MV",), nu=0.001, ridge=1e-8)
        res = run_backtest(panel, cfg)
        run = res.run_for("MV")
        assert run.failure is None
        assert len(run.dates) == 1
        model = estimate_moments(panel, 6, 5, ridge=1e-8)
        want = classical_mv(frontier_params(model), model, 0.001)
        np.testing.assert_array_equal(run.weights[0], want.weights)
        ret = -float(want.weights @ panel.losses[6])
        assert run.wealth[-1] == 1.0 + ret

    def test_zero_loss_panel_stays_at_one(self):
        # constant prices give equal means: the short-selling rules fail on
        # day one, the long-only rules hold and earn nothing, nothing is silent
        panel = loss_panel(np.zeros((8, 3)))
        res = run_backtest(panel, BacktestConfig(window=5, ridge=1e-10))
        assert {f[0] for f in res.failures} == {"MV", "TSV", "M_TSV_S"}
        for run in res.runs:
            np.testing.assert_array_equal(run.wealth, np.ones(len(run.dates) + 1))
            if run.failure is not None:
                assert run.failure[0] == panel.dates[5]
                assert not run.dates
            else:
                assert run.dates == res.oos_dates

    def test_equal_means_fail_only_the_short_selling_rules(self):
        dev = np.array([0.01, -0.01, 0.02, -0.02, 0.015, -0.015])
        panel = loss_panel(np.vstack([np.column_stack([dev, dev[::-1]]), [[0.01, -0.03]]]))
        model = estimate_moments(panel, 6, 5, ridge=1e-8)
        with pytest.raises(DegenerateMeans) as exc:
            frontier_params(model)
        res = run_backtest(panel, BacktestConfig(window=6, ridge=1e-8))
        assert res.failures == tuple(
            (name, panel.dates[6], str(exc.value)) for name in ("MV", "TSV", "M_TSV_S")
        )
        run = res.run_for("EEP_TSV_S")
        assert run.dates == res.oos_dates
        np.testing.assert_allclose(run.weights, [[0.5, 0.5]], rtol=0.0, atol=1e-12)
        assert res.run_for("EEP_TSV").dates == res.oos_dates

    def test_solver_failure_is_isolated_and_dated(self):
        panel = random_panel(1, rows=14, d=3)
        # budget far below what any simplex portfolio can satisfy
        cfg = BacktestConfig(window=8, t=0.5, lam=1e-6, nu=0.001)
        res = run_backtest(panel, cfg)
        for name in ("EEP_TSV", "EEP_TSV_S"):
            run = res.run_for(name)
            assert run.failure is not None
            assert run.failure[0] == panel.dates[8]
            assert len(run.dates) == 0
        for name in ("MV", "TSV", "M_TSV_S"):
            run = res.run_for(name)
            assert run.failure is None
            assert len(run.dates) == len(res.oos_dates)
        assert {f[0] for f in res.failures} == {"EEP_TSV", "EEP_TSV_S"}

    def test_wealth_recurrence_exact(self):
        res = run_backtest(random_panel(2), BacktestConfig(window=9, nu=0.001))
        for run in res.runs:
            rebuilt = np.concatenate([[1.0], np.cumprod(1.0 + run.returns)])
            np.testing.assert_allclose(run.wealth, rebuilt, rtol=1e-12)
            assert run.wealth[0] == 1.0

    def test_weights_invariants(self):
        res = run_backtest(random_panel(3), BacktestConfig(window=9, nu=0.001))
        for run in res.runs:
            assert np.abs(run.weights.sum(axis=1) - 1.0).max() <= 1e-10
            if run.model.startswith("EEP"):
                assert run.weights.min() >= -1e-12

    def test_no_look_ahead(self):
        full = random_panel(4, rows=18, d=3)
        cfg = BacktestConfig(window=9, nu=0.001, models=("MV", "EEP_TSV"))
        res_full = run_backtest(full, cfg)
        truncated = LossPanel(full.dates[:14], full.tickers, full.losses[:14])
        res_trunc = run_backtest(truncated, cfg)
        for name in cfg.models:
            a, b = res_full.run_for(name), res_trunc.run_for(name)
            shared = len(b.dates)
            np.testing.assert_array_equal(a.weights[:shared], b.weights)
            np.testing.assert_array_equal(a.returns[:shared], b.returns)

    def test_deterministic(self):
        cfg = BacktestConfig(window=9, nu=0.001, seed=7)
        a = run_backtest(random_panel(5), cfg)
        b = run_backtest(random_panel(5), cfg)
        for ra, rb in zip(a.runs, b.runs):
            np.testing.assert_array_equal(ra.weights, rb.weights)
            np.testing.assert_array_equal(ra.wealth, rb.wealth)

    def test_m_tsv_s_equals_mv_when_threshold_above_cap(self):
        cfg = BacktestConfig(window=9, t=0.01, nu=-0.001, models=("MV", "M_TSV_S"))
        res = run_backtest(random_panel(6), cfg)
        mv, mtsv = res.run_for("MV"), res.run_for("M_TSV_S")
        np.testing.assert_allclose(mtsv.weights, mv.weights, atol=1e-10)
        np.testing.assert_allclose(mtsv.wealth, mv.wealth, rtol=1e-12)

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            run_backtest(random_panel(0, rows=9), BacktestConfig(window=9))

    def test_shared_long_only_frontier_matches_solo_solves(self, monkeypatch):
        # the engine walks the long-only frontier once per day for both EEP
        # rules; each rule walking its own gives the same Portfolio
        solves = []
        for name in ("eep_tsv_portfolio", "eep_tsv_s_portfolio"):
            solver = getattr(wctsv.backtest, name)

            def record(model, t, lam, frontier, solver=solver):
                pf = solver(model, t, lam, frontier)
                solves.append((solver, model, t, lam, frontier, pf))
                return pf

            monkeypatch.setattr(wctsv.backtest, name, record)
        res = run_backtest(random_panel(3), BacktestConfig(window=9, t=0.0, lam=0.02))
        assert len(solves) == 2 * len(res.oos_dates)
        for solver, model, t, lam, frontier, pf in solves:
            assert frontier is not None
            solo = solver(model, t, lam)
            np.testing.assert_array_equal(solo.weights, pf.weights)
            assert (solo.expected_loss, solo.stdev, solo.objective, solo.regime) == (
                pf.expected_loss, pf.stdev, pf.objective, pf.regime
            )

    def test_failed_shared_walk_is_left_to_the_solvers(self, monkeypatch):
        # the day's shared walk raises after k segments (None: after its last);
        # each EEP rule fails, or answers, exactly as it does reading a chain
        # alone, and the rules that do not read past the failure never notice
        panel, cfg = random_panel(3, d=6), BacktestConfig(window=9, nu=0.001)
        want = run_backtest(panel, cfg)
        assert want.failures == ()
        both = {"EEP_TSV", "EEP_TSV_S"}
        # with k=None both rules stop before the walk's end on every day
        for k, failed in ((0, both), (2, both), (3, {"EEP_TSV_S"}), (None, set())):

            def failing(model, top, k=k):
                def walk():
                    yield from itertools.islice(_critical_line(model, top), k)
                    raise NonConvergence("walk failed")

                return _Chain(walk())

            monkeypatch.setattr(wctsv.backtest, "_long_only_frontier", failing)
            got = run_backtest(panel, cfg)
            assert {name for name, _, _ in got.failures} == failed
            assert {msg for _, _, msg in got.failures} <= {"walk failed"}
            for name in MODEL_ORDER:
                run = got.run_for(name)
                refs = [want.run_for(name)] if name not in failed else []
                if name in both:
                    refs.append(run_backtest(panel, replace(cfg, models=(name,))).run_for(name))
                for ref in refs:
                    assert (run.dates, run.failure) == (ref.dates, ref.failure)
                    np.testing.assert_array_equal(run.weights, ref.weights)


def test_bundled_eep_solves_walk_about_half_the_frontier(monkeypatch):
    # both EEP rules stop early: at the defaults they build 1.7 of a full
    # walk's 10.7 segments a day on the bundled panel (130 of 822)
    sample = importlib.resources.files("wctsv") / "data" / "sample_prices.csv"
    with importlib.resources.as_file(sample) as path:
        losses = compute_losses(load_price_panel(path))
    chains = []

    def record(model, top):
        chains.append((model, _long_only_frontier(model, top)))
        return chains[-1][1]

    monkeypatch.setattr(wctsv.backtest, "_long_only_frontier", record)
    res = run_backtest(losses, BacktestConfig())
    assert res.failures == () and len(chains) == len(res.oos_dates)
    built = sum(chain.built for _, chain in chains)
    full = sum(len(_long_only_frontier(model, _short_selling_top(model))) for model, _ in chains)
    assert built <= 0.2 * full


def test_bundled_long_only_walk_makes_about_one_solve_a_day(monkeypatch):
    # the walk starts from the short-selling frontier, whose first segment it
    # shares when the unconstrained GMV is interior (52 of 77 days): on the
    # bundled panel at the defaults it makes 1.01 solves a day (2.01 from
    # kappa = 0, 3.01 when a separate QP found the GMV first)
    sample = importlib.resources.files("wctsv") / "data" / "sample_prices.csv"
    with importlib.resources.as_file(sample) as path:
        losses = compute_losses(load_price_panel(path))
    solve, calls = np.linalg.solve, []

    def counting(*args, **kwargs):
        calls.append(sys._getframe(1).f_globals.get("__name__"))
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counting)
    res = run_backtest(losses, BacktestConfig())
    assert res.failures == ()
    assert calls.count("wctsv.simplex") <= 1.1 * len(res.oos_dates)


@pytest.mark.parametrize("setting, calls", [
    ({}, 768),
    ({"t": -0.001, "nu": -0.0003}, 765),
    ({"t": -0.0005, "nu": -0.0003, "lam": 0.002}, 919),
    ({"t": 0.0, "lam": 0.003}, 524),
])
def test_bundled_eep_tsv_s_builds_weights_for_its_winner_only(
    monkeypatch, record_property, setting, calls
):
    # EEP_TSV_S scores its candidates in scalars, at sqrt(V) of their segment,
    # and builds weights once a solve, for the winner; the closed-form calls
    # per solve are recorded, and the 77 solves' total may not grow past the
    # count measured here (9.97, 9.94, 11.9 and 6.81 a solve)
    built, core = [], []
    weights, value = _Segment.weights, wctsv.frontier._symmetric_value

    def counting_weights(self, dim, xi):
        built.append(xi)
        return weights(self, dim, xi)

    def counting_value(*args):
        core.append(args)
        return value(*args)

    monkeypatch.setattr(_Segment, "weights", counting_weights)
    monkeypatch.setattr(wctsv.frontier, "_symmetric_value", counting_value)
    res = run_backtest(bundled_losses(), BacktestConfig(models=("EEP_TSV_S",), **setting))
    assert res.failures == ()
    solves = len(res.oos_dates)
    record_property("core_calls_per_solve", len(core) / solves)
    assert len(built) <= solves
    assert len(core) <= calls


@pytest.mark.parametrize("setting, calls", [
    ({}, 231),
    ({"t": -0.001, "nu": -0.0003}, 347),
    ({"t": -0.0005, "nu": -0.0003, "lam": 0.002}, 305),
    ({"t": 0.0, "lam": 0.003}, 154),
])
def test_bundled_m_tsv_s_scores_its_cut_piece_only(monkeypatch, setting, calls):
    # M_TSV_S scores the candidates of its one feasible piece of the
    # short-selling segment, [min(t, hi), hi], and nothing else: the shared
    # symmetric minimizer runs no tangent bound below that piece, so the 77
    # solves make exactly this many closed-form calls (3.00, 4.51, 3.96 and 2.00
    # a solve)
    core, value = [], wctsv.frontier._symmetric_value

    def counting_value(*args):
        core.append(args)
        return value(*args)

    monkeypatch.setattr(wctsv.frontier, "_symmetric_value", counting_value)
    res = run_backtest(bundled_losses(), BacktestConfig(models=("M_TSV_S",), **setting))
    assert res.failures == () and len(res.oos_dates) == 77
    assert len(core) == calls


SOLVERS = (
    "classical_mv", "tsv_portfolio", "m_tsv_s_portfolio", "eep_tsv_portfolio",
    "eep_tsv_s_portfolio",
)
PATCHED = ("frontier_params", "_long_only_frontier") + SOLVERS


@pytest.fixture
def counted(monkeypatch):
    """Count calls to the frontier builders and solvers the benchmark harness
    patches by name on ``wctsv.backtest``; a frontier built while a solver
    runs fails the test, as the harness times each solver's call whole."""
    calls, inside = {}, []

    def counting(name):
        fn = getattr(wctsv.backtest, name)

        def wrapper(*args, **kwargs):
            if name not in SOLVERS:
                assert not inside, f"{name} called inside {inside}"
            calls[name] = calls.get(name, 0) + 1
            inside.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(wctsv.backtest, name, wrapper)

    for name in PATCHED:
        counting(name)
    return calls


def bundled_losses():
    sample = importlib.resources.files("wctsv") / "data" / "sample_prices.csv"
    with importlib.resources.as_file(sample) as path:
        return compute_losses(load_price_panel(path))


class TestBenchmarkCaptureContract:
    def test_each_frontier_and_solver_once_a_day(self, counted):
        res = run_backtest(bundled_losses(), BacktestConfig())
        assert res.failures == ()
        days = len(res.oos_dates)
        assert counted == {name: days for name in PATCHED}

    @pytest.mark.parametrize(
        "models, built",
        [
            (("MV", "TSV", "M_TSV_S"), {"frontier_params"}),
            # the long-only walk starts from the short-selling frontier, which
            # is built once a day before the solver is entered
            (("EEP_TSV",), {"frontier_params", "_long_only_frontier"}),
        ],
    )
    def test_a_frontier_no_model_reads_is_not_built(self, counted, models, built):
        res = run_backtest(bundled_losses(), BacktestConfig(models=models))
        assert res.failures == ()
        assert set(counted) - set(SOLVERS) == built
        assert set(counted.values()) == {len(res.oos_dates)}

    def test_equal_means_build_the_frontier_once_and_enter_no_short_selling_solver(
        self, counted
    ):
        dev = np.array([0.01, -0.01, 0.02, -0.02, 0.015, -0.015])
        panel = loss_panel(np.vstack([np.column_stack([dev, dev[::-1]]), [[0.01, -0.03]]]))
        res = run_backtest(panel, BacktestConfig(window=6, ridge=1e-8))
        assert {name for name, _, _ in res.failures} == {"MV", "TSV", "M_TSV_S"}
        assert counted == {
            "frontier_params": 1, "_long_only_frontier": 1,
            "eep_tsv_portfolio": 1, "eep_tsv_s_portfolio": 1,
        }


def run_of(returns, wealth, model="MV", failure=None):
    returns = np.asarray(returns, dtype=float)
    wealth = np.asarray(wealth, dtype=float)
    dates = tuple(f"2024-04-{k + 1:02d}" for k in range(returns.size))
    return ModelRun(
        model=model,
        dates=dates,
        weights=np.zeros((returns.size, 2)),
        returns=returns,
        wealth=wealth,
        failure=failure,
    )


def result_of(*runs):
    return BacktestResult(
        config=BacktestConfig(window=2),
        tickers=("A", "B"),
        oos_dates=tuple(f"2024-04-{k + 1:02d}" for k in range(max(r.returns.size for r in runs))),
        runs=tuple(runs),
    )


class TestSummarize:
    def test_constant_wealth(self):
        rec = summarize(result_of(run_of([0.0, 0.0], [1.0, 1.0, 1.0])))[0]
        assert rec["final_wealth"] == 1.0
        assert rec["max_drawdown"] == 0.0
        assert rec["ann_return"] == 0.0

    def test_hand_compounding(self):
        rec = summarize(result_of(run_of([0.1, -0.1], [1.0, 1.1, 0.99])))[0]
        assert rec["final_wealth"] == pytest.approx(0.99, abs=1e-15)
        assert rec["max_drawdown"] == pytest.approx(0.1, abs=1e-12)

    def test_single_day_flag(self):
        rec = summarize(result_of(run_of([0.02], [1.0, 1.02])))[0]
        assert rec["ann_vol"] == 0.0
        assert rec["ann_vol_flag"] == "single-sample"
        assert rec["ann_return"] == pytest.approx(0.02 * 252)

    def test_annualization(self):
        returns = np.array([0.01, -0.02, 0.005, 0.0])
        wealth = np.concatenate([[1.0], np.cumprod(1 + returns)])
        rec = summarize(result_of(run_of(returns, wealth)))[0]
        assert rec["ann_return"] == pytest.approx(returns.mean() * 252, rel=1e-12)
        assert rec["ann_vol"] == pytest.approx(returns.std(ddof=1) * np.sqrt(252), rel=1e-12)


class TestRendering:
    def test_wealth_csv_round_trips(self):
        res = result_of(run_of([0.1, -0.1], [1.0, 1.1, 0.99]))
        text = render_wealth_csv(res)
        lines = text.strip().splitlines()
        assert lines[0] == "date,model,wealth"
        day, model, wealth = lines[1].split(",")
        assert (day, model) == ("2024-04-01", "MV")
        assert float(wealth) == 1.1
        assert float(lines[2].split(",")[2]) == 0.99

    def test_summary_json_keys(self):
        res = result_of(run_of([0.1, -0.1], [1.0, 1.1, 0.99]))
        parsed = json.loads(render_summary_json(res))
        assert list(parsed[0]) == ["model", "final_wealth", "ann_return", "ann_vol", "max_drawdown"]


class TestParseConfig:
    def test_full_file(self):
        text = """
        # comment
        window = 10
        models = MV, EEP_TSV   # inline comment
        t = -0.01
        lambda = 0.05
        nu = 0.002
        ridge = auto
        seed = 3
        """
        cfg = parse_config_text(text)
        assert cfg.window == 10
        assert cfg.models == ("MV", "EEP_TSV")
        assert (cfg.t, cfg.lam, cfg.nu, cfg.ridge, cfg.seed) == (-0.01, 0.05, 0.002, None, 3)

    def test_defaults_when_empty(self):
        assert parse_config_text("# nothing\n") == BacktestConfig()

    def test_numeric_ridge(self):
        assert parse_config_text("ridge = 1e-7\n").ridge == 1e-7

    def test_errors(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config_text("windows = 10\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_config_text("window ten\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_config_text("window = ten\n")


def test_bundled_sample_config_parses():
    import importlib.resources as res

    text = (res.files("wctsv") / "data" / "sample_config.txt").read_text()
    assert parse_config_text(text) == BacktestConfig()
