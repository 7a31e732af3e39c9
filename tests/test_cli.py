import csv
import dataclasses
import json

import numpy as np
import pytest
from click.testing import CliRunner

import wctsv.cli
from wctsv import DegenerateMeans
from wctsv.backtest import MODEL_ORDER
from wctsv.cli import main
from wctsv.frontier import classical_mv, frontier_params, m_tsv_s_portfolio, tsv_portfolio
from wctsv.market_data import compute_losses, estimate_moments, load_price_panel
from wctsv.simplex import eep_tsv_portfolio, eep_tsv_s_portfolio
from wctsv.worst_case import (
    Family,
    MomentProfile,
    wc_expected_regret,
    wc_target_semivariance_constrained,
)


@pytest.fixture
def runner():
    return CliRunner()


def write_prices(path, losses, start_price=100.0):
    losses = np.asarray(losses, dtype=float)
    rows, d = losses.shape
    tickers = [f"T{i}" for i in range(d)]
    prices = np.empty((rows + 1, d))
    prices[0] = start_price
    for k in range(rows):
        prices[k + 1] = prices[k] * (1.0 - losses[k])
    lines = ["date," + ",".join(tickers)]
    for k in range(rows + 1):
        day = f"2024-01-{k + 1:02d}" if k < 30 else f"2024-02-{k - 29:02d}"
        lines.append(day + "," + ",".join(f"{p:.12f}" for p in prices[k]))
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def toy_prices(tmp_path):
    rng = np.random.default_rng(42)
    return write_prices(tmp_path / "prices.csv", rng.normal(1e-4, 0.01, size=(12, 2)))


class TestWc:
    def test_symmetric_tsv_above_mean(self, runner):
        res = runner.invoke(
            main,
            ["wc", "--mu", "0", "--sigma", "1", "--t", "0.5", "--family", "symmetric", "--measure", "tsv"],
        )
        assert res.exit_code == 0
        assert res.output.splitlines() == ["value: 0.5", "regime: t > mu"]

    def test_budget_at_floor_is_zero(self, runner):
        res = runner.invoke(
            main,
            ["wc", "--mu", "0", "--sigma", "1", "--t", "1", "--lambda", "1", "--measure", "tsv"],
        )
        assert res.exit_code == 0
        assert res.output.splitlines()[0] == "value: 0.0"

    def test_budget_below_floor_exits_one(self, runner):
        res = runner.invoke(
            main,
            ["wc", "--mu", "0", "--sigma", "1", "--t", "1", "--lambda", "0.5", "--measure", "tsv"],
        )
        assert res.exit_code == 1
        assert "empty uncertainty set" in res.output

    def test_printed_value_round_trips(self, runner):
        res = runner.invoke(
            main,
            ["wc", "--mu", "0.3", "--sigma", "0.7", "--t", "0.1", "--measure", "regret"],
        )
        want = wc_expected_regret(MomentProfile(0.3, 0.7), 0.1, Family.ARBITRARY)
        printed = float(res.output.splitlines()[0].split(": ")[1])
        assert printed == want.value

    def test_json_shape(self, runner):
        res = runner.invoke(
            main,
            ["wc", "--mu", "0", "--sigma", "1", "--t", "0.5", "--family", "symmetric",
             "--measure", "tsv", "--json"],
        )
        payload = json.loads(res.output)
        assert list(payload) == ["value", "regime", "inputs"]
        assert payload["value"] == 0.5
        assert payload["inputs"]["lambda"] is None
        assert payload["inputs"]["family"] == "symmetric"

    def test_regret_rejects_lambda(self, runner):
        res = runner.invoke(
            main,
            ["wc", "--mu", "0", "--sigma", "1", "--t", "0", "--lambda", "1", "--measure", "regret"],
        )
        assert res.exit_code == 2

    def test_nonpositive_sigma_is_usage_error(self, runner):
        res = runner.invoke(main, ["wc", "--mu", "0", "--sigma", "0", "--t", "0", "--measure", "tsv"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_is_usage_error(self, runner, t):
        res = runner.invoke(
            main,
            ["wc", "--mu", "0", "--sigma", "1", "--t", t, "--measure", "tsv", "--family", "symmetric"],
        )
        assert res.exit_code == 2
        assert "finite" in res.output

    @pytest.mark.parametrize("lam", ["nan", "inf", "0", "-1"])
    def test_bad_budget_is_usage_error(self, runner, lam):
        res = runner.invoke(
            main,
            ["wc", "--mu", "0", "--sigma", "1", "--t", "1", "--lambda", lam, "--measure", "tsv"],
        )
        assert res.exit_code == 2
        assert "finite" in res.output or "> 0" in res.output

    @pytest.mark.parametrize("family,mu,sigma", [
        ("symmetric", "0", "1e160"), ("arbitrary", "1e160", "1"), ("nonnegative", "1e300", "1"),
    ])
    def test_value_beyond_the_floats_is_an_error(self, runner, family, mu, sigma):
        res = runner.invoke(
            main,
            ["wc", "--mu", mu, "--sigma", sigma, "--t", "0", "--measure", "tsv", "--family", family],
        )
        assert res.exit_code == 1
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert res.output.startswith("Error: worst case") and "not finite" in res.output


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


VERIFY_HEADER = ["mu", "sigma", "t", "lam", "closed_form", "oracle_value", "upper_value"]


def assert_bracketed(row, slack):
    closed, oracle = float(row["closed_form"]), float(row["oracle_value"])
    upper = float(row["upper_value"])
    scale = float(row["sigma"]) ** 2 + (float(row["t"]) - float(row["mu"])) ** 2
    assert closed - slack * scale <= oracle <= closed + 1e-6 * scale
    assert closed - 1e-9 * scale <= upper <= closed + 1e-9 * scale


class TestVerify:
    def test_unconstrained_sweep(self, runner, tmp_path):
        out = tmp_path / "report.csv"
        res = runner.invoke(
            main,
            ["verify", "--grid-spec", "n=8", "--budget", "10000", "--seed", "1", "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        rows = read_rows(out)
        assert len(rows) == 8
        assert list(rows[0]) == VERIFY_HEADER
        for row in rows:
            assert row["lam"] == ""
            assert_bracketed(row, 5e-3)
            # repr round-trips, so the row holds the library's exact value
            profile = MomentProfile(float(row["mu"]), float(row["sigma"]))
            closed = wc_target_semivariance_constrained(
                profile, float(row["t"]), None, Family.SYMMETRIC
            ).value
            assert row["closed_form"] == repr(closed)

    def test_constrained_sweep_cycles_regimes(self, runner, tmp_path):
        out = tmp_path / "report.csv"
        res = runner.invoke(
            main,
            ["verify", "--grid-spec", "n=6", "--constrained", "--budget", "10000",
             "--seed", "1", "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        rows = read_rows(out)
        assert len(rows) == 6
        regimes = set()
        for row in rows:
            assert_bracketed(row, 5e-2)
            lam = float(row["lam"])
            assert lam > 0
            m = lam + float(row["mu"]) - float(row["t"])
            sigma = float(row["sigma"])
            regimes.add("a" if sigma <= m else ("b" if sigma <= 2 * m else "c"))
        assert regimes == {"a", "b", "c"}

    def test_corrupt_closed_form_fails_but_writes_all_rows(self, runner, tmp_path, monkeypatch):
        exact = wctsv.cli.wc_target_semivariance_constrained

        def corrupt(profile, t, lam, fam):
            bound = exact(profile, t, lam, fam)
            shift = 0.01 + 0.2 * (profile.sigma**2 + (t - profile.mu) ** 2)
            return dataclasses.replace(bound, value=bound.value + shift)

        monkeypatch.setattr(wctsv.cli, "wc_target_semivariance_constrained", corrupt)
        out = tmp_path / "report.csv"
        res = runner.invoke(
            main,
            ["verify", "--grid-spec", "n=5", "--budget", "10000", "--seed", "1", "--out", str(out)],
        )
        assert res.exit_code == 1
        assert "violate" in res.output
        assert len(read_rows(out)) == 5

    def test_budget_zero_is_usage_error(self, runner, tmp_path):
        res = runner.invoke(main, ["verify", "--budget", "0", "--out", str(tmp_path / "r.csv")])
        assert res.exit_code == 2

    def test_same_seed_byte_identical(self, runner, tmp_path):
        args = ["verify", "--grid-spec", "n=4", "--budget", "10000", "--seed", "9"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert runner.invoke(main, args + ["--out", str(a)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(b)]).exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_overrides_flag(self, runner, tmp_path):
        base = ["verify", "--grid-spec", "n=3", "--budget", "10000"]
        flag2 = tmp_path / "flag2.csv"
        env2 = tmp_path / "env2.csv"
        runner.invoke(main, base + ["--seed", "2", "--out", str(flag2)])
        res = runner.invoke(
            main, base + ["--seed", "1", "--out", str(env2)], env={"WCTSV_SEED": "2"}
        )
        assert res.exit_code == 0, res.output
        assert env2.read_bytes() == flag2.read_bytes()

    def test_bad_env_seed_is_usage_error(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["verify", "--grid-spec", "n=3", "--out", str(tmp_path / "r.csv")],
            env={"WCTSV_SEED": "not-a-number"},
        )
        assert res.exit_code == 2

    @pytest.mark.parametrize(
        "spec",
        ["sigma=-1:2", "mu=2:-2", "n=0", "bogus=1:2", "mu=1:x"],
    )
    def test_bad_grid_specs(self, runner, tmp_path, spec):
        res = runner.invoke(main, ["verify", "--grid-spec", spec, "--out", str(tmp_path / "r.csv")])
        assert res.exit_code == 2

    def test_nonnegative_needs_positive_mu_range(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["verify", "--family", "nonnegative", "--out", str(tmp_path / "r.csv")],
        )
        assert res.exit_code == 2
        ok = runner.invoke(
            main,
            ["verify", "--family", "nonnegative", "--grid-spec", "mu=0.3:2,n=4",
             "--budget", "10000", "--out", str(tmp_path / "nn.csv")],
        )
        assert ok.exit_code == 0, ok.output
        for row in read_rows(tmp_path / "nn.csv"):
            assert_bracketed(row, 5e-3)

    def test_constrained_seed_8_brackets_every_tuple(self, runner, tmp_path):
        # the old search found no feasible member for one of these tuples
        out = tmp_path / "seed8.csv"
        res = runner.invoke(main, ["verify", "--constrained", "--seed", "8", "--out", str(out)])
        assert res.exit_code == 0, res.output
        rows = read_rows(out)
        assert len(rows) == 200
        assert all(row["oracle_value"] and row["upper_value"] for row in rows)


class TestFrontierCmd:
    def test_matches_library_composition(self, runner, toy_prices):
        res = runner.invoke(main, ["frontier", "--prices", str(toy_prices)])
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        losses = compute_losses(load_price_panel(toy_prices))
        n = losses.losses.shape[0]
        fp = frontier_params(estimate_moments(losses, n, n - 1))
        assert payload["u"] == fp.u
        assert (payload["v0"], payload["v1"], payload["v2"]) == (fp.v0, fp.v1, fp.v2)
        assert payload["assets"] == ["T0", "T1"]
        weights = list(payload["gmv"]["weights"].values())
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)

    def test_missing_file(self, runner):
        assert runner.invoke(main, ["frontier", "--prices", "/no/such.csv"]).exit_code == 2


class TestOptimizeCmd:
    def test_mv_matches_library(self, runner, toy_prices):
        res = runner.invoke(
            main, ["optimize", "--prices", str(toy_prices), "--model", "MV", "--nu", "0.001"]
        )
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        losses = compute_losses(load_price_panel(toy_prices))
        n = losses.losses.shape[0]
        model = estimate_moments(losses, n, n - 1)
        want = classical_mv(frontier_params(model), model, 0.001)
        assert list(payload["weights"].values()) == want.weights.tolist()
        assert payload["objective"] == want.objective
        assert payload["regime"] == want.regime

    @pytest.mark.parametrize("name", MODEL_ORDER)
    def test_every_rule_matches_its_solver(self, runner, toy_prices, name):
        t, lam, nu = -0.002, 0.01, 0.0005
        res = runner.invoke(
            main,
            ["optimize", "--prices", str(toy_prices), "--model", name,
             "--t", repr(t), "--lambda", repr(lam), "--nu", repr(nu)],
        )
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        losses = compute_losses(load_price_panel(toy_prices))
        n = losses.losses.shape[0]
        model = estimate_moments(losses, n, n - 1)
        solve = {
            "MV": lambda: classical_mv(frontier_params(model), model, nu),
            "TSV": lambda: tsv_portfolio(frontier_params(model), model, t),
            "M_TSV_S": lambda: m_tsv_s_portfolio(frontier_params(model), model, nu, t),
            "EEP_TSV": lambda: eep_tsv_portfolio(model, t, lam),
            "EEP_TSV_S": lambda: eep_tsv_s_portfolio(model, t, lam),
        }
        want = solve[name]()
        assert payload["model"] == name
        assert list(payload["weights"]) == list(model.assets)
        assert list(payload["weights"].values()) == want.weights.tolist()
        assert payload["objective"] == want.objective
        assert payload["regime"] == want.regime

    def test_equal_means_fail_only_the_short_selling_rules(self, runner, tmp_path):
        # constant prices: every mean is 0, so the short-selling frontier does
        # not exist, while the long-only rules still answer
        prices = write_prices(tmp_path / "flat.csv", np.zeros((12, 2)))
        losses = compute_losses(load_price_panel(prices))
        with pytest.raises(DegenerateMeans) as exc:
            frontier_params(estimate_moments(losses, 12, 11, ridge=1e-8))
        base = ["optimize", "--prices", str(prices), "--ridge", "1e-8", "--model"]
        res = runner.invoke(main, base + ["MV"])
        assert res.exit_code == 1
        assert str(exc.value) in res.output
        res = runner.invoke(main, base + ["EEP_TSV"])
        assert res.exit_code == 0, res.output
        assert list(json.loads(res.output)["weights"].values()) == [0.5, 0.5]

    def test_infeasible_budget_exits_one(self, runner, toy_prices):
        res = runner.invoke(
            main,
            ["optimize", "--prices", str(toy_prices), "--model", "EEP_TSV",
             "--t", "0.5", "--lambda", "1e-9"],
        )
        assert res.exit_code == 1
        assert "Error" in res.output

    @pytest.mark.parametrize("model", ["EEP_TSV", "EEP_TSV_S"])
    @pytest.mark.parametrize("lam", ["nan", "inf", "0"])
    def test_bad_budget_is_usage_error(self, runner, toy_prices, model, lam):
        res = runner.invoke(
            main, ["optimize", "--prices", str(toy_prices), "--model", model, "--lambda", lam]
        )
        assert res.exit_code == 2
        assert "--lambda" in res.output


class TestBacktestCmd:
    def test_writes_outputs(self, runner, tmp_path):
        rng = np.random.default_rng(3)
        prices = write_prices(tmp_path / "p.csv", rng.normal(1e-4, 0.01, size=(14, 3)))
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("window = 8\nmodels = MV, TSV\nnu = 0.001\n")
        out = tmp_path / "out"
        res = runner.invoke(
            main,
            ["backtest", "--prices", str(prices), "--config", str(cfg), "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        wealth = (out / "wealth.csv").read_text().strip().splitlines()
        assert wealth[0] == "date,model,wealth"
        assert len(wealth) == 1 + 6 * 2  # 14 loss rows, window 8 -> 6 oos days x 2 models
        summary = json.loads((out / "summary.json").read_text())
        assert [rec["model"] for rec in summary] == ["MV", "TSV"]

    def test_model_failure_exits_one(self, runner, tmp_path):
        rng = np.random.default_rng(4)
        prices = write_prices(tmp_path / "p.csv", rng.normal(1e-4, 0.01, size=(12, 3)))
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("window = 8\nmodels = EEP_TSV\nt = 0.5\nlambda = 1e-9\n")
        res = runner.invoke(
            main,
            ["backtest", "--prices", str(prices), "--config", str(cfg),
             "--out", str(tmp_path / "out")],
        )
        assert res.exit_code == 1
        assert "failed on" in res.output

    def test_overflowing_price_ratio_is_an_input_error(self, runner, tmp_path):
        prices = tmp_path / "p.csv"
        prices.write_text(
            "date,A,B\n2024-01-01,1e-300,1.0\n2024-01-02,1e300,1.1\n"
            "2024-01-03,1e300,1.2\n2024-01-04,1e300,1.3\n2024-01-05,1e300,1.4\n"
        )
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("window = 3\n")
        res = runner.invoke(
            main,
            ["backtest", "--prices", str(prices), "--config", str(cfg),
             "--out", str(tmp_path / "out")],
        )
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)  # reported, not a traceback
        assert "line 3: loss for A on 2024-01-02 is not finite" in res.output

    def test_config_parse_error_is_usage_error(self, runner, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("not a config\n")
        res = runner.invoke(main, ["backtest", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert "line 1" in res.output

    def test_missing_prices_exits_two(self, runner, tmp_path):
        res = runner.invoke(
            main, ["backtest", "--prices", "/no/such.csv", "--out", str(tmp_path / "o")]
        )
        assert res.exit_code == 2
