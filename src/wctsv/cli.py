"""Command line front end.

Thin shell over the library: every number printed comes straight from a
library call.  Exit codes: 0 success, 1 domain error (empty set, infeasible
budget, bad matrix), 2 usage or parse error.
"""

from __future__ import annotations

import csv
import importlib.resources
import json
import math
import os
import random
from pathlib import Path

import click

from .backtest import (
    MODEL_ORDER,
    RULES,
    BacktestConfig,
    Day,
    parse_config_text,
    render_summary_json,
    render_wealth_csv,
    run_backtest,
    summarize,
)
from .errors import EmptyUncertaintySet, InfeasibleConstraints, WctsvError
from .frontier import frontier_params, min_variance_portfolio
from .market_data import compute_losses, estimate_moments, load_price_panel
from .oracle import brute_force_worst_case, witness_family  # noqa: F401 (perfbench patches it)
from .worst_case import (
    Family,
    MomentProfile,
    wc_expected_regret,
    wc_target_semivariance,
    wc_target_semivariance_constrained,
)

FAMILY_CHOICE = click.Choice([f.value for f in Family])


class _FiniteFloat(click.ParamType):
    """A float option that rejects nan and +/-inf, which click.FLOAT accepts,
    and with ``positive`` also every value <= 0."""

    name = "float"

    def __init__(self, positive: bool = False) -> None:
        self.positive = positive

    def convert(self, value, param, ctx):
        x = click.FLOAT.convert(value, param, ctx)
        if not math.isfinite(x):
            self.fail(f"{value!r} is not a finite number", param, ctx)
        if self.positive and not x > 0.0:
            self.fail(f"{value!r} is not > 0", param, ctx)
        return x


FINITE_FLOAT = _FiniteFloat()
BUDGET = _FiniteFloat(positive=True)

# tolerances for the verify sweep, relative to sigma^2 + (t-mu)^2: the
# closed form may exceed the oracle's lower value by the slack, and the lower
# value may exceed the closed form, or the closed form the upper value, by
# the overshoot tolerance.  The only members short of the supremum are the
# limit-regime ones built at eps = WITNESS_EPS_LADDER[0] = 1e-12, short by at
# most sqrt(eps) = 1e-6 of the scale (sqrt(eps / 2) for the symmetric
# three-point member), so 1e-5 leaves a factor of ten for rounding.
ORACLE_OVERSHOOT_TOL = 1e-6
ORACLE_SLACK_UNCONSTRAINED = 1e-5
ORACLE_SLACK_CONSTRAINED = 1e-5
# the exact oracle spends no evaluation budget; --budget is still validated
MIN_SEARCH_BUDGET = 10_000
RIDGE_HELP = "auto or none: the automatic ridge 1e-8 * trace / d (none is not 0); or a number >= 0."


def _fail(message: str):
    raise click.ClickException(message)


def _resolve_seed(seed: int) -> int:
    """WCTSV_SEED wins over --seed when both are present."""
    raw = os.environ.get("WCTSV_SEED")
    if raw is None:
        return seed
    try:
        return int(raw)
    except ValueError:
        raise click.UsageError(f"WCTSV_SEED must be an integer, got {raw!r}") from None


def _parse_ridge(text: str) -> float | None:
    low = text.strip().lower()
    if low in ("auto", "none"):
        return None
    try:
        value = float(low)
    except ValueError:
        raise click.UsageError(f"--ridge expects auto, none, or a number, got {text!r}") from None
    if value < 0:
        raise click.UsageError("--ridge must be nonnegative")
    return value


def _load_model(prices: str, window: int | None, ridge: str):
    panel = load_price_panel(prices)
    losses = compute_losses(panel)
    n = losses.losses.shape[0]
    win = n if window is None else window
    return losses, estimate_moments(losses, win, n - 1, ridge=_parse_ridge(ridge))


@click.group()
@click.version_option(package_name="wctsv")
def main() -> None:
    """Worst-case target semi-variance bounds, portfolios, and backtests."""


@main.command("wc")
@click.option("--mu", type=float, required=True, help="Mean loss.")
@click.option(
    "--sigma",
    type=click.FloatRange(min=0, min_open=True),
    required=True,
    help="Loss standard deviation.",
)
@click.option("--t", type=FINITE_FLOAT, required=True, help="Loss threshold.")
@click.option(
    "--lambda",
    "lam",
    type=BUDGET,
    default=None,
    help="Budget on E[(X-t)_-]; only meaningful with --measure tsv.",
)
@click.option("--family", type=FAMILY_CHOICE, default=Family.ARBITRARY.value, show_default=True)
@click.option("--measure", type=click.Choice(["regret", "tsv"]), required=True)
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON object instead of two lines.")
def cmd_wc(mu, sigma, t, lam, family, measure, as_json):
    """Evaluate one worst-case bound and its regime tag."""
    if measure == "regret" and lam is not None:
        raise click.UsageError("--lambda applies only to --measure tsv")
    fam = Family(family)
    try:
        profile = MomentProfile(mu=mu, sigma=sigma)
        if measure == "regret":
            out = wc_expected_regret(profile, t, fam)
        else:
            out = wc_target_semivariance_constrained(profile, t, lam, fam)
    except EmptyUncertaintySet:
        _fail("empty uncertainty set")
    except WctsvError as exc:
        _fail(str(exc))
    if as_json:
        inputs = {
            "mu": mu,
            "sigma": sigma,
            "t": t,
            "lambda": lam,
            "family": family,
            "measure": measure,
        }
        click.echo(json.dumps({"value": out.value, "regime": out.regime, "inputs": inputs}))
    else:
        # repr round-trips exactly, so the printed value is the library value
        click.echo(f"value: {out.value!r}")
        click.echo(f"regime: {out.regime}")


def _parse_grid_spec(text: str):
    ranges = {"mu": (-2.0, 2.0), "sigma": (0.2, 3.0), "tq": (-2.0, 2.0)}
    count = 200
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, val = part.partition("=")
        key = key.strip()
        if not sep:
            raise click.UsageError(f"grid spec entry {part!r} is not key=value")
        if key == "n":
            try:
                count = int(val)
            except ValueError:
                raise click.UsageError(f"grid spec n must be an integer, got {val!r}") from None
            if count < 1:
                raise click.UsageError("grid spec n must be positive")
        elif key in ranges:
            lo, sep2, hi = val.partition(":")
            try:
                bounds = (float(lo), float(hi)) if sep2 else (float(lo), float(lo))
            except ValueError:
                raise click.UsageError(f"grid spec range {part!r} is not lo:hi") from None
            if bounds[0] > bounds[1]:
                raise click.UsageError(f"grid spec range {part!r} is reversed")
            ranges[key] = bounds
        else:
            raise click.UsageError(f"unknown grid spec key {key!r} (expected mu, sigma, tq, n)")
    if ranges["sigma"][0] <= 0:
        raise click.UsageError("grid spec sigma range must stay positive")
    return ranges, count


def _sample_tuple(rng: random.Random, ranges, fam: Family, constrained: bool, index: int):
    """One (mu, sigma, t, lam) draw; constrained draws cycle the three m regimes."""
    mu = rng.uniform(*ranges["mu"])
    sigma = rng.uniform(*ranges["sigma"])
    t = mu + rng.uniform(*ranges["tq"]) * sigma
    if not constrained:
        return mu, sigma, t, None
    u = rng.random()
    regime = index % 3
    s = mu - t
    if regime == 0:
        m = max(s, 0.0) + sigma * (1.0 + u)
    elif regime == 1:
        m = sigma * (0.5 + 0.49 * u)
    else:
        m = sigma * (0.05 + 0.40 * u)
    if s >= m:
        # keep the sigma/m regime, pull t toward mu so the budget stays positive
        t = mu - 0.9 * m
        s = 0.9 * m
    return mu, sigma, t, m - s


@main.command("verify")
@click.option(
    "--grid-spec",
    default="mu=-2:2,sigma=0.2:3,tq=-2:2,n=200",
    show_default=True,
    help="Sampling ranges; t is drawn as mu + tq*sigma.",
)
@click.option("--family", type=FAMILY_CHOICE, default=Family.SYMMETRIC.value, show_default=True)
@click.option(
    "--constrained/--unconstrained",
    default=False,
    help="Verify the budgeted bound; lambda is drawn to cycle the three budget regimes.",
)
@click.option(
    "--budget",
    type=click.IntRange(min=MIN_SEARCH_BUDGET),
    default=20_000,
    show_default=True,
    help="Accepted for compatibility; the exact oracle has no evaluation budget.",
)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), required=True)
def cmd_verify(grid_spec, family, constrained, budget, seed, out):
    """Sweep random profiles and bracket each closed form by the exact oracle.

    Writes one CSV row per tuple as it is computed, so an interrupted run
    still leaves a usable prefix.  Exits 1 if any tuple lands outside the
    declared soundness bounds; the scan always finishes first.
    """
    fam = Family(family)
    ranges, count = _parse_grid_spec(grid_spec)
    if fam is Family.NON_NEGATIVE and ranges["mu"][0] <= 0:
        raise click.UsageError(
            "the nonnegative family needs a positive mu range, e.g. mu=0.1:2"
        )
    seed = _resolve_seed(seed)
    rng = random.Random(seed)
    k = (6 if constrained else 5) if fam is Family.SYMMETRIC else 3
    slack = ORACLE_SLACK_CONSTRAINED if constrained else ORACLE_SLACK_UNCONSTRAINED
    under = over = 0
    with open(out, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["mu", "sigma", "t", "lam", "closed_form", "oracle_value", "upper_value"])
        for index in range(count):
            mu, sigma, t, lam = _sample_tuple(rng, ranges, fam, constrained, index)
            profile = MomentProfile(mu=mu, sigma=sigma)
            closed = wc_target_semivariance_constrained(profile, t, lam, fam).value
            try:
                report = brute_force_worst_case(profile, t, lam, fam, k=k)
                oracle, upper = report.best_value, report.upper_value
            except InfeasibleConstraints:
                oracle = upper = None
            scale = sigma**2 + (t - mu) ** 2
            # a member above the closed form or a closed form above the dual
            # bound refutes it; a member far below it leaves it unconfirmed
            if oracle is None or oracle < closed - slack * scale:
                under += 1
            elif oracle > closed + ORACLE_OVERSHOOT_TOL * scale:
                over += 1
            elif upper is None or upper < closed - ORACLE_OVERSHOOT_TOL * scale:
                under += 1
            writer.writerow(
                ["" if v is None else repr(v) for v in (mu, sigma, t, lam, closed, oracle, upper)]
            )
            handle.flush()
    if over or under:
        hint = ""
        if over >= 3:
            hint = "; systematic oracle-over-closed gaps, check the m = lambda + mu - t convention"
        _fail(f"{over + under} of {count} tuples violate the soundness bounds{hint} (see {out})")
    click.echo(f"{count} tuples within bounds -> {out}")


@main.command("frontier")
@click.option("--prices", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option(
    "--window",
    type=click.IntRange(min=2),
    default=None,
    help="Trailing estimation window (default: every loss row).",
)
@click.option("--ridge", default="auto", show_default=True, help=RIDGE_HELP)
def cmd_frontier(prices, window, ridge):
    """Print frontier coefficients and the minimum-variance portfolio as JSON."""
    try:
        _, model = _load_model(prices, window, ridge)
        fp = frontier_params(model)
        gmv = min_variance_portfolio(fp, model, fp.segment.hi)
    except WctsvError as exc:
        _fail(str(exc))
    payload = {
        "assets": list(model.assets),
        "u": fp.u,
        "v0": fp.v0,
        "v1": fp.v1,
        "v2": fp.v2,
        "gmv": {
            "weights": dict(zip(model.assets, gmv.weights.tolist())),
            "expected_loss": gmv.expected_loss,
            "stdev": gmv.stdev,
        },
    }
    click.echo(json.dumps(payload, indent=2))


@main.command("optimize")
@click.option("--prices", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--model", "model_name", type=click.Choice(MODEL_ORDER), required=True)
@click.option("--t", type=FINITE_FLOAT, default=-0.003, show_default=True, help="Loss threshold.")
@click.option(
    "--lambda",
    "lam",
    type=BUDGET,
    default=0.015,
    show_default=True,
    help="Budget for the EEP rules.",
)
@click.option(
    "--nu", type=FINITE_FLOAT, default=-0.001, show_default=True, help="Expected-loss cap."
)
@click.option("--window", type=click.IntRange(min=2), default=None)
@click.option("--ridge", default="auto", show_default=True, help=RIDGE_HELP)
def cmd_optimize(prices, model_name, t, lam, nu, window, ridge):
    """Solve one portfolio rule on trailing sample moments; print JSON."""
    try:
        _, model = _load_model(prices, window, ridge)
        port = RULES[model_name](Day(model), BacktestConfig(t=t, lam=lam, nu=nu))
    except WctsvError as exc:
        _fail(str(exc))
    payload = {
        "model": model_name,
        "weights": dict(zip(model.assets, port.weights.tolist())),
        "expected_loss": port.expected_loss,
        "stdev": port.stdev,
        "objective": port.objective,
        "regime": port.regime,
    }
    click.echo(json.dumps(payload, indent=2))


@main.command("backtest")
@click.option(
    "--prices",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="Price CSV (default: the bundled sample panel).",
)
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
def cmd_backtest(prices, config_path, out_dir):
    """Run the rolling backtest; write wealth.csv and summary.json under --out."""
    if config_path is None:
        cfg = BacktestConfig()
    else:
        try:
            cfg = parse_config_text(Path(config_path).read_text(encoding="utf-8"))
        except ValueError as exc:
            raise click.UsageError(str(exc)) from None
    try:
        if prices is None:
            sample = importlib.resources.files("wctsv") / "data" / "sample_prices.csv"
            with importlib.resources.as_file(sample) as path:
                panel = load_price_panel(path)
        else:
            panel = load_price_panel(prices)
        result = run_backtest(compute_losses(panel), cfg)
    except WctsvError as exc:
        _fail(str(exc))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "wealth.csv").write_text(render_wealth_csv(result), encoding="utf-8")
    (out / "summary.json").write_text(render_summary_json(result), encoding="utf-8")
    for record in summarize(result):
        click.echo(
            f"{record['model']}: final_wealth={record['final_wealth']:.6f} "
            f"ann_return={record['ann_return']:.6f} ann_vol={record['ann_vol']:.6f} "
            f"max_drawdown={record['max_drawdown']:.6f}"
        )
    click.echo(f"wrote {out / 'wealth.csv'} and {out / 'summary.json'}")
    if result.failures:
        for name, date, message in result.failures:
            click.echo(f"{name} failed on {date}: {message}", err=True)
        raise SystemExit(1)


if __name__ == "__main__":
    main()
