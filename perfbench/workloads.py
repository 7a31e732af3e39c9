"""The three benchmark workloads and their correctness gates.

Each workload has

* ``setup_round()``: load its inputs and run one warm-up op, returning the
  load time; run several times so set-up time is a median;
* ``instrument(probe)``: install the wrappers for a measuring phase (op
  boundaries and solver capture always; spans when the probe carries a
  recorder) and return the :class:`~spans.Patches` that undo them;
* ``run_pass(probe)``: one timed pass of the user-level command, followed
  by the gates on its outputs (outside the timed part).

An op is one out-of-sample day with every configured model solved
(backtests) or one verified tuple (``verify``).  Op boundaries come from
one timestamp per call into the function the engine calls once per op:
``estimate_moments`` in the backtest engine, the closed form in
``verify``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

import click
import numpy as np

import wctsv.backtest
import wctsv.cli
import wctsv.frontier
import wctsv.simplex
from wctsv.backtest import BacktestConfig, render_summary_json, render_wealth_csv, run_backtest
from wctsv.errors import BudgetExhausted, NoKnownWitness
from wctsv.market_data import LossPanel, compute_losses, load_price_panel
from wctsv.worst_case import (
    Family,
    MomentProfile,
    wc_target_semivariance,
    wc_target_semivariance_constrained,
)

from calibrate import SpeedClock
from spans import Patches, Recorder

WEIGHT_SUM_TOL = 1e-10
LONG_ONLY_TOL = 1e-12
WEALTH_RTOL = 1e-12
OBJECTIVE_RTOL = 1e-9
# EEP_TSV_S evaluates its objective with sigma clamped at this floor
SIGMA_FLOOR = wctsv.simplex.SIGMA_FLOOR

VERIFY_RANGES = "mu=-2:2,sigma=0.2:3,tq=-2:2"  # the CLI's default ranges
VERIFY_TUPLES = 200
VERIFY_BUDGET = 20_000
VERIFY_MODES = ("--unconstrained", "--constrained")


class Probe:
    """What the always-on wrappers collect during one pass.

    Ops are delimited by :meth:`boundary` (called where the engine starts
    an op) and :meth:`end_ops` (called when the engine returns).  Between
    ops the speed clock takes its samples, outside every op.
    """

    def __init__(self, clock: SpeedClock, rec: Recorder | None) -> None:
        self.clock = clock
        self.rec = rec
        self.op_starts: list[int] = []
        self.op_ends: list[int] = []
        self.models: list = []
        self.solves: list = []  # (op index, model name, Portfolio)

    def reset(self) -> None:
        # new lists: the previous pass's outcome keeps its own
        self.op_starts = []
        self.op_ends = []
        self.models.clear()
        self.solves.clear()

    def end_ops(self) -> None:
        if len(self.op_ends) < len(self.op_starts):
            self.op_ends.append(perf_counter_ns())

    def boundary(self, op_name: str) -> None:
        self.end_ops()
        rec = self.rec
        if rec is not None:
            rec.end_op()
        if self.clock.due():
            if rec is not None:
                rec.open("bench.calibrate")
            self.clock.sample()
            if rec is not None:
                rec.close()
        if rec is not None:
            rec.begin_op(op_name)
        self.op_starts.append(perf_counter_ns())


@dataclass
class PassOutcome:
    """One pass: timed segments, op intervals, gate results."""

    segments: list[tuple[int, int]]
    op_starts: list[int]
    op_ends: list[int]
    attempted: int
    failed: int
    output: bytes
    errors: list[str]  # wrong outputs: the run is not correct
    notes: list[str]  # failed ops: counted, the run stays correct
    quality_sum: float = 0.0
    quality_count: int = 0


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


# -- backtests -----------------------------------------------------------------

SOLVER_LAYERS = {
    "classical_mv": "frontier",
    "tsv_portfolio": "frontier",
    "m_tsv_s_portfolio": "frontier",
    "eep_tsv_portfolio": "simplex",
    "eep_tsv_s_portfolio": "simplex",
}
SOLVER_MODELS = {
    "classical_mv": "MV",
    "tsv_portfolio": "TSV",
    "m_tsv_s_portfolio": "M_TSV_S",
    "eep_tsv_portfolio": "EEP_TSV",
    "eep_tsv_s_portfolio": "EEP_TSV_S",
}


def objective_from_weights(model_name: str, w, market, cfg: BacktestConfig) -> float:
    """The model's objective recomputed from its weights by the closed forms."""
    xi = float(w @ market.mu_vec)
    var = float(w @ market.cov @ w)
    sigma = math.sqrt(max(var, 0.0))
    if model_name == "MV":
        return var
    if model_name == "TSV":
        return wc_target_semivariance(MomentProfile(xi, sigma), cfg.t, Family.ARBITRARY).value
    if model_name == "M_TSV_S":
        return wc_target_semivariance(MomentProfile(xi, sigma), cfg.t, Family.SYMMETRIC).value
    if model_name == "EEP_TSV":
        profile = MomentProfile(xi, sigma)
        return wc_target_semivariance_constrained(profile, cfg.t, cfg.lam, Family.ARBITRARY).value
    profile = MomentProfile(xi, max(sigma, SIGMA_FLOOR))
    return wc_target_semivariance_constrained(profile, cfg.t, cfg.lam, Family.SYMMETRIC).value


def check_backtest(result, probe: Probe, losses: np.ndarray, cfg: BacktestConfig):
    """Gate one pass.

    Returns (errors, objective sum, model-days, failed ops), where a failed
    op is a day on which some configured model has no solution.
    """
    errors: list[str] = []
    n_oos = len(result.oos_dates)
    by_model: dict[str, list] = {name: [] for name in cfg.models}
    for op, name, pf in probe.solves:
        by_model[name].append((op, pf))
    objective_sum, model_days = 0.0, 0
    for run in result.runs:
        days = len(run.dates)
        if days and not np.all(np.abs(run.weights.sum(axis=1) - 1.0) <= WEIGHT_SUM_TOL):
            errors.append(f"{run.model}: weights do not sum to 1")
        if run.model.startswith("EEP") and days and run.weights.min() < -LONG_ONLY_TOL:
            errors.append(f"{run.model}: negative long-only weight {run.weights.min():.3e}")
        realized = [-float(w @ row) for w, row in zip(run.weights, losses[cfg.window :])]
        if realized != run.returns.tolist():
            errors.append(f"{run.model}: returns differ from -w^T loss")
        expected_wealth = np.concatenate([[1.0], np.cumprod(1.0 + run.returns)])
        if run.wealth[0] != 1.0 or not np.allclose(
            run.wealth, expected_wealth, rtol=WEALTH_RTOL, atol=0.0
        ):
            errors.append(f"{run.model}: wealth is not the cumulative product of returns")
        solved = by_model[run.model]
        if len(solved) != days:
            errors.append(f"{run.model}: {len(solved)} captured solves for {days} days")
            continue
        for i, (op, pf) in enumerate(solved):
            if not np.array_equal(pf.weights, run.weights[i]):
                errors.append(f"{run.model} day {i}: reported weights differ from history")
                break
            ref = objective_from_weights(run.model, pf.weights, probe.models[op], cfg)
            if not _close(pf.objective, ref, OBJECTIVE_RTOL):
                errors.append(
                    f"{run.model} day {i}: objective {pf.objective!r} vs closed form {ref!r}"
                )
                break
            objective_sum += pf.objective
            model_days += 1
    solved_days = min((len(run.dates) for run in result.runs), default=0)
    return errors, objective_sum, model_days, n_oos - solved_days


class BacktestWorkload:
    """``load_price_panel -> compute_losses -> run_backtest -> render``."""

    def __init__(self, csv_path: Path, cfg: BacktestConfig) -> None:
        self.csv_path = csv_path
        self.cfg = cfg
        self.losses: LossPanel | None = None
        self.run_backtest = run_backtest
        self.render_wealth_csv = render_wealth_csv
        self.render_summary_json = render_summary_json

    def setup_round(self) -> float:
        start = perf_counter_ns()
        panel = load_price_panel(self.csv_path)
        load_ns = perf_counter_ns() - start
        losses = compute_losses(panel)
        first = self.cfg.window + 1
        warm = LossPanel(losses.dates[:first], losses.tickers, losses.losses[:first])
        run_backtest(warm, self.cfg)
        self.losses = losses
        return load_ns / 1e9

    def instrument(self, probe: Probe) -> Patches:
        patches = Patches()
        module = wctsv.backtest
        rec = probe.rec

        estimate = module.estimate_moments
        if rec is not None:
            estimate = rec.span_wrapper("market_data.estimate_moments", estimate)

        def op_boundary(*args, **kwargs):
            probe.boundary("backtest.day")
            market = estimate(*args, **kwargs)
            probe.models.append(market)
            return market

        patches.set(module, "estimate_moments", op_boundary)

        for fn_name, model_name in SOLVER_MODELS.items():
            solver = getattr(module, fn_name)
            if rec is not None:
                solver = rec.span_wrapper(f"{SOLVER_LAYERS[fn_name]}.{fn_name}", solver)
            patches.set(module, fn_name, _capture(probe, model_name, solver))

        if rec is not None:
            patches.set(
                module, "frontier_params",
                rec.span_wrapper("frontier.frontier_params", module.frontier_params),
            )
            for owner, attr, leaf in (
                (wctsv.simplex, "wc_target_semivariance_constrained",
                 "worst_case.wc_target_semivariance_constrained"),
                (wctsv.simplex, "project_to_simplex", "simplex.project_to_simplex"),
                (wctsv.frontier, "wc_target_semivariance", "worst_case.wc_target_semivariance"),
            ):
                patches.set(owner, attr, rec.leaf_wrapper(leaf, getattr(owner, attr)))
            patches.set(
                self, "run_backtest",
                rec.span_wrapper("backtest.engine", self.run_backtest, ends_ops=True),
            )
            patches.set(
                self, "render_wealth_csv",
                rec.span_wrapper("backtest.render", self.render_wealth_csv),
            )
            patches.set(
                self, "render_summary_json",
                rec.span_wrapper("backtest.render", self.render_summary_json),
            )
        return patches

    def run_pass(self, probe: Probe) -> PassOutcome:
        start = perf_counter_ns()
        try:
            result = self.run_backtest(self.losses, self.cfg)
            probe.end_ops()
            output = (self.render_wealth_csv(result) + self.render_summary_json(result)).encode()
        except Exception:
            probe.end_ops()
            end = perf_counter_ns()
            attempted = self.losses.losses.shape[0] - self.cfg.window
            return PassOutcome(
                [(start, end)], probe.op_starts, probe.op_ends, attempted, attempted, b"",
                ["backtest raised:\n" + traceback.format_exc()], [],
            )
        end = perf_counter_ns()
        errors, objective_sum, model_days, failed = check_backtest(
            result, probe, self.losses.losses, self.cfg
        )
        return PassOutcome(
            segments=[(start, end)],
            op_starts=probe.op_starts,
            op_ends=probe.op_ends,
            attempted=len(result.oos_dates),
            failed=failed,
            output=output,
            errors=errors,
            notes=[f"{name} failed on {day}: {msg}" for name, day, msg in result.failures],
            quality_sum=objective_sum,
            quality_count=model_days,
        )


def _capture(probe: Probe, model_name: str, solver):
    def wrapper(*args, **kwargs):
        pf = solver(*args, **kwargs)
        probe.solves.append((len(probe.models) - 1, model_name, pf))
        return pf

    return wrapper


# -- verify --------------------------------------------------------------------


def check_sweep(text: str, constrained: bool):
    """Gate one sweep CSV.

    Returns (errors, rows outside the bracket, rows without an oracle
    value, rows, sum over rows with an oracle value of their gaps
    (closed - oracle) / (sigma^2 + (t - mu)^2)).  A row outside the
    bracket is a wrong output; a row without an oracle value (the search
    found no feasible candidate) is a failed op, not a wrong output.
    """
    errors: list[str] = []
    slack = (
        wctsv.cli.ORACLE_SLACK_CONSTRAINED if constrained else wctsv.cli.ORACLE_SLACK_UNCONSTRAINED
    )
    rows = list(csv.DictReader(io.StringIO(text)))
    outside = missing = 0
    gap_sum = 0.0
    for i, row in enumerate(rows):
        mu, sigma, t = float(row["mu"]), float(row["sigma"]), float(row["t"])
        lam = float(row["lam"]) if row["lam"] else None
        if constrained != (lam is not None):
            errors.append(f"row {i}: lambda column does not match the sweep mode")
        closed = float(row["closed_form"])
        library = wc_target_semivariance_constrained(
            MomentProfile(mu, sigma), t, lam, Family.SYMMETRIC
        ).value
        if closed != library:
            errors.append(f"row {i}: closed_form {closed!r} differs from library {library!r}")
        scale = sigma**2 + (t - mu) ** 2
        if not row["oracle_value"]:
            missing += 1
            continue
        oracle = float(row["oracle_value"])
        if not closed - slack * scale <= oracle <= closed + wctsv.cli.ORACLE_OVERSHOOT_TOL * scale:
            outside += 1
        gap_sum += (closed - oracle) / scale
    return errors, outside, missing, len(rows), gap_sum


class VerifyWorkload:
    """``wctsv verify`` on the symmetric family, unconstrained then constrained."""

    def __init__(self, work_dir: Path, seed: int) -> None:
        self.work_dir = work_dir
        self.seed = seed
        self.invoke = self._invoke

    def _args(self, mode: str, grid: str, out: Path) -> list[str]:
        return [
            "verify", "--family", "symmetric", mode, "--budget", str(VERIFY_BUDGET),
            "--seed", str(self.seed), "--grid-spec", grid, "--out", str(out),
        ]

    @staticmethod
    def _invoke(args: list[str]) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            wctsv.cli.main.main(args=args, prog_name="wctsv", standalone_mode=False)

    def setup_round(self) -> float:
        out = self.work_dir / "verify-warmup.csv"
        self._invoke(self._args(VERIFY_MODES[0], f"{VERIFY_RANGES},n=1", out))
        out.unlink()
        return 0.0

    def instrument(self, probe: Probe) -> Patches:
        patches = Patches()
        module = wctsv.cli
        rec = probe.rec
        closed_form = module.wc_target_semivariance_constrained
        if rec is not None:
            closed_form = rec.leaf_wrapper(
                "worst_case.wc_target_semivariance_constrained", closed_form
            )

        def op_boundary(*args, **kwargs):
            probe.boundary("cli.tuple")
            return closed_form(*args, **kwargs)

        patches.set(module, "wc_target_semivariance_constrained", op_boundary)
        if rec is None:
            return patches

        def evaluations(report) -> None:
            rec.count("oracle.evaluations", report.evaluations)

        def exhausted(exc) -> None:
            if isinstance(exc, BudgetExhausted):
                rec.count("oracle.budget_exhausted")

        searchers = {
            k: rec.span_wrapper(f"oracle.k{k}", module.brute_force_worst_case,
                                on_result=evaluations, on_error=exhausted)
            for k in (5, 6)
        }

        def oracle(*args, **kwargs):
            return searchers[kwargs["k"]](*args, **kwargs)

        def no_witness(exc) -> None:
            if isinstance(exc, NoKnownWitness):
                rec.count("oracle.witness.no_witness")

        patches.set(module, "brute_force_worst_case", oracle)
        patches.set(
            module, "witness_family",
            rec.span_wrapper("oracle.witness", module.witness_family, on_error=no_witness),
        )
        patches.set(self, "invoke", rec.span_wrapper("cli.verify", self.invoke, ends_ops=True))
        return patches

    def run_pass(self, probe: Probe) -> PassOutcome:
        segments = []
        attempted = failed = quality_count = 0
        quality_sum = 0.0
        errors: list[str] = []
        notes: list[str] = []
        output = b""
        for mode in VERIFY_MODES:
            out = self.work_dir / f"verify{mode[1:]}.csv"
            start = perf_counter_ns()
            try:
                self.invoke(self._args(mode, f"{VERIFY_RANGES},n={VERIFY_TUPLES}", out))
                problem = None
            except click.ClickException as exc:
                problem = f"verify {mode} failed: {exc.format_message()}"
            except Exception:
                problem = f"verify {mode} raised:\n" + traceback.format_exc()
            probe.end_ops()
            segments.append((start, perf_counter_ns()))
            text = out.read_text(encoding="utf-8") if out.exists() else ""
            output += text.encode()
            sweep_errors, outside, missing, rows, gap_sum = check_sweep(
                text, mode == "--constrained"
            )
            errors += sweep_errors
            if outside:
                errors.append(f"verify {mode}: {outside} rows outside the soundness bracket")
            if missing:
                notes.append(f"verify {mode}: {missing} tuples without an oracle value")
            if rows != VERIFY_TUPLES:
                errors.append(f"verify {mode}: {rows} rows written, expected {VERIFY_TUPLES}")
            if problem is not None and not (outside or missing):
                errors.append(problem)
            attempted += VERIFY_TUPLES
            failed += outside + missing + max(VERIFY_TUPLES - rows, 0)
            quality_sum += gap_sum
            quality_count += rows - missing
        return PassOutcome(
            segments, probe.op_starts, probe.op_ends, attempted, failed, output, errors,
            notes, quality_sum, quality_count,
        )

