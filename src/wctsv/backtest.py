"""Rolling-window, daily-rebalanced comparison of the five portfolio rules.

For each out-of-sample day the engine estimates moments from the trailing
window (strictly earlier losses only), solves every requested model, and
compounds wealth multiplicatively from 1.  A model that raises on some day
keeps its partial history and records the dated failure; the other models
continue.  Nothing is skipped silently.

A :class:`Day` holds one estimated model and builds its two frontiers on
first read; :data:`RULES` maps each rule's name to its solver on a ``Day``
and a :class:`BacktestConfig`.  The engine and ``wctsv optimize`` both solve
through that table, so neither knows which rule reads which frontier.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import TooFewRows, WctsvError
from .frontier import (
    FrontierParams,
    MarketModel,
    classical_mv,
    frontier_params,
    m_tsv_s_portfolio,
    tsv_portfolio,
)
from .market_data import LossPanel, estimate_moments
from .simplex import _long_only_frontier, eep_tsv_portfolio, eep_tsv_s_portfolio

__all__ = [
    "MODEL_ORDER",
    "RULES",
    "Day",
    "BacktestConfig",
    "ModelRun",
    "BacktestResult",
    "run_backtest",
    "summarize",
    "render_wealth_csv",
    "render_summary_json",
    "parse_config_text",
]

TRADING_DAYS_PER_YEAR = 252


class Day:
    """One estimated model and its two frontiers, each built on first read.

    ``fp`` is the short-selling frontier.  An error building it
    (:class:`wctsv.DegenerateMeans` on equal means) is kept and raised
    again to every later reader, so it is built at most once and every rule
    that reads it fails alike.  ``chain`` is the lazily walked long-only
    frontier, started from ``fp``'s segment (from ``kappa = 0`` when ``fp``
    failed), so an EEP answer is the one a solver gives on the model alone;
    each rule walks it only as far as its own stop and reuses what an
    earlier rule walked.
    """

    def __init__(self, model: MarketModel) -> None:
        self.model = model
        self._fp: FrontierParams | WctsvError | None = None

    @property
    def fp(self) -> FrontierParams:
        if self._fp is None:
            try:
                self._fp = frontier_params(self.model)
            except WctsvError as exc:
                self._fp = exc
        if isinstance(self._fp, WctsvError):
            raise self._fp
        return self._fp

    @cached_property
    def chain(self):
        try:
            top = self.fp.segment
        except WctsvError:
            top = None
        return _long_only_frontier(self.model, top)


# Each rule's solver on a Day.  The frontiers are read in the argument lists,
# so a frontier is built before the solver is entered, and the solvers are
# looked up by name at call time.
RULES = {
    "MV": lambda day, cfg: classical_mv(day.fp, day.model, cfg.nu),
    "TSV": lambda day, cfg: tsv_portfolio(day.fp, day.model, cfg.t),
    "M_TSV_S": lambda day, cfg: m_tsv_s_portfolio(day.fp, day.model, cfg.nu, cfg.t),
    "EEP_TSV": lambda day, cfg: eep_tsv_portfolio(day.model, cfg.t, cfg.lam, day.chain),
    "EEP_TSV_S": lambda day, cfg: eep_tsv_s_portfolio(day.model, cfg.t, cfg.lam, day.chain),
}
MODEL_ORDER = tuple(RULES)


@dataclass(frozen=True)
class BacktestConfig:
    """Engine settings; defaults follow the package's documented example.

    ``ridge=None`` selects the estimator's automatic diagonal lift.  Every
    solver is exact and deterministic, so a run is a pure function of the
    panel and the other fields; ``seed`` is still accepted, as config files
    and callers carry it, but nothing reads it.
    """

    window: int = 252
    models: tuple[str, ...] = MODEL_ORDER
    t: float = -0.003
    lam: float = 0.015
    nu: float = -0.001
    ridge: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ValueError(f"window must be at least 2, got {self.window}")
        if not (math.isfinite(self.t) and math.isfinite(self.nu)):
            raise ValueError(f"t and nu must be finite, got t={self.t}, nu={self.nu}")
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"lambda must be finite and > 0, got {self.lam}")
        if not self.models:
            raise ValueError("at least one model required")
        unknown = [m for m in self.models if m not in MODEL_ORDER]
        if unknown:
            raise ValueError(
                f"unknown models {unknown}; choose from {', '.join(MODEL_ORDER)}"
            )
        ordered = tuple(m for m in MODEL_ORDER if m in self.models)
        object.__setattr__(self, "models", ordered)


@dataclass(frozen=True, eq=False)
class ModelRun:
    """One model's realized history; ``failure`` is (date, message) or None."""

    model: str
    dates: tuple[str, ...]
    weights: np.ndarray
    returns: np.ndarray
    wealth: np.ndarray
    failure: tuple[str, str] | None = None


@dataclass(frozen=True, eq=False)
class BacktestResult:
    config: BacktestConfig
    tickers: tuple[str, ...]
    oos_dates: tuple[str, ...]
    runs: tuple[ModelRun, ...] = field(default_factory=tuple)

    def run_for(self, model: str) -> ModelRun:
        for run in self.runs:
            if run.model == model:
                return run
        raise KeyError(model)

    @property
    def failures(self) -> tuple[tuple[str, str, str], ...]:
        return tuple(
            (run.model, run.failure[0], run.failure[1])
            for run in self.runs
            if run.failure is not None
        )


def run_backtest(panel: LossPanel, cfg: BacktestConfig) -> BacktestResult:
    """Walk the panel day by day; see the module docstring for semantics.

    Day ``k`` of the out-of-sample range uses moments from the ``window``
    losses ending at ``k - 1``, then realizes return ``-w^T losses[k]``.
    Each day is one :class:`Day`, and each model still running is solved on
    it by :data:`RULES`.  So the short-selling frontier is built at most once
    a day, and the long-only one walked at most once, each only when a model
    that reads it is still running.  Each EEP rule walks that chain, after
    its own checks, only as far as its own stop, and reuses what the other
    already walked; a walk that fails fails every rule that reads past the
    failure, as it would alone.
    """
    n = panel.losses.shape[0]
    if n < cfg.window + 1:
        raise TooFewRows(
            f"need more than {cfg.window} loss rows for one out-of-sample day, have {n}"
        )
    oos = range(cfg.window, n)
    oos_dates = tuple(panel.dates[k] for k in oos)

    histories: dict[str, dict] = {
        name: {"dates": [], "weights": [], "returns": [], "wealth": [1.0], "failure": None}
        for name in cfg.models
    }

    for k in oos:
        alive = [name for name in cfg.models if histories[name]["failure"] is None]
        if not alive:
            break
        date = panel.dates[k]
        try:
            today = Day(estimate_moments(panel, cfg.window, k - 1, cfg.ridge))
        except WctsvError as exc:
            for name in alive:
                histories[name]["failure"] = (date, f"estimation failed: {exc}")
            break
        for name in alive:
            hist = histories[name]
            try:
                pf = RULES[name](today, cfg)
            except WctsvError as exc:
                hist["failure"] = (date, str(exc))
                continue
            ret = -float(pf.weights @ panel.losses[k])
            hist["dates"].append(date)
            hist["weights"].append(np.asarray(pf.weights, dtype=float))
            hist["returns"].append(ret)
            hist["wealth"].append(hist["wealth"][-1] * (1.0 + ret))

    runs = []
    d = panel.losses.shape[1]
    for name in cfg.models:
        hist = histories[name]
        runs.append(
            ModelRun(
                model=name,
                dates=tuple(hist["dates"]),
                weights=(
                    np.vstack(hist["weights"]) if hist["weights"] else np.empty((0, d))
                ),
                returns=np.asarray(hist["returns"]),
                wealth=np.asarray(hist["wealth"]),
                failure=hist["failure"],
            )
        )
    return BacktestResult(
        config=cfg, tickers=panel.tickers, oos_dates=oos_dates, runs=tuple(runs)
    )


def summarize(result: BacktestResult) -> list[dict]:
    """Per-model record: final wealth, annualized return/vol, max drawdown.

    Annualization uses the 252-day convention: mean daily return times 252
    and sample stdev (ddof 1) times sqrt(252).  With fewer than two
    returns the stdev is undefined; it is reported as 0.0 alongside an
    ``ann_vol_flag`` naming the degeneracy.
    """
    if not result.runs:
        raise ValueError("empty backtest result")
    records = []
    for run in result.runs:
        wealth = run.wealth
        returns = run.returns
        peak = np.maximum.accumulate(wealth)
        record = {
            "model": run.model,
            "final_wealth": float(wealth[-1]),
            "ann_return": float(returns.mean() * TRADING_DAYS_PER_YEAR) if returns.size else 0.0,
            "ann_vol": (
                float(returns.std(ddof=1) * math.sqrt(TRADING_DAYS_PER_YEAR))
                if returns.size >= 2
                else 0.0
            ),
            "max_drawdown": float((1.0 - wealth / peak).max()),
        }
        if returns.size == 1:
            record["ann_vol_flag"] = "single-sample"
        elif returns.size == 0:
            record["ann_vol_flag"] = "no-sample"
        records.append(record)
    return records


def render_wealth_csv(result: BacktestResult) -> str:
    """`date,model,wealth` rows, one per completed model-day."""
    lines = ["date,model,wealth"]
    for run in result.runs:
        for day, wealth in zip(run.dates, run.wealth[1:]):
            lines.append(f"{day},{run.model},{wealth:.17g}")
    return "\n".join(lines) + "\n"


def render_summary_json(result: BacktestResult) -> str:
    return json.dumps(summarize(result), indent=2) + "\n"


def parse_config_text(text: str) -> BacktestConfig:
    """Key = value settings with ``#`` comments; unknown keys are errors."""
    values: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {line_no}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        try:
            if key == "window":
                values["window"] = int(val)
            elif key == "models":
                values["models"] = tuple(m.strip() for m in val.split(",") if m.strip())
            elif key == "t":
                values["t"] = float(val)
            elif key == "lambda":
                values["lam"] = float(val)
            elif key == "nu":
                values["nu"] = float(val)
            elif key == "ridge":
                values["ridge"] = None if val.lower() in ("auto", "none") else float(val)
            elif key == "seed":
                values["seed"] = int(val)
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise ValueError(f"config line {line_no}: {exc}") from None
    return BacktestConfig(**values)
