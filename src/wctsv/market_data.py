"""Strict CSV price ingestion, loss computation, and rolling moments.

The input format is deliberately narrow: header ``date,<TICKER>,...``, one
row per trading day, ISO dates, positive decimal prices, no gaps.  Rows
that do not conform are rejected with the offending line number; nothing is
imputed, because a silently patched panel would corrupt the backtest.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import date as _date

import numpy as np

from .errors import (
    NonPositivePrice,
    ParseError,
    TooFewRows,
    UnsortedDates,
    WindowTooLarge,
)
from .frontier import MarketModel, frontier_params

__all__ = [
    "PricePanel",
    "LossPanel",
    "load_price_panel",
    "compute_losses",
    "estimate_moments",
]

DEFAULT_RIDGE_SCALE = 1e-8


@dataclass(frozen=True, eq=False)
class PricePanel:
    """Validated close prices, one row per trading day."""

    dates: tuple[str, ...]
    tickers: tuple[str, ...]
    close: np.ndarray


@dataclass(frozen=True, eq=False)
class LossPanel:
    """Per-period fractional losses ``-(V_next - V) / V``.

    Row k holds the loss realized over (dates[k-1 of prices] -> row date),
    so each row is stamped with the later date: the day the loss became
    known.
    """

    dates: tuple[str, ...]
    tickers: tuple[str, ...]
    losses: np.ndarray


def _parse_date(text: str, line: int) -> str:
    try:
        return _date.fromisoformat(text).isoformat()
    except ValueError as exc:
        raise ParseError(f"bad date {text!r}: {exc}", line=line) from exc


def _csv_rows(path):
    """The file's CSV records; undecodable bytes and malformed CSV (such as
    a cell over the csv module's field limit) raise :class:`ParseError`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"not UTF-8: {exc.reason}", line=line) from exc
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}", line=reader.line_num) from exc


def load_price_panel(path) -> PricePanel:
    """Read and validate a close-price CSV; see the module docstring."""
    reader = _csv_rows(path)
    header = next(reader, None)
    if header is None:
        raise ParseError("empty file", line=1)
    if not header or header[0] != "date":
        raise ParseError("header must start with 'date'", line=1)
    tickers = tuple(h.strip() for h in header[1:])
    if not tickers or any(not t for t in tickers):
        raise ParseError("header needs at least one non-empty ticker", line=1)
    if len(set(tickers)) != len(tickers):
        dupes = sorted({t for t in tickers if tickers.count(t) > 1})
        raise ParseError(f"duplicate ticker columns: {', '.join(dupes)}", line=1)

    dates: list[str] = []
    rows: list[list[float]] = []
    for line_no, row in enumerate(reader, start=2):
        if len(row) != len(tickers) + 1:
            raise ParseError(
                f"expected {len(tickers) + 1} cells, found {len(row)}", line=line_no
            )
        day = _parse_date(row[0].strip(), line_no)
        if dates and day <= dates[-1]:
            raise UnsortedDates(
                f"date {day} does not follow {dates[-1]}", line=line_no
            )
        prices = []
        for ticker, cell in zip(tickers, row[1:]):
            text = cell.strip()
            if not text:
                raise ParseError(f"missing price for {ticker}", line=line_no)
            try:
                value = float(text)
            except ValueError as exc:
                raise ParseError(
                    f"bad price {text!r} for {ticker}", line=line_no
                ) from exc
            if not math.isfinite(value):
                raise ParseError(
                    f"non-finite price {text!r} for {ticker}", line=line_no
                )
            if value <= 0.0:
                raise NonPositivePrice(line=line_no, ticker=ticker)
            prices.append(value)
        dates.append(day)
        rows.append(prices)

    if not rows:
        raise ParseError("no data rows", line=2)
    return PricePanel(dates=tuple(dates), tickers=tickers, close=np.array(rows))


def compute_losses(panel: PricePanel) -> LossPanel:
    """Fractional losses between consecutive rows; a gain is negative."""
    if panel.close.shape[0] < 2:
        raise TooFewRows("need at least two price rows to form one loss")
    prev = panel.close[:-1]
    losses = -(panel.close[1:] - prev) / prev
    return LossPanel(dates=panel.dates[1:], tickers=panel.tickers, losses=losses)


def estimate_moments(
    panel: LossPanel, window: int, end_index: int, ridge: float | None = None
) -> MarketModel:
    """Trailing-window sample moments as a validated :class:`MarketModel`.

    The covariance uses divisor ``window - 1`` and gains ``ridge`` on the
    diagonal; by default ridge is ``1e-8 * trace / d``, enough to lift
    near-singular windows without moving well-conditioned ones.  The model
    is rejected outright when still not positive definite or when the mean
    vector carries no cross-sectional information (proportional to ones).
    """
    n = panel.losses.shape[0]
    if not 0 <= end_index < n:
        raise ValueError(f"end_index {end_index} outside 0..{n - 1}")
    if window < 2:
        raise ValueError(f"window must be at least 2, got {window}")
    if window > end_index + 1:
        raise WindowTooLarge(
            f"window {window} exceeds the {end_index + 1} rows ending at {end_index}"
        )
    if ridge is not None and not ridge >= 0.0:
        raise ValueError(f"ridge must be >= 0, got {ridge}")

    block = panel.losses[end_index - window + 1 : end_index + 1]
    mu = block.mean(axis=0)
    dev = block - mu
    cov = dev.T @ dev / (window - 1)
    d = cov.shape[0]
    if ridge is None:
        ridge = DEFAULT_RIDGE_SCALE * float(np.trace(cov)) / d
    cov = cov + ridge * np.eye(d)
    model = MarketModel(assets=panel.tickers, mu_vec=mu, cov=cov)
    frontier_params(model)  # raises DegenerateMeans; the result stays cached for the caller
    return model
