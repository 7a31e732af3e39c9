"""Seeded synthetic price panel for the ``backtest-wide`` workload.

Same three-factor model as ``scripts/generate_sample_panel.py`` (factor
loadings, small positive drifts, idiosyncratic noise, weekdays only), but
sized by argument and returned as CSV text instead of written into the
package.  The text is a pure function of (seed, rows, assets).
"""

from __future__ import annotations

from datetime import date, timedelta

import numpy as np

START = date(2010, 1, 4)


def weekdays(start: date, count: int) -> list[date]:
    days = []
    d = start
    while len(days) < count:
        if d.weekday() < 5:
            days.append(d)
        d += timedelta(days=1)
    return days


def panel_csv(seed: int, n_days: int, n_assets: int) -> str:
    rng = np.random.default_rng(seed)
    loadings = rng.normal(scale=0.6, size=(n_assets, 3))
    drift = rng.uniform(1e-4, 6e-4, size=n_assets)
    idio = rng.uniform(0.004, 0.009, size=n_assets)
    start_px = rng.uniform(20.0, 80.0, size=n_assets)

    factors = rng.normal(scale=0.006, size=(n_days - 1, 3))
    noise = rng.normal(size=(n_days - 1, n_assets)) * idio
    returns = drift + factors @ loadings.T + noise

    prices = np.empty((n_days, n_assets))
    prices[0] = start_px
    for k in range(1, n_days):
        prices[k] = prices[k - 1] * (1.0 + returns[k - 1])
    if not (prices > 0).all():
        raise ValueError(f"seed {seed} produced a non-positive price")

    tickers = [f"W{i + 1:02d}" for i in range(n_assets)]
    lines = ["date," + ",".join(tickers)]
    for day, row in zip(weekdays(START, n_days), prices):
        lines.append(day.isoformat() + "," + ",".join(f"{px:.6f}" for px in row))
    return "\n".join(lines) + "\n"
