"""The package names the benchmark harness in ``perfbench/`` imports or
patches.  The harness is frozen, so a rename or a move breaks it without
breaking any other test; this one fails first."""

import importlib

import pytest

NAMES = {
    "wctsv.backtest": (
        "BacktestConfig", "render_summary_json", "render_wealth_csv", "run_backtest",
        "estimate_moments", "frontier_params", "classical_mv", "tsv_portfolio",
        "m_tsv_s_portfolio", "eep_tsv_portfolio", "eep_tsv_s_portfolio",
    ),
    "wctsv.simplex": (
        "SIGMA_FLOOR", "wc_target_semivariance_constrained", "project_to_simplex",
    ),
    "wctsv.frontier": ("wc_target_semivariance",),
    "wctsv.cli": (
        "main", "brute_force_worst_case", "witness_family",
        "wc_target_semivariance_constrained", "ORACLE_OVERSHOOT_TOL",
        "ORACLE_SLACK_UNCONSTRAINED", "ORACLE_SLACK_CONSTRAINED",
    ),
    "wctsv.market_data": ("LossPanel", "compute_losses", "load_price_panel"),
    "wctsv.worst_case": (
        "Family", "MomentProfile", "wc_target_semivariance", "wc_target_semivariance_constrained",
    ),
    "wctsv.errors": ("BudgetExhausted", "NoKnownWitness"),
}


@pytest.mark.parametrize("module", sorted(NAMES))
def test_benchmark_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in NAMES[module] if not hasattr(mod, name)] == []
