import importlib.resources
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import wctsv.frontier
from wctsv import (
    NonPositivePrice,
    NotPositiveDefinite,
    ParseError,
    TooFewRows,
    UnsortedDates,
    WctsvError,
    WindowTooLarge,
)
from wctsv.backtest import BacktestConfig, run_backtest
from wctsv.frontier import MarketModel
from wctsv.market_data import (
    LossPanel,
    compute_losses,
    estimate_moments,
    load_price_panel,
)


def write_csv(tmp_path, text, name="prices.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


GOOD = """date,AAA,BBB
2024-01-02,100.0,50.0
2024-01-03,110.0,45.0
2024-01-04,110.0,54.0
"""


class TestLoadPricePanel:
    def test_loads_valid_panel(self, tmp_path):
        panel = load_price_panel(write_csv(tmp_path, GOOD))
        assert panel.tickers == ("AAA", "BBB")
        assert panel.dates == ("2024-01-02", "2024-01-03", "2024-01-04")
        np.testing.assert_array_equal(panel.close[0], [100.0, 50.0])

    def test_two_row_minimum_panel(self, tmp_path):
        panel = load_price_panel(write_csv(tmp_path, "date,A\n2024-01-02,100\n2024-01-03,110\n"))
        assert panel.close.shape == (2, 1)

    def test_unsorted_dates(self, tmp_path):
        bad = "date,A\n2024-01-03,100\n2024-01-02,110\n"
        with pytest.raises(UnsortedDates) as exc:
            load_price_panel(write_csv(tmp_path, bad))
        assert exc.value.line == 3

    def test_duplicate_date_rejected(self, tmp_path):
        bad = "date,A\n2024-01-03,100\n2024-01-03,110\n"
        with pytest.raises(UnsortedDates):
            load_price_panel(write_csv(tmp_path, bad))

    def test_zero_price(self, tmp_path):
        bad = "date,A,B\n2024-01-02,100,0\n"
        with pytest.raises(NonPositivePrice) as exc:
            load_price_panel(write_csv(tmp_path, bad))
        assert exc.value.line == 2
        assert exc.value.ticker == "B"

    def test_negative_price(self, tmp_path):
        with pytest.raises(NonPositivePrice):
            load_price_panel(write_csv(tmp_path, "date,A\n2024-01-02,-5\n"))

    @pytest.mark.parametrize(
        "body,line",
        [
            ("date,A\n2024-01-02,100,7\n", 2),       # extra cell
            ("date,A,B\n2024-01-02,100\n", 2),        # missing cell
            ("date,A,B\n2024-01-02,100,\n", 2),       # empty cell
            ("date,A\n2024-01-02,abc\n", 2),          # non-numeric
            ("date,A\n2024-01-02,inf\n", 2),          # non-finite
            ("date,A\n01/02/2024,100\n", 2),          # bad date format
            ("date,A\n", 2),                          # no data rows
            ("date,A,A\n2024-01-02,1,2\n", 1),        # duplicate ticker
            ("date,\n2024-01-02,1\n", 1),             # empty ticker
            ("time,A\n2024-01-02,1\n", 1),            # wrong header
            ("", 1),                                  # empty file
        ],
    )
    def test_malformed_inputs(self, tmp_path, body, line):
        with pytest.raises(ParseError) as exc:
            load_price_panel(write_csv(tmp_path, body))
        assert exc.value.line == line

    def test_error_message_carries_line(self, tmp_path):
        with pytest.raises(ParseError, match="line 2"):
            load_price_panel(write_csv(tmp_path, "date,A\n2024-01-02,abc\n"))

    def test_invalid_utf8(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_bytes(b"date,A\n2024-01-02,100\n2024-01-03,1\xff0\n")
        with pytest.raises(ParseError) as exc:
            load_price_panel(path)
        assert exc.value.line == 3

    def test_cell_over_csv_field_limit(self, tmp_path):
        body = "date,A\n2024-01-02," + "1" * 200_000 + "\n"
        with pytest.raises(ParseError) as exc:
            load_price_panel(write_csv(tmp_path, body))
        assert exc.value.line == 2


DATE_CELLS = st.sampled_from(["2024-01-02", "2024-01-03", "2024-01-04", "2024-13-01", ""])
PRICE_CELLS = st.sampled_from(["100", "1e3", "0.5", "-1", "0", "nan", "", '"7"', "x"])


@st.composite
def csv_like(draw):
    """Header plus rows built from valid and invalid cells, some of them a valid panel."""
    n = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(DATE_CELLS, st.lists(PRICE_CELLS, min_size=n, max_size=n)),
                         min_size=1, max_size=4))
    lines = ["date," + ",".join("ABC"[:n])] + [",".join([d, *ps]) for d, ps in rows]
    return ("\n".join(lines) + "\n").encode()


@given(st.binary(max_size=300) | csv_like() | st.tuples(csv_like(), st.binary()).map(b"".join))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_arbitrary_bytes_give_a_valid_panel_or_wctsv_error(tmp_path, data):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(data)
    try:
        panel = load_price_panel(path)
    except WctsvError:
        return
    assert panel.close.shape == (len(panel.dates), len(panel.tickers))
    assert np.isfinite(panel.close).all() and (panel.close > 0.0).all()
    assert all(a < b for a, b in zip(panel.dates, panel.dates[1:]))


class TestComputeLosses:
    def test_formula(self, tmp_path):
        text = "date,A\n2024-01-02,100\n2024-01-03,110\n2024-01-04,99\n2024-01-05,99\n"
        lp = compute_losses(load_price_panel(write_csv(tmp_path, text)))
        np.testing.assert_allclose(lp.losses[:, 0], [-0.10, 0.10, 0.0], atol=1e-15)
        # each loss is stamped with the day it is realized
        assert lp.dates == ("2024-01-03", "2024-01-04", "2024-01-05")

    def test_too_few_rows(self, tmp_path):
        panel = load_price_panel(write_csv(tmp_path, "date,A\n2024-01-02,100\n"))
        with pytest.raises(TooFewRows):
            compute_losses(panel)

    def test_overflowing_price_ratio_is_rejected_with_its_line(self, tmp_path):
        text = "date,A,B\n2024-01-01,1e-300,1.0\n2024-01-02,1e300,1.1\n2024-01-03,1e300,1.2\n"
        panel = load_price_panel(write_csv(tmp_path, text))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning either
            with pytest.raises(ParseError) as exc:
                compute_losses(panel)
        assert exc.value.line == 3
        assert str(exc.value) == "line 3: loss for A on 2024-01-02 is not finite"

    def test_back_compounding_round_trip(self, tmp_path):
        panel = load_price_panel(write_csv(tmp_path, GOOD))
        lp = compute_losses(panel)
        rebuilt = panel.close[0] * np.prod(1.0 - lp.losses, axis=0)
        np.testing.assert_allclose(rebuilt, panel.close[-1], rtol=1e-12)


def loss_panel(losses):
    losses = np.asarray(losses, dtype=float)
    dates = tuple(f"2024-02-{k + 1:02d}" for k in range(losses.shape[0]))
    tickers = tuple(chr(ord("A") + i) for i in range(losses.shape[1]))
    return LossPanel(dates=dates, tickers=tickers, losses=losses)


class TestEstimateMoments:
    def test_two_sample_moments(self):
        lp = loss_panel([[0.01, 0.02], [0.03, -0.01]])
        ridge = 1e-10
        model = estimate_moments(lp, window=2, end_index=1, ridge=ridge)
        np.testing.assert_allclose(model.mu_vec, [0.02, 0.005], atol=1e-15)
        assert model.cov[0, 0] == pytest.approx((0.01 - 0.03) ** 2 / 2 + ridge, rel=1e-12)
        assert model.cov[1, 1] == pytest.approx((0.02 + 0.01) ** 2 / 2 + ridge, rel=1e-12)

    def test_matches_numpy_reference(self):
        rng = np.random.default_rng(3)
        lp = loss_panel(rng.normal(scale=0.02, size=(40, 3)))
        model = estimate_moments(lp, window=15, end_index=30, ridge=0.0)
        block = lp.losses[16:31]
        np.testing.assert_allclose(model.mu_vec, block.mean(axis=0), atol=1e-15)
        np.testing.assert_allclose(model.cov, np.cov(block, rowvar=False, ddof=1), atol=1e-15)

    def test_rank_deficiency_needs_ridge(self):
        rng = np.random.default_rng(4)
        base = rng.normal(scale=0.02, size=20)
        shifted = base + 0.01  # same deviations, different mean
        lp = loss_panel(np.column_stack([base, shifted]))
        with pytest.raises(NotPositiveDefinite):
            estimate_moments(lp, window=10, end_index=15, ridge=0.0)
        model = estimate_moments(lp, window=10, end_index=15, ridge=1e-6)
        assert model.cov[0, 0] > 0

    def test_default_ridge_lifts_singularity(self):
        rng = np.random.default_rng(7)
        base = rng.normal(scale=0.02, size=20)
        lp = loss_panel(np.column_stack([base, base + 0.01]))
        model = estimate_moments(lp, window=10, end_index=15)
        assert model.cov[0, 0] == pytest.approx(model.cov[0, 1], rel=1e-6)

    def test_window_and_index_validation(self):
        lp = loss_panel(np.random.default_rng(0).normal(size=(10, 2)))
        with pytest.raises(WindowTooLarge):
            estimate_moments(lp, window=6, end_index=4)
        with pytest.raises(ValueError):
            estimate_moments(lp, window=1, end_index=4)
        with pytest.raises(ValueError):
            estimate_moments(lp, window=2, end_index=10)
        with pytest.raises(ValueError):
            estimate_moments(lp, window=2, end_index=5, ridge=-1e-9)

    def test_estimation_is_pure(self):
        rng = np.random.default_rng(9)
        lp = loss_panel(rng.normal(scale=0.02, size=(30, 3)))
        a = estimate_moments(lp, window=12, end_index=20)
        b = estimate_moments(lp, window=12, end_index=20)
        np.testing.assert_array_equal(a.mu_vec, b.mu_vec)
        np.testing.assert_array_equal(a.cov, b.cov)


def bundled_losses():
    sample = importlib.resources.files("wctsv") / "data" / "sample_prices.csv"
    with importlib.resources.as_file(sample) as path:
        return compute_losses(load_price_panel(path))


def plain_moments(block):
    """The estimator written the plain way: ``block.mean`` and ``cov + ridge * eye``."""
    mu = block.mean(axis=0)
    dev = block - mu
    cov = dev.T @ dev / (block.shape[0] - 1)
    d = cov.shape[0]
    return mu, cov + 1e-8 * float(np.trace(cov)) / d * np.eye(d)


def wide_losses(seed, rows=900, d=30):
    """Seeded factor-model losses the size of a wide backtest's window."""
    rng = np.random.default_rng(seed)
    factors = rng.normal(scale=0.006, size=(rows, 3))
    return factors @ rng.normal(scale=0.6, size=(3, d)) + rng.normal(scale=0.006, size=(rows, d))


class TestFrozenModels:
    """At the default ridge the estimator freezes its own arrays instead of
    copying and re-checking them; these pin that it still returns the
    same bits and what the full checks guarantee."""

    @pytest.mark.parametrize("source", ["bundled", 0, 1, 2, "constant asset"])
    def test_same_bits_as_the_plain_formula(self, source):
        if source == "bundled":
            lp, window, days = bundled_losses(), 252, range(251, 329, 7)
        else:
            losses = wide_losses(0 if source == "constant asset" else source)
            if source == "constant asset":  # +0.0 off the diagonal, as the plain formula gives
                losses[:, 4] = 0.001
            lp, window, days = loss_panel(losses), 755, range(754, 900, 29)
        for k in days:
            model = estimate_moments(lp, window, k)
            mu, cov = plain_moments(lp.losses[k - window + 1 : k + 1])
            assert model.mu_vec.tobytes() == mu.tobytes()
            assert model.cov.tobytes() == cov.tobytes()

    def test_covariance_is_symmetric_bit_for_bit_and_read_only(self):
        for lp, window in ((bundled_losses(), 252), (loss_panel(wide_losses(3)), 755)):
            model = estimate_moments(lp, window, window + 40)
            # numpy forms dev.T @ dev as one symmetric product (syrk)
            assert model.cov.tobytes() == model.cov.T.copy().tobytes()
            assert not model.mu_vec.flags.writeable and not model.cov.flags.writeable
            with pytest.raises(ValueError):
                model.cov[0, 0] = 1.0

    @pytest.mark.parametrize("ridge,factors", [(None, 0), (1e-8, 77)])
    def test_bundled_backtest_factors_only_an_explicit_ridge(self, monkeypatch, ridge, factors):
        calls = []
        cholesky = wctsv.frontier._cholesky
        monkeypatch.setattr(wctsv.frontier, "_cholesky", lambda cov: calls.append(1) or cholesky(cov))
        result = run_backtest(bundled_losses(), BacktestConfig(ridge=ridge))
        assert len(result.oos_dates) == 77
        assert len(calls) == factors

    def test_zero_trace_window_is_checked_and_rejected(self):
        lp = loss_panel(np.full((12, 3), 0.25))  # the mean is exact, so every deviation is 0
        with pytest.raises(NotPositiveDefinite):
            estimate_moments(lp, window=10, end_index=11)

    def test_external_model_copies_the_callers_arrays(self):
        mu, cov = np.array([0.01, 0.02]), np.array([[1.0, 0.2], [0.2, 1.0]])
        model = MarketModel(("A", "B"), mu, cov)
        assert mu.flags.writeable and cov.flags.writeable
        assert not np.shares_memory(model.cov, cov) and not np.shares_memory(model.mu_vec, mu)
        cov[0, 1] = 5.0
        assert model.cov[0, 1] == 0.2
