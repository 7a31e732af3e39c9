import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

import wctsv.frontier
from wctsv import (
    DegenerateMeans,
    Family,
    InvalidThreshold,
    MomentProfile,
    NonConvergence,
    NotPositiveDefinite,
    wc_target_semivariance,
)
from wctsv.frontier import (
    MarketModel,
    _real_roots,
    _Segment,
    _segment_candidates,
    classical_mv,
    frontier_params,
    m_tsv_s_portfolio,
    min_variance_portfolio,
    tsv_portfolio,
)


def two_asset(cov_scale=1.0):
    return MarketModel(
        assets=("A", "B"),
        mu_vec=np.array([0.0, 1.0]),
        cov=cov_scale * np.eye(2),
    )


def random_model(seed, d=4):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d))
    cov = a @ a.T + 0.5 * np.eye(d)
    mu = rng.normal(scale=0.5, size=d)
    return MarketModel(tuple(f"X{i}" for i in range(d)), mu, cov)


def steep_model():
    """Means 0.1 +/- 1e-5: v0 is about 2.9e10, where the expanded parabola
    v0 xi^2 - 2 v1 xi + v2 cancels to a few digits near the vertex."""
    m = random_model(1)
    return MarketModel(m.assets, 0.1 + 2e-5 * m.mu_vec, m.cov)


class TestFrontierParams:
    def test_identity_covariance(self):
        fp = frontier_params(two_asset())
        assert (fp.u, fp.v0, fp.v1, fp.v2) == (1.0, 2.0, 1.0, 1.0)

    def test_scaled_covariance(self):
        fp = frontier_params(two_asset(cov_scale=4.0))
        assert fp.u == pytest.approx(1 / 16)
        assert (fp.v0, fp.v1, fp.v2) == (8.0, 4.0, 4.0)

    def test_parabola_identity(self):
        for seed in range(5):
            fp = frontier_params(random_model(seed))
            assert fp.u > 0 and fp.v0 > 0
            assert fp.v0 * fp.v2 - fp.v1**2 == pytest.approx(1 / fp.u, rel=1e-9)

    def test_degenerate_means(self):
        m = MarketModel(("A", "B"), np.array([0.7, 0.7]), np.eye(2))
        with pytest.raises(DegenerateMeans):
            frontier_params(m)

    def test_bad_covariance(self):
        with pytest.raises(NotPositiveDefinite):
            MarketModel(("A", "B"), np.array([0.0, 1.0]), np.array([[1.0, 0.5], [0.2, 1.0]]))
        with pytest.raises(NotPositiveDefinite):
            MarketModel(("A", "B"), np.array([0.0, 1.0]), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            MarketModel(("A",), np.array([0.0, 1.0]), np.eye(2))

    def test_model_is_immutable_so_params_stay_valid(self):
        mu, cov = np.array([0.0, 1.0]), np.eye(2)
        m = MarketModel(("A", "B"), mu, cov)
        fp = frontier_params(m)
        mu[1], cov[1, 1] = 3.0, 4.0  # the caller's arrays, not the model's
        with pytest.raises(ValueError):
            m.mu_vec[1] = 3.0
        with pytest.raises(ValueError):
            m.cov[1, 1] = 4.0
        assert fp.v0 == frontier_params(MarketModel(("A", "B"), [0.0, 1.0], np.eye(2))).v0


class TestMinVariance:
    def test_hand_example(self):
        m = two_asset()
        pf = min_variance_portfolio(frontier_params(m), m, 0.3)
        np.testing.assert_allclose(pf.weights, [0.7, 0.3], atol=1e-12)
        assert pf.objective == pytest.approx(0.58, abs=1e-12)

    def test_constraints_hold_exactly(self):
        cases = [(random_model(seed), (-1.0, 0.0, 0.4, 2.5)) for seed in range(5)]
        cases.append((steep_model(), (0.1 - 1e-5, 0.1 - 1e-6, 0.1, 0.1 + 1e-5)))
        for m, xis in cases:
            fp = frontier_params(m)
            for xi in xis:
                pf = min_variance_portfolio(fp, m, xi)
                assert float(pf.weights.sum()) == pytest.approx(1.0, abs=1e-10)
                assert pf.expected_loss == pytest.approx(xi, abs=1e-10)
                assert pf.stdev**2 == pytest.approx(fp.variance_at(xi), rel=1e-9)

    def test_global_minimum_variance_vertex(self):
        m = random_model(2)
        fp = frontier_params(m)
        pf = min_variance_portfolio(fp, m, fp.v1 / fp.v0)
        assert pf.objective == pytest.approx(fp.v2 - fp.v1**2 / fp.v0, rel=1e-12)

    def test_randomized_optimality(self):
        m = random_model(7)
        fp = frontier_params(m)
        xi = 0.37
        pf = min_variance_portfolio(fp, m, xi)
        rng = np.random.default_rng(0)
        basis = np.vstack([np.ones(m.dim), m.mu_vec])
        q, _ = np.linalg.qr(basis.T, mode="complete")
        null = q[:, 2:]  # directions preserving both constraints
        for _ in range(1000):
            w = pf.weights + null @ rng.normal(size=m.dim - 2)
            assert float(w @ m.cov @ w) >= pf.objective - 1e-9


class TestClassicalMv:
    def test_binding_cap(self):
        m = two_asset()
        pf = classical_mv(frontier_params(m), m, 0.3)
        np.testing.assert_allclose(pf.weights, [0.7, 0.3], atol=1e-12)
        assert pf.regime == "loss cap binds"

    def test_unbinding_cap(self):
        m = two_asset()
        pf = classical_mv(frontier_params(m), m, 0.9)
        np.testing.assert_allclose(pf.weights, [0.5, 0.5], atol=1e-12)
        assert pf.regime == "global minimum variance"

    def test_short_position(self):
        m = two_asset()
        pf = classical_mv(frontier_params(m), m, -1.0)
        np.testing.assert_allclose(pf.weights, [2.0, -1.0], atol=1e-12)


class TestTsvPortfolio:
    def test_vertex_below_threshold(self):
        m = two_asset()
        pf = tsv_portfolio(frontier_params(m), m, 0.6)
        assert pf.expected_loss == pytest.approx(0.5, abs=1e-12)
        assert pf.objective == pytest.approx(0.5, abs=1e-12)

    def test_kink_branch(self):
        m = two_asset()
        pf = tsv_portfolio(frontier_params(m), m, 0.0)
        assert pf.expected_loss == pytest.approx(1 / 3, abs=1e-12)
        assert pf.objective == pytest.approx(2 / 3, abs=1e-12)

    def test_first_order_condition(self):
        for seed in range(5):
            m = random_model(seed)
            fp = frontier_params(m)
            for t in (-0.5, 0.0, 0.3):
                xi = tsv_portfolio(fp, m, t).expected_loss
                resid = 2 * fp.v0 * xi - 2 * fp.v1 + 2 * max(xi - t, 0.0)
                assert abs(resid) <= 1e-9

    def test_randomized_optimality(self):
        m = random_model(3)
        fp = frontier_params(m)
        t = -0.2
        pf = tsv_portfolio(fp, m, t)
        rng = np.random.default_rng(1)
        for xi in rng.uniform(-5, 5, size=1000):
            g = fp.variance_at(xi) + max(xi - t, 0.0) ** 2
            assert pf.objective <= g + 1e-9


def h_frontier(fp, t, xi):
    sigma = math.sqrt(fp.variance_at(xi))
    return wc_target_semivariance(MomentProfile(xi, sigma), t, Family.SYMMETRIC).value


def h_frontier_decimal(fp, t, xi):
    """h_frontier in 60-digit arithmetic on the vertex form of the frontier."""
    with localcontext() as ctx:
        ctx.prec = 60
        v0, v1, u, x, t = (Decimal(v) for v in (fp.v0, fp.v1, fp.u, xi, t))
        var = v0 * (x - v1 / v0) ** 2 + 1 / (u * v0)
        sigma = var.sqrt()
        if t <= x - sigma:
            return var + (t - x) ** 2
        return (x - t + sigma) ** 2 / 2 if t <= x else var / 2


class TestMTsvS:
    def test_case_i_matches_classical(self):
        m = two_asset()
        fp = frontier_params(m)
        pf = m_tsv_s_portfolio(fp, m, nu=0.3, t=0.4)
        ref = classical_mv(fp, m, 0.3)
        np.testing.assert_allclose(pf.weights, ref.weights, atol=1e-10)
        assert pf.regime == "i"
        assert pf.objective == pytest.approx(0.5 * ref.objective, rel=1e-12)

    def test_case_ii_prefers_below_threshold_vertex(self):
        # gmv = 0.5 > t, so the candidates run from xi = t up to gmv
        m = two_asset()
        fp = frontier_params(m)
        pf = m_tsv_s_portfolio(fp, m, nu=0.8, t=0.45)
        assert pf.regime in ("ii", "iii")
        grid = np.linspace(fp.v1 / fp.v0 - 10, 0.8, 10_000)
        best = min(h_frontier(fp, 0.45, x) for x in grid)
        assert pf.objective <= best + 1e-8

    def test_case_iii_grid_reference(self):
        m = two_asset()
        fp = frontier_params(m)
        t, nu = -0.2, 0.8
        pf = m_tsv_s_portfolio(fp, m, nu=nu, t=t)
        grid = np.linspace(fp.v1 / fp.v0 - 10, nu, 10_000)
        best = min(h_frontier(fp, t, x) for x in grid)
        assert pf.objective <= best + 1e-8
        assert pf.objective == pytest.approx(h_frontier(fp, t, pf.expected_loss), rel=1e-12)

    def test_objective_matches_closed_form_at_solution(self):
        daily = random_model(0)
        daily = MarketModel(daily.assets, 1e-3 * daily.mu_vec, 1e-4 * daily.cov)
        # nearly equal means: v0 is about 1.2e7
        steep = random_model(1)
        steep = MarketModel(steep.assets, 0.1 + 1e-3 * steep.mu_vec, steep.cov)
        for m, nu, t in [
            (random_model(0), 0.5, -0.3),
            (random_model(1), 0.2, 0.1),
            (random_model(4), 1.0, 0.9),
            (daily, 0.007, -0.007),
            (steep, 0.6, -0.4),
            (steep_model(), 0.1 + 1e-5, 0.1 - 1e-5),
        ]:
            fp = frontier_params(m)
            pf = m_tsv_s_portfolio(fp, m, nu=nu, t=t)
            want = wc_target_semivariance(
                MomentProfile(pf.expected_loss, pf.stdev), t, Family.SYMMETRIC
            ).value
            assert pf.objective == pytest.approx(want, rel=1e-9)
            exact = h_frontier_decimal(fp, t, pf.expected_loss)
            assert abs(Decimal(pf.objective) - exact) <= Decimal("1e-12") * exact
            assert pf.regime in ("i", "ii", "iii")
            assert float(pf.weights.sum()) == pytest.approx(1.0, abs=1e-10)
            # no feasible frontier point does better
            grid = np.linspace(min(t, fp.v1 / fp.v0) - 8, nu, 4_000)
            assert pf.objective <= min(h_frontier(fp, t, x) for x in grid) + 1e-8


def test_m_tsv_s_is_scale_invariant():
    # losses scaled by c scale the objective by c^2 and leave the regime; an
    # absolute tie between regimes (ii) and (iii) broke this at c = 1e-5
    base = random_model(3)
    runs = []
    for c in (1.0, 1e-3, 1e-5):
        m = MarketModel(base.assets, c * base.mu_vec, c * c * base.cov)
        fp = frontier_params(m)
        g = fp.segment.hi
        solves = [m_tsv_s_portfolio(fp, m, g, g + q * c) for q in np.linspace(-3.0, 0.0, 301)]
        runs.append([(pf.regime, pf.objective / (c * c)) for pf in solves])
    assert {tag for tag, _ in runs[0]} == {"i", "ii", "iii"}
    for run in runs[1:]:
        assert [tag for tag, _ in run] == [tag for tag, _ in runs[0]]
        for (_, got), (_, want) in zip(run, runs[0]):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_m_tsv_s_certificate_rejects_ends_only_candidates(monkeypatch):
    # with only the ends of [min(t, hi), hi] as candidates, every solve whose
    # minimizer lies strictly inside returns a winner the slope check rejects
    interior = []
    for seed in range(12):
        m = random_model(seed, d=2 + seed % 5)
        fp = frontier_params(m)
        g = fp.segment.hi
        for t in (g - 1.0, g - 0.3, g - 0.05):
            for nu in (g - 0.02, g):
                xi = m_tsv_s_portfolio(fp, m, nu, t).expected_loss
                if min(abs(xi - t), abs(xi - min(nu, g))) > 1e-6:
                    interior.append((fp, m, nu, t))
    assert len(interior) >= 15

    monkeypatch.setattr(
        wctsv.frontier, "_segment_candidates", lambda *args: _segment_candidates(*args)[:2]
    )
    for fp, m, nu, t in interior:
        with pytest.raises(NonConvergence):
            m_tsv_s_portfolio(fp, m, nu, t)


@pytest.mark.parametrize(
    "solve",
    [
        lambda fp, m, x: classical_mv(fp, m, nu=x),
        lambda fp, m, x: tsv_portfolio(fp, m, t=x),
        lambda fp, m, x: m_tsv_s_portfolio(fp, m, nu=x, t=0.0),
        lambda fp, m, x: m_tsv_s_portfolio(fp, m, nu=0.5, t=x),
    ],
    ids=["classical_mv-nu", "tsv-t", "m_tsv_s-nu", "m_tsv_s-t"],
)
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_threshold_or_cap_rejected(solve, x):
    m = two_asset()
    with pytest.raises(InvalidThreshold):
        solve(frontier_params(m), m, x)


def reference_candidates(seg, lo, hi, t, lam):
    """_segment_candidates as each equation's roots in turn, the reference."""
    a, b, c = seg.a, seg.b, seg.c
    tl = t - seg.hi
    r = 2.0 * lam - tl if lam is not None else 0.0
    equations = [
        (0.0, 1.0, -tl),  # s = 0
        (a - 1.0, b + 2.0 * tl, c - tl * tl),  # V = s^2
        (a - 1.0, b - 2.0 * r, c - r * r) if lam is not None else None,  # V = (2 lam + s)^2
        (0.0, 2.0 * a + 2.0, b - 2.0 * tl),  # V' + 2s = 0
        (0.0, 2.0 * a, b),  # V' = 0
        (0.0, a + 3.0, 0.5 * b + 2.0 * lam - 3.0 * tl) if lam is not None else None,
        (4.0 * a * (a - 1.0), 4.0 * b * (a - 1.0), b * b - 4.0 * c),  # V'^2 = 4V
    ]
    xs = [hi, lo]
    for coeffs in filter(None, equations):
        xs += [seg.hi + u for u in _real_roots(*coeffs) if lo <= seg.hi + u <= hi]
    return xs


def test_segment_candidates_match_the_reference_bit_for_bit():
    rng = np.random.default_rng(11)
    special = [0.0, 1.0, 0.5, 3.0]  # a = 0 and a = 1 drop an equation's leading term
    for _ in range(5000):
        a = rng.choice(special) if rng.random() < 0.3 else rng.lognormal(0.0, 4.0)
        b = 0.0 if rng.random() < 0.2 else rng.normal() * 10.0 ** rng.uniform(-6, 3)
        c = rng.lognormal(0.0, 4.0)
        hi = rng.normal()
        lo = hi - (0.0 if rng.random() < 0.2 else rng.lognormal(0.0, 2.0))
        t = rng.choice([hi, lo, hi + rng.normal() * 10.0 ** rng.uniform(-4, 1)])
        lam = None if rng.random() < 0.3 else rng.lognormal(0.0, 2.0)
        seg = _Segment(np.arange(1), np.ones(1), np.zeros(1), lo, hi, float(a), b, c)
        got = _segment_candidates(seg, lo, hi, float(t), lam)
        assert [x.hex() for x in got] == [x.hex() for x in reference_candidates(seg, lo, hi, t, lam)]
