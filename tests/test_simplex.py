import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wctsv.simplex
from wctsv import (
    EmptyUncertaintySet,
    Family,
    InfeasibleBudget,
    InvalidBudget,
    InvalidThreshold,
    MomentProfile,
    NonConvergence,
    wc_target_semivariance,
    wc_target_semivariance_constrained,
)
from wctsv.frontier import MarketModel
from wctsv.simplex import (
    _long_only_frontier,
    _segment_candidates,
    check_regret_feasibility,
    eep_tsv_portfolio,
    eep_tsv_s_portfolio,
    project_to_simplex,
)


def two_asset():
    return MarketModel(("A", "B"), np.array([0.0, 1.0]), np.eye(2))


def random_model(seed, d=5):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d))
    cov = a @ a.T + 0.5 * np.eye(d)
    mu = rng.normal(scale=0.5, size=d)
    return MarketModel(tuple(f"X{i}" for i in range(d)), mu, cov)


def h_arb(m, t, lam, w):
    xi = float(w @ m.mu_vec)
    sigma = math.sqrt(float(w @ m.cov @ w))
    try:
        return wc_target_semivariance_constrained(
            MomentProfile(xi, sigma), t, lam, Family.ARBITRARY
        ).value
    except EmptyUncertaintySet:
        return math.inf


def h_sym(m, t, lam, w):
    xi = float(w @ m.mu_vec)
    sigma = max(math.sqrt(float(w @ m.cov @ w)), 1e-12)
    try:
        return wc_target_semivariance_constrained(
            MomentProfile(xi, sigma), t, lam, Family.SYMMETRIC
        ).value
    except EmptyUncertaintySet:
        return math.inf


def probes(d, n=1000, seed=99):
    rng = np.random.default_rng(seed)
    pts = [np.eye(d)[i] for i in range(d)] + [np.full(d, 1.0 / d)]
    pts += list(rng.dirichlet(np.ones(d), size=n))
    return pts


class TestFeasibility:
    def test_examples(self):
        m = MarketModel(("A", "B"), np.array([0.001, 0.002]), np.eye(2))
        assert check_regret_feasibility(m, -0.003, 0.015)
        m = MarketModel(("A", "B"), np.array([-0.05, 0.01]), np.eye(2))
        assert not check_regret_feasibility(m, 0.0, 0.02)
        assert check_regret_feasibility(m, 0.0, 1e9)

    def test_budget_validation(self):
        with pytest.raises(InvalidBudget):
            check_regret_feasibility(two_asset(), 0.0, 0.0)


class TestProjection:
    def test_fixed_points(self):
        np.testing.assert_array_equal(project_to_simplex([0.5, 0.5]), [0.5, 0.5])
        np.testing.assert_array_equal(project_to_simplex([1.0, 0.0]), [1.0, 0.0])

    def test_examples(self):
        np.testing.assert_allclose(project_to_simplex([2.0, 0.0]), [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(
            project_to_simplex([0.9, 0.9, 0.9]), [1 / 3, 1 / 3, 1 / 3], atol=1e-15
        )

    def test_idempotent_and_valid(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            v = rng.normal(scale=3, size=rng.integers(1, 9))
            p = project_to_simplex(v)
            assert (p >= 0).all()
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(project_to_simplex(p), p, atol=1e-12)

    def test_is_nearest_point(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            v = rng.normal(scale=2, size=4)
            p = project_to_simplex(v)
            for q in rng.dirichlet(np.ones(4), size=50):
                assert np.sum((v - p) ** 2) <= np.sum((v - q) ** 2) + 1e-10


class TestEepTsv:
    def test_pure_variance_branch(self):
        pf = eep_tsv_portfolio(two_asset(), t=2.0, lam=5.0)
        np.testing.assert_allclose(pf.weights, [0.5, 0.5], atol=1e-9)
        assert pf.objective == pytest.approx(0.5, abs=1e-9)

    def test_kinked_branch_grid(self):
        m = two_asset()
        pf = eep_tsv_portfolio(m, t=-1.0, lam=5.0)
        x = np.linspace(0.0, 1.0, 1_000_001)
        vals = (1 - x) ** 2 + x**2 + np.maximum(x - (-1.0), 0.0) ** 2
        assert pf.objective <= vals.min() + 1e-6
        assert pf.objective == pytest.approx(2.0, abs=1e-9)
        np.testing.assert_allclose(pf.weights, [1.0, 0.0], atol=1e-8)

    def test_binding_vertex_budget(self):
        pf = eep_tsv_portfolio(two_asset(), t=0.5, lam=0.5)
        assert pf.objective == 0.0
        np.testing.assert_array_equal(pf.weights, [1.0, 0.0])
        assert pf.regime == "lambda == (xi-t)_-"
        # one ulp above the floor the supremum takes its positive value
        pf = eep_tsv_portfolio(two_asset(), t=0.5, lam=math.nextafter(0.5, math.inf))
        assert pf.objective == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(pf.weights, [0.5, 0.5], atol=1e-12)
        assert pf.regime == "lambda > (xi-t)_-"

    def test_infeasible_budget(self):
        m = MarketModel(("A", "B"), np.array([-0.05, 0.01]), np.eye(2))
        with pytest.raises(InfeasibleBudget):
            eep_tsv_portfolio(m, t=0.0, lam=0.02)

    def test_certification_and_kkt(self):
        cases = [(random_model(0), 0.1, 2.0), (random_model(3), 0.1, 2.0)]
        # the threshold sits below every asset mean here
        m = random_model(1, d=3)
        cases.append((m, -0.5, max(-0.5 - float(m.mu_vec.min()), 0.0) + 0.5))
        # means equal to 1e-6: the frontier is so steep that the objective is
        # flat to rounding around its minimizer while the KKT residual is not
        rng = np.random.default_rng(21)
        a = rng.normal(size=(3, 3))
        steep = MarketModel(
            ("A", "B", "C"), 0.1 + rng.normal(scale=1e-6, size=3), a @ a.T + 0.5 * np.eye(3)
        )
        cases.append((steep, 0.0, 1.0))
        for m, t, lam in cases:
            pf = eep_tsv_portfolio(m, t, lam)
            assert (pf.weights >= -1e-12).all()
            assert float(pf.weights.sum()) == pytest.approx(1.0, abs=1e-10)
            assert max(t - pf.expected_loss, 0.0) <= lam
            assert pf.objective == pytest.approx(h_arb(m, t, lam, pf.weights), rel=1e-12)
            for w in probes(m.dim):
                assert pf.objective <= h_arb(m, t, lam, w) + 1e-9
            # KKT of the convex branch at the reported solution
            g = 2 * m.cov @ pf.weights + 2 * max(pf.expected_loss - t, 0.0) * m.mu_vec
            free = pf.weights > 1e-10
            gamma = g[free].mean()
            assert np.abs(g[free] - gamma).max() <= 1e-8 * (1 + abs(gamma))
            if (~free).any():
                assert (g[~free] >= gamma - 1e-8 * (1 + abs(gamma))).all()

    def test_deterministic(self):
        m = random_model(1)
        a = eep_tsv_portfolio(m, 0.0, 1.0)
        b = eep_tsv_portfolio(m, 0.0, 1.0)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.objective == b.objective


class TestEepTsvS:
    def test_single_branch_region(self):
        # threshold above every attainable loss: objective is sigma^2 / 2
        m = MarketModel(("A", "B"), np.array([0.1, 0.2]), np.eye(2))
        pf = eep_tsv_s_portfolio(m, t=5.0, lam=5.0)
        assert pf.objective == pytest.approx(0.25, abs=1e-9)
        np.testing.assert_allclose(pf.weights, [0.5, 0.5], atol=1e-6)

    def test_two_asset_grid(self):
        m = two_asset()
        t, lam = -0.4, 1.0
        pf = eep_tsv_s_portfolio(m, t, lam)
        xs = np.linspace(0.0, 1.0, 200_001)
        best = min(h_sym(m, t, lam, np.array([1 - x, x])) for x in xs)
        assert pf.objective <= best + 1e-6

    def test_budget_vanishes_in_limit(self):
        m = two_asset()
        t = -0.3
        pf = eep_tsv_s_portfolio(m, t, lam=1e6)
        xs = np.linspace(0.0, 1.0, 100_001)

        def h_free(x):
            w = np.array([1 - x, x])
            xi = float(w @ m.mu_vec)
            sigma = max(math.sqrt(float(w @ m.cov @ w)), 1e-12)
            return wc_target_semivariance(MomentProfile(xi, sigma), t, Family.SYMMETRIC).value

        assert pf.objective == pytest.approx(min(h_free(x) for x in xs), abs=1e-6)

    def test_certification(self):
        cases = [(random_model(0), 0.05, 0.8), (random_model(2), 0.05, 0.8)]
        cases.append((random_model(10, d=3), -0.5, 0.5))
        for m, t, extra in cases:
            lam = max(t - float(m.mu_vec.min()), 0.0) + extra
            pf = eep_tsv_s_portfolio(m, t, lam)
            assert (pf.weights >= -1e-12).all()
            assert float(pf.weights.sum()) == pytest.approx(1.0, abs=1e-10)
            assert max(t - pf.expected_loss, 0.0) <= lam
            assert pf.objective == pytest.approx(h_sym(m, t, lam, pf.weights), rel=1e-9)
            for w in probes(m.dim):
                assert pf.objective <= h_sym(m, t, lam, w) + 1e-9

    def test_deterministic(self):
        m = random_model(4)
        lam = max(0.0 - float(m.mu_vec.min()), 0.0) + 0.7
        a = eep_tsv_s_portfolio(m, 0.0, lam)
        b = eep_tsv_s_portfolio(m, 0.0, lam)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.objective == b.objective

    def test_infeasible_budget(self):
        m = MarketModel(("A", "B"), np.array([-0.05, 0.01]), np.eye(2))
        with pytest.raises(InfeasibleBudget):
            eep_tsv_s_portfolio(m, t=0.0, lam=0.02)


def test_certificate_rejects_ends_only_candidates(monkeypatch):
    # with only segment ends as candidates, every solve whose minimizer lies
    # inside a segment returns a winner that is not first-order optimal
    interior = []
    for seed in range(12):
        m = random_model(seed, d=2 + seed % 5)
        chain = _long_only_frontier(m)
        ends = [x for s in chain for x in (s.lo, s.hi)]
        for t in (-0.5, 0.0, 0.3):
            lam = max(t - float(m.mu_vec.min()), 0.0) + 0.5
            xi = eep_tsv_s_portfolio(m, t, lam).expected_loss
            if min(abs(xi - e) for e in ends) > 1e-6:
                interior.append((m, t, lam))
    assert len(interior) >= 15

    monkeypatch.setattr(
        wctsv.simplex, "_segment_candidates", lambda *args: _segment_candidates(*args)[:2]
    )
    for m, t, lam in interior:
        with pytest.raises(NonConvergence):
            eep_tsv_s_portfolio(m, t, lam)


@pytest.mark.parametrize("seed", range(5))
def test_certificate_rejects_weights_off_the_frontier(seed):
    # moving each segment's weights along v with 1^T v = mu^T v = 0 keeps xi
    # and the segment's V(xi) but leaves the frontier: only the KKT check sees it
    m = random_model(seed)
    t = 0.05
    lam = max(t - float(m.mu_vec.min()), 0.0) + 0.8
    rng = np.random.default_rng(0)
    bent = []
    for s in _long_only_frontier(m):
        if s.free.size >= 3:
            basis = np.column_stack([np.ones(s.free.size), m.mu_vec[s.free]])
            v = rng.normal(size=s.free.size)
            v -= basis @ np.linalg.lstsq(basis, v, rcond=None)[0]
            s = s._replace(p=s.p + 1e-4 * v)
        bent.append(s)
    with pytest.raises(NonConvergence, match="KKT"):
        eep_tsv_s_portfolio(m, t, lam, bent)


def grid_model(kind, seed, d):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d))
    cov = a @ a.T + 0.5 * np.eye(d)
    if kind == "daily":
        cov, mu = 1e-4 * cov, rng.normal(scale=1e-3, size=d)
    elif kind == "steep":
        mu = 0.1 + rng.normal(scale=1e-6, size=d)
    else:  # tied
        mu = rng.choice([-0.2, 0.1, 0.1, 0.3], size=d)
    return MarketModel(tuple(f"X{i}" for i in range(d)), mu, cov)


def candidate_minimum(m, t, lam):
    """The first smallest closed-form value over the exact candidates."""
    d = m.dim
    ws = [
        np.maximum(s.weights(d, x), 0.0)
        for s in _long_only_frontier(m)
        for x in _segment_candidates(s, s.lo, s.hi, t, lam)
    ]
    return min(h_sym(m, t, lam, w) for w in ws + list(np.eye(d)))


# steep frontiers on which the winner ties its neighbours to rounding, tied
# means whose frontier starts with V' < 0, and daily-scale models
NO_FALSE_ALARM_MODELS = [
    ("steep", 1010, 3), ("steep", 1106, 3), ("steep", 1246, 2), ("steep", 1294, 2),
    ("steep", 1342, 2), ("tied", 1351, 4), ("tied", 1003, 1), ("tied", 1007, 2),
    ("daily", 1001, 1), ("daily", 1005, 2), ("daily", 1045, 12),
]


@pytest.mark.parametrize("kind,seed,d", NO_FALSE_ALARM_MODELS)
def test_certificate_accepts_steep_tied_and_daily_frontiers(kind, seed, d):
    m = grid_model(kind, seed, d)
    lo, hi = float(m.mu_vec.min()), float(m.mu_vec.max())
    scale = math.sqrt(float(np.mean(np.diag(m.cov))))
    for t in (lo - 2.0 * scale, lo, 0.5 * (lo + hi), hi, hi + 2.0 * scale):
        for extra in (0.01, 0.1, 1.0, 10.0):
            lam = max(t - lo, 0.0) + extra * scale
            pf = eep_tsv_s_portfolio(m, t, lam)
            assert pf.objective == candidate_minimum(m, t, lam)


# the chain's low end is one ulp below min mu = -0.7; with seed 3 at
# lam = 0.25 the vertex e_B itself wins, at lam = 2.5 the chain's end
@pytest.mark.parametrize("seed,lam,objective", [
    (35, 0.25, 1.1498159957598915), (35, 2.5, 1.1498159957598915),
    (3, 0.25, 0.7835844856380455), (3, 2.5, 0.8431595303511327),
])
def test_two_asset_chain_end_one_ulp_below_min_mu(seed, lam, objective):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, 2))
    m = MarketModel(("A", "B"), np.array([0.0, -0.7]), a @ a.T + 0.5 * np.eye(2))
    assert _long_only_frontier(m)[-1].lo == -0.7000000000000001
    assert eep_tsv_s_portfolio(m, -1.0, lam).objective == objective


@pytest.mark.parametrize("solver", [eep_tsv_portfolio, eep_tsv_s_portfolio])
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_threshold_rejected(solver, t):
    with pytest.raises(InvalidThreshold):
        solver(random_model(0), t, 1.0)


# ------------------------------------------------ premise of the frontier reduction


@given(
    xi=st.floats(-3.0, 3.0),
    t=st.floats(-3.0, 3.0),
    sigma=st.floats(1e-3, 5.0),
    extra=st.floats(1e-6, 4.0),
    d_sigma=st.floats(0.0, 2.0),
    d_xi=st.floats(0.0, 2.0),
)
@example(xi=0.0, t=1.0, sigma=1.0, extra=0.5, d_sigma=0.1, d_xi=0.1)  # t > xi
@example(xi=1.0, t=0.0, sigma=0.5, extra=1.0, d_sigma=0.1, d_xi=0.1)  # sigma <= s
@example(xi=1.0, t=0.0, sigma=1.5, extra=1.0, d_sigma=0.1, d_xi=0.1)  # s < sigma < 2 lam + s
@example(xi=0.5, t=0.0, sigma=3.0, extra=0.2, d_sigma=0.1, d_xi=0.1)  # budget binds
@settings(max_examples=300, deadline=None)
def test_objectives_monotone_above_budget_floor(xi, t, sigma, extra, d_sigma, d_xi):
    lam = max(t - xi, 0.0) + extra

    def h(fam, budget, x, s):
        return wc_target_semivariance_constrained(MomentProfile(x, s), t, budget, fam).value

    # lam=None (no budget) backs M_TSV_S stopping at the GMV point
    for budget in (lam, None):
        for fam in (Family.ARBITRARY, Family.SYMMETRIC):
            base = h(fam, budget, xi, sigma)
            tol = 1e-12 * (1.0 + base)
            assert base <= h(fam, budget, xi, sigma + d_sigma) + tol
            assert base <= h(fam, budget, xi + d_xi, sigma) + tol


def frontier_variance(segments, xi):
    seg = next((s for s in segments if xi >= s.lo), segments[-1])
    u = xi - seg.hi
    return seg.a * u * u + seg.b * u + seg.c


@given(seed=st.integers(0, 10_000), d=st.integers(1, 10))
@settings(max_examples=60, deadline=None)
def test_frontier_continuous_at_corners(seed, d):
    m = random_model(seed, d)
    segments = _long_only_frontier(m)
    assert segments[-1].lo == pytest.approx(float(m.mu_vec.min()), abs=1e-12)
    for upper, lower in zip(segments, segments[1:]):
        assert lower.hi == pytest.approx(upper.lo, abs=1e-12)
        np.testing.assert_allclose(
            lower.weights(d, lower.hi), upper.weights(d, upper.lo), atol=1e-9
        )
        assert frontier_variance([lower], lower.hi) == pytest.approx(
            frontier_variance([upper], upper.lo), abs=1e-12
        )
    # a steep segment only a few 1e-6 long fixes its end weights to ~1e-12
    for seg in segments:
        for xi in (seg.lo, seg.hi):
            w = seg.weights(d, xi)
            assert float(w.sum()) == pytest.approx(1.0, abs=1e-10)
            assert float(w @ m.mu_vec) == pytest.approx(xi, abs=1e-10)
            assert float(w @ m.cov @ w) == pytest.approx(frontier_variance([seg], xi), rel=1e-10)


@given(seed=st.integers(0, 10_000), d=st.integers(2, 10))
@settings(max_examples=30, deadline=None)
def test_frontier_below_every_probe(seed, d):
    m = random_model(seed, d)
    segments = _long_only_frontier(m)
    top = segments[0].hi
    for p in probes(d, n=500, seed=seed):
        xi = float(p @ m.mu_vec)
        if xi <= top:
            var = float(p @ m.cov @ p)
            assert frontier_variance(segments, xi) <= var + 1e-12 * (1.0 + var)
