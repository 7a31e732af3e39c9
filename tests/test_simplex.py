import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wctsv.frontier
from wctsv import (
    EmptyUncertaintySet,
    Family,
    InfeasibleBudget,
    InvalidBudget,
    InvalidThreshold,
    MomentProfile,
    NonConvergence,
    WctsvError,
    wc_target_semivariance,
    wc_target_semivariance_constrained,
)
from wctsv.frontier import (
    KKT_TOL,
    STOP_MARGIN,
    MarketModel,
    _segment_candidates,
    _tangent_profiles,
)
from wctsv.simplex import (
    ACTIVE_TOL,
    SIGMA_FLOOR,
    _Chain,
    _critical_line,
    _kkt_residual,
    _long_only_frontier,
    _short_selling_top,
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

    @pytest.mark.parametrize("lam", [math.inf, math.nan])
    def test_non_finite_budget_rejected(self, lam):
        with pytest.raises(InvalidBudget, match="finite"):
            check_regret_feasibility(two_asset(), 0.0, lam)
        for solver in (eep_tsv_portfolio, eep_tsv_s_portfolio):
            with pytest.raises(InvalidBudget, match="finite"):
                solver(two_asset(), 0.0, lam)


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

    # exactly on the floor lam = t - min mu, where the unit portfolio at min mu
    # fits its symmetric set (sigma <= lam) and so scores 0; the walk's segment
    # end at min mu tied it, and its rebuilt weights moved xi an ulp off min mu
    # (seed 0 then raised NonConvergence, seed 7 EmptyUncertaintySet)
    @pytest.mark.parametrize("seed,t", [(0, 0.4697141626814954), (7, 1.8436684510647563)])
    def test_floor_answers_at_the_fitting_unit_portfolio(self, seed, t):
        m = random_model(seed, 2)
        j = int(np.argmin(m.mu_vec))
        lam = t - float(m.mu_vec[j])
        assert math.sqrt(float(m.cov[j, j])) <= lam
        pf = eep_tsv_s_portfolio(m, t, lam)
        assert (pf.objective, pf.regime) == (0.0, "lambda == (mu-t)_-")
        np.testing.assert_array_equal(pf.weights, np.eye(2)[j])
        assert pf.expected_loss == float(m.mu_vec[j])


def test_certificate_rejects_ends_only_candidates(monkeypatch):
    # with only segment ends as candidates, every solve whose minimizer lies
    # inside a segment returns a winner that is not first-order optimal
    interior = []
    for seed in range(12):
        m = random_model(seed, d=2 + seed % 5)
        chain = _long_only_frontier(m, _short_selling_top(m))
        ends = [x for s in chain for x in (s.lo, s.hi)]
        for t in (-0.5, 0.0, 0.3):
            lam = max(t - float(m.mu_vec.min()), 0.0) + 0.5
            xi = eep_tsv_s_portfolio(m, t, lam).expected_loss
            if min(abs(xi - e) for e in ends) > 1e-6:
                interior.append((m, t, lam))
    assert len(interior) >= 15

    monkeypatch.setattr(
        wctsv.frontier, "_segment_candidates", lambda *args: _segment_candidates(*args)[:2]
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
    for s in _long_only_frontier(m, _short_selling_top(m)):
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


def sym(t, lam, xi, sigma):
    """The budgeted symmetric worst case at (xi, sigma), None on an empty set."""
    try:
        return wc_target_semivariance_constrained(
            MomentProfile(xi, sigma), t, lam, Family.SYMMETRIC
        )
    except EmptyUncertaintySet:
        return None


def h_at(t, lam, xi, sigma):
    r = sym(t, lam, xi, sigma)
    return math.inf if r is None else r.value


def sigma_on(s, x):
    """sqrt(V) at x on segment s, V in vertex form, as EEP_TSV_S scores it."""
    u = x - s.hi
    return max(math.sqrt(max((s.a * u + s.b) * u + s.c, 0.0)), SIGMA_FLOOR)


def sigma_of(m, w):
    return max(math.sqrt(max(float(w @ m.cov @ w), 0.0)), SIGMA_FLOOR)


def first_smallest(m, t, lam, chain):
    """EEP_TSV_S's answer scored over every candidate of the whole chain:
    (weights, value, regime) of the first smallest, vertices at min mu last.
    A candidate is scored at sigma = sqrt(V) of its segment, a vertex at its
    own weights; the value and regime are those at the winner's weights, the
    only ones rebuilt."""
    d = m.dim
    points = [
        (x, sigma_on(s, x), s) for s in chain for x in _segment_candidates(s, s.lo, s.hi, t, lam)
    ]
    points += [
        (float(w @ m.mu_vec), sigma_of(m, w), w) for w in np.eye(d)[m.mu_vec == m.mu_vec.min()]
    ]
    best = None
    for x, sigma, source in points:
        r = sym(t, lam, x, sigma)
        if r is not None and (best is None or r.value < best[0]):
            best = (r.value, x, source)
    _, x, source = best
    w = source if isinstance(source, np.ndarray) else np.maximum(source.weights(d, x), 0.0)
    r = sym(t, lam, float(w @ m.mu_vec), sigma_of(m, w))
    return w, r.value, r.regime


def candidate_minimum(m, t, lam):
    """The smallest closed-form value over the exact candidates and every vertex."""
    _, value, _ = first_smallest(m, t, lam, _long_only_frontier(m, _short_selling_top(m)))
    return min(value, *(h_sym(m, t, lam, w) for w in np.eye(m.dim)))


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


# the kappa = 0 walk's low end is one ulp below min mu = -0.7; with seed 3
# at lam = 0.25 the vertex e_B itself wins, at lam = 2.5 the chain's end
@pytest.mark.parametrize("seed,lam,objective", [
    (35, 0.25, 1.1498159957598915), (35, 2.5, 1.1498159957598915),
    (3, 0.25, 0.7835844856380455), (3, 2.5, 0.8431595303511327),
])
def test_two_asset_chain_end_one_ulp_below_min_mu(seed, lam, objective):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, 2))
    m = MarketModel(("A", "B"), np.array([0.0, -0.7]), a @ a.T + 0.5 * np.eye(2))
    chain = _long_only_frontier(m, None)
    assert chain[-1].lo == -0.7000000000000001
    assert eep_tsv_s_portfolio(m, -1.0, lam, chain).objective == objective


@pytest.mark.parametrize("kind", ["normal", "daily", "steep", "tied"])
def test_early_stop_matches_the_full_walk(kind):
    # each rule walks a fresh chain only as far as its stop; its answer must be
    # bit-identical to the one the whole chain gives, and the walk must stop short
    short = total = 0
    for d, seed in itertools.product(range(2, 13), (3000, 3100)):
        m = random_model(seed, d) if kind == "normal" else grid_model(kind, seed, d)
        full = list(_long_only_frontier(m, _short_selling_top(m)))
        lo, hi = float(m.mu_vec.min()), float(m.mu_vec.max())
        scale = math.sqrt(float(np.mean(np.diag(m.cov))))
        for t in (lo - 2.0 * scale, lo, 0.5 * (lo + hi), hi, hi + 2.0 * scale):
            for extra in (0.01, 0.1, 1.0, 10.0):
                lam = max(t - lo, 0.0) + extra * scale
                chain = _long_only_frontier(m, _short_selling_top(m))
                pf = eep_tsv_s_portfolio(m, t, lam, chain)
                w, value, regime = first_smallest(m, t, lam, full)
                assert pf.weights.tobytes() == w.tobytes()
                assert (pf.objective, pf.regime) == (value, regime)
                short += chain.built < len(full)
                total += 1

                chain = _long_only_frontier(m, _short_selling_top(m))
                pf = eep_tsv_portfolio(m, t, lam, chain)
                ref = eep_tsv_portfolio(m, t, lam, full)
                assert pf.weights.tobytes() == ref.weights.tobytes()
                assert (pf.objective, pf.regime) == (ref.objective, ref.regime)
    assert 2 * short >= total


@pytest.mark.parametrize("kind", ["normal", "daily", "steep", "tied"])
def test_tangent_bound_is_below_every_later_point(kind):
    # wherever EEP_TSV_S computes its stop bound, the bound may not exceed
    # (1 + STOP_MARGIN) x the smallest value scored on any later segment or at
    # the vertices at min mu; then a stop never skips a better point.  Segment
    # points are scored, and the bound taken, at sigma = sqrt(V) of the segment
    checked = 0
    for d, seed in itertools.product(range(2, 13), (3000, 3100)):
        m = random_model(seed, d) if kind == "normal" else grid_model(kind, seed, d)
        chain = list(_long_only_frontier(m, _short_selling_top(m)))
        lo, hi = float(m.mu_vec.min()), float(m.mu_vec.max())
        scale = math.sqrt(float(np.mean(np.diag(m.cov))))
        for t in (lo - 2.0 * scale, lo, 0.5 * (lo + hi), hi, hi + 2.0 * scale):
            for extra in (0.01, 0.1, 1.0, 10.0):
                lam = max(t - lo, 0.0) + extra * scale
                scored = [
                    min(h_at(t, lam, x, sigma_on(s, x))
                        for x in _segment_candidates(s, s.lo, s.hi, t, lam))
                    for s in chain
                ]
                later = [min(h_sym(m, t, lam, w) for w in np.eye(d)[m.mu_vec == lo])]
                for value in reversed(scored[1:]):
                    later.insert(0, min(value, later[0]))
                for i, s in enumerate(chain):
                    if min(scored[: i + 1]) == math.inf:
                        continue  # no best value yet: the bound is not computed
                    bound = math.inf
                    for x, sigma in _tangent_profiles(s, sigma_on(s, s.lo), lo, t, lam):
                        r = sym(t, lam, x, sigma)
                        if r is None:
                            break  # an empty set never stops the walk
                        bound = min(bound, r.value)
                    else:
                        assert bound <= (1.0 + STOP_MARGIN) * later[i], (d, seed, t, lam, i)
                        checked += 1
    assert checked >= 1000


# generic models whose GMV search must readmit an asset it dropped: without
# that step the top of each chain fails the KKT check
READMIT_MODELS = [(1487, 10), (2894, 13), (3815, 16), (4428, 8), (5912, 16), (5969, 10)]


def gmv_models(kind):
    if kind == "readmit":
        return [random_model(seed, d) for seed, d in READMIT_MODELS]
    models = []
    for seed in range(4000, 4030):
        rng, d = np.random.default_rng(seed), 2 + seed % 11
        if kind == "vertex":  # asset 0 is the least risky and every other asset
            # covaries with it more than it varies, so the GMV holds only asset 0
            cov = np.full((d, d), 0.5) + 0.5 * np.eye(d)
            cov[0, :] = cov[:, 0] = 0.2 + 0.01 * rng.uniform()
            cov[0, 0] = 0.1
        elif kind == "negative":  # one strong factor: shorting high-beta assets cuts variance
            b = rng.uniform(0.5, 2.0, size=d)
            cov = np.outer(b, b) + np.diag(rng.uniform(0.01, 0.05, size=d))
        else:  # equal means: the frontier is a single point
            cov = random_model(seed, d).cov
        mu = np.full(d, 0.1) if kind == "equal" else rng.normal(size=d)
        models.append(MarketModel(tuple(f"X{i}" for i in range(d)), mu, cov))
    return models


@pytest.mark.parametrize("grad, residual", [
    ([1.0, 1.0, 3.0], 0.0),  # stationary, and the idle asset's gradient is above gamma
    ([1.0, 1.0, 0.0], 0.5),  # moving weight to the idle asset lowers the objective
    ([1.0, 3.0, 5.0], 1.0 / 3.0),  # the free gradients spread 1 about gamma = 2
])
def test_kkt_residual_counts_both_conditions(grad, residual):
    assert _kkt_residual(np.array([0.5, 0.5, 0.0]), np.array(grad)) == residual


@pytest.mark.parametrize("kind", ["negative", "vertex", "equal", "readmit"])
def test_chain_top_is_the_long_only_gmv(kind):
    # the walk finds the long-only global minimum-variance portfolio itself:
    # its top weights meet the simplex KKT conditions of min w^T cov w and
    # no probe of the simplex has less variance
    models = gmv_models(kind)
    negative = 0
    for i, m in enumerate(models):
        d = m.dim
        chain = _long_only_frontier(m, _short_selling_top(m))
        top = chain[0]
        w = np.maximum(top.weights(d, top.hi), 0.0)
        assert float(w.sum()) == pytest.approx(1.0, abs=1e-12)
        assert _kkt_residual(w, 2.0 * m.cov @ w) <= KKT_TOL
        assert top.c == pytest.approx(float(w @ m.cov @ w), rel=1e-12)
        assert top.c <= min(float(p @ m.cov @ p) for p in probes(d, n=200, seed=i)) + 1e-12
        negative += bool((np.linalg.solve(m.cov, np.ones(d)) < 0.0).any())
        if kind == "vertex":
            assert w[0] == pytest.approx(1.0, abs=1e-12)
        if kind == "equal":
            assert len(chain) == 1 and top.lo == top.hi
    if kind == "negative":
        assert negative == len(models)


def failing_chain(m, k):
    """The chain of ``m`` with a walk that raises after ``k`` segments."""
    def walk():
        yield from itertools.islice(_critical_line(m, _short_selling_top(m)), k)
        raise NonConvergence("walk failed")

    return _Chain(walk())


def test_chain_is_lazy_and_memoised():
    m = random_model(7, d=8)
    full = list(_long_only_frontier(m, _short_selling_top(m)))
    assert len(full) >= 3
    chain = _long_only_frontier(m, _short_selling_top(m))
    assert chain.built == 0  # nothing runs until the chain is read
    assert chain[1] is chain[1]
    assert chain.built == 2
    assert next(iter(chain)) is chain[0]
    assert chain.built == 2
    got = list(chain)
    assert chain.built == len(chain) == len(full)
    assert [s.lo for s in got] == [s.lo for s in full]
    assert chain[-1] is got[-1] and chain[1:] == got[1:]


@pytest.mark.parametrize("k", [0, 1, 2])
def test_failed_walk_fails_every_later_reader(k):
    m = random_model(7, d=8)
    chain = failing_chain(m, k)
    with pytest.raises(NonConvergence) as first:
        list(chain)
    assert chain.built == k
    reads = [list, len, lambda c: c[-1], lambda c: c[k], lambda c: c[k:]]
    for read in reads:
        with pytest.raises(NonConvergence) as again:
            read(chain)
        assert again.value is first.value
    # a segment walked before the failure can still be read
    if k:
        assert chain[k - 1].hi == list(_long_only_frontier(m, _short_selling_top(m)))[k - 1].hi
    # a rule reading the chain after the failure fails, or answers, as it
    # does on a chain of its own
    t, lam = 0.05, max(0.05 - float(m.mu_vec.min()), 0.0) + 0.8
    for solver in (eep_tsv_portfolio, eep_tsv_s_portfolio):
        assert outcome(solver, m, t, lam, chain) == outcome(
            solver, m, t, lam, failing_chain(m, k)
        )
    if k == 0:
        with pytest.raises(NonConvergence, match="walk failed"):
            eep_tsv_s_portfolio(m, t, lam, chain)


def outcome(solver, m, t, lam, chain):
    try:
        pf = solver(m, t, lam, chain)
    except NonConvergence as exc:
        return str(exc)
    return pf.weights.tobytes(), pf.objective, pf.regime


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
    segments = _long_only_frontier(m, _short_selling_top(m))
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


def walk_models(kind):
    """Seeded models of ``kind`` with d from 2 to 30: a generic covariance,
    whose GMV often shorts, and a diagonally dominant one, whose GMV is
    interior."""
    for d, seed in itertools.product((2, 3, 4, 6, 9, 13, 19, 30), (1, 2)):
        seed += 100 * d
        m = random_model(seed, d) if kind == "normal" else grid_model(kind, seed, d)
        yield m
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(d, d))
        cov = 0.3 * a @ a.T / d + np.diag(rng.uniform(0.5, 1.5, size=d))
        yield MarketModel(m.assets, m.mu_vec, (1e-4 if kind == "daily" else 1.0) * cov)


def solved(solver, m, t, lam, chain):
    """The solver's Portfolio, or the name of the error it raised."""
    try:
        return solver(m, t, lam, chain)
    except WctsvError as exc:
        return type(exc).__name__


def same_segments(a, b):
    return all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in zip(a, b)
    )


@pytest.mark.parametrize("kind", ["normal", "daily", "steep", "tied"])
def test_walk_from_the_short_selling_top_matches_the_kappa_zero_walk(kind):
    # the chain that starts from the short-selling frontier has the free sets
    # of the walk from kappa = 0 in the same order, and is the same chain bit
    # for bit unless the unconstrained GMV is interior; on an interior GMV its
    # ends and both EEP answers agree to rounding.  On steep frontiers the
    # weights move ~1e6 per unit of xi and EEP_TSV_S's objective is flat to an
    # ulp across hundreds of ulps of xi, so either walk may pick a winner whose
    # weights differ far beyond rounding (6.8e-9 seen on 1,624 models): there
    # only the objective is held to rounding
    interior = 0
    for m in walk_models(kind):
        top = _short_selling_top(m)
        new, ref = list(_long_only_frontier(m, top)), list(_long_only_frontier(m, None))
        assert [s.free.tolist() for s in new] == [s.free.tolist() for s in ref]
        if top is None or top.p.min() <= ACTIVE_TOL:
            assert all(same_segments(a, b) for a, b in zip(new, ref))
            continue
        interior += 1
        spread = float(np.ptp(m.mu_vec))
        for a, b in zip(new, ref):
            assert max(abs(a.lo - b.lo), abs(a.hi - b.hi)) <= 1e-9 * spread
        lo, hi = float(m.mu_vec.min()), float(m.mu_vec.max())
        scale = math.sqrt(float(np.mean(np.diag(m.cov))))
        for t, extra in itertools.product(
            (lo - 2.0 * scale, lo, 0.5 * (lo + hi), hi, hi + 2.0 * scale), (0.01, 0.1, 1.0, 10.0)
        ):
            lam = max(t - lo, 0.0) + extra * scale
            for solver in (eep_tsv_portfolio, eep_tsv_s_portfolio):
                got, want = (solved(solver, m, t, lam, chain) for chain in (new, ref))
                if isinstance(want, str) or isinstance(got, str):
                    assert got == want
                    continue
                if kind != "steep":  # a few ulps of a weight
                    np.testing.assert_allclose(got.weights, want.weights, rtol=0.0, atol=2e-15)
                assert got.objective == pytest.approx(want.objective, rel=1e-14, abs=0.0)
                if got.regime != want.regime:  # the winner sits on t to rounding
                    assert abs(want.expected_loss - t) <= 1e-15 * spread
    assert interior >= 8


@given(seed=st.integers(0, 10_000), d=st.integers(2, 10))
@settings(max_examples=30, deadline=None)
def test_frontier_below_every_probe(seed, d):
    m = random_model(seed, d)
    segments = _long_only_frontier(m, _short_selling_top(m))
    top = segments[0].hi
    for p in probes(d, n=500, seed=seed):
        xi = float(p @ m.mu_vec)
        if xi <= top:
            var = float(p @ m.cov @ p)
            assert frontier_variance(segments, xi) <= var + 1e-12 * (1.0 + var)
