import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wctsv import (
    DiscreteDistribution,
    EmptyUncertaintySet,
    Family,
    InfeasibleConstraints,
    InfeasibleSupport,
    InvalidBudget,
    InvalidProfile,
    InvalidThreshold,
    MomentProfile,
    NoKnownWitness,
    WctsvError,
    brute_force_worst_case,
    certify,
    partial_moments,
    two_point_match,
    wc_target_semivariance,
    wc_target_semivariance_constrained,
    witness_family,
)
from wctsv import oracle

ARB, SYM, NN = Family.ARBITRARY, Family.SYMMETRIC, Family.NON_NEGATIVE


class TestDiscreteDistribution:
    def test_from_pairs_merges_and_drops(self):
        d = DiscreteDistribution.from_pairs([(0.3, 0.25), (0.3 + 5e-13, 0.25), (1.0, 0.5), (2.0, 0.0)])
        assert d.atoms == ((0.3, 0.5), (1.0, 0.5))

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(((0.0, 0.6), (1.0, 0.6)))
        with pytest.raises(ValueError):
            DiscreteDistribution(((0.0, -0.1), (1.0, 1.1)))
        with pytest.raises(ValueError):
            DiscreteDistribution(((1.0, 0.5), (0.0, 0.5)))
        with pytest.raises(ValueError):
            DiscreteDistribution(())

    def test_moments(self):
        d = DiscreteDistribution(((-1.0, 0.5), (1.0, 0.5)))
        assert d.mean() == 0.0
        assert d.variance() == 1.0

    def test_is_symmetric(self):
        sym = DiscreteDistribution(((-2.0, 0.1), (-1.0, 0.4), (1.0, 0.4), (2.0, 0.1)))
        assert sym.is_symmetric()
        assert sym.is_symmetric(center=0.0)
        assert not sym.is_symmetric(center=0.5)
        skew = DiscreteDistribution(((-1.0, 0.75), (3.0, 0.25)))
        assert not skew.is_symmetric()


class TestPartialMoments:
    def test_hand_values(self):
        d = DiscreteDistribution(((-1.0, 0.5), (1.0, 0.5)))
        pm = partial_moments(d, 0.0)
        assert (pm.upm1, pm.upm2, pm.lpm1, pm.lpm2) == (0.5, 0.5, 0.5, 0.5)
        pm = partial_moments(d, -2.0)
        assert pm.upm2 == 5.0
        assert pm.lpm1 == 0.0

    def test_atom_at_threshold_contributes_nothing(self):
        d = DiscreteDistribution(((1.0, 1.0),))
        pm = partial_moments(d, 1.0)
        assert pm.upm1 == pm.upm2 == pm.lpm1 == pm.lpm2 == 0.0

    @given(
        st.lists(st.tuples(st.floats(-10, 10), st.floats(0.01, 1)), min_size=1, max_size=8),
        st.floats(-12, 12),
    )
    @settings(max_examples=200, deadline=None)
    def test_first_and_second_order_identities(self, raw, t):
        total = sum(p for _, p in raw)
        pairs = [(round(x, 6), p / total) for x, p in raw]
        d = DiscreteDistribution.from_pairs(pairs)
        pm = partial_moments(d, t)
        assert pm.upm1 - pm.lpm1 == pytest.approx(pm.mean - t, abs=1e-12)
        second = pm.variance + (pm.mean - t) ** 2
        assert pm.upm2 + pm.lpm2 == pytest.approx(second, rel=1e-12, abs=1e-12)


class TestTwoPointMatch:
    def test_unbounded(self):
        d = two_point_match(0.3, 1.7)
        assert d.atoms == ((0.3 - 1.7, 0.5), (0.3 + 1.7, 0.5))

    def test_lower_bound_pins_atom(self):
        d = two_point_match(1.0, 1.0, lower=0.0)
        assert d.atoms == ((0.0, 0.5), (2.0, 0.5))
        assert d.mean() == pytest.approx(1.0, abs=1e-12)
        assert d.variance() == pytest.approx(1.0, rel=1e-12)

    def test_upper_bound_pins_atom(self):
        d = two_point_match(0.0, 1.0, upper=1.0)
        assert d.atoms == ((-1.0, 0.5), (1.0, 0.5))

    def test_both_bounds_at_capacity_hits_endpoints(self):
        d = two_point_match(0.5, 0.5, lower=0.0, upper=1.0)
        assert d.atoms[0][0] == pytest.approx(0.0, abs=1e-12)
        assert d.atoms[1][0] == pytest.approx(1.0, abs=1e-12)

    def test_infeasible(self):
        with pytest.raises(InfeasibleSupport):
            two_point_match(0.5, 0.6, lower=0.0, upper=1.0)
        with pytest.raises(InfeasibleSupport):
            two_point_match(0.0, 1.0, lower=0.5)
        with pytest.raises(InvalidProfile):
            two_point_match(0.0, 0.0)

    @given(st.floats(-2, 2), st.floats(0.05, 1.0), st.floats(0.1, 3), st.floats(0.1, 3))
    @example(mu=0.0, frac=1.0, below=3.0, above=1.625)  # sqrt(cap)^2 rounds above cap
    @settings(max_examples=200, deadline=None)
    def test_moments_exact_inside_interval(self, mu, frac, below, above):
        lower, upper = mu - below, mu + above
        cap = (mu - lower) * (upper - mu)
        sigma = math.sqrt(frac * cap)
        # the fit is promised only for sigma^2 <= cap; step a rounded-up
        # sigma down so the capacity edge itself is still exercised
        while sigma * sigma > cap:
            sigma = math.nextafter(sigma, 0.0)
        d = two_point_match(mu, sigma, lower, upper)
        assert lower - 1e-12 <= d.atoms[0][0] and d.atoms[-1][0] <= upper + 1e-12
        assert d.mean() == pytest.approx(mu, abs=1e-9)
        assert d.variance() == pytest.approx(sigma * sigma, rel=1e-9)


def check_membership(d, p, t, lam):
    assert d.mean() == pytest.approx(p.mu, abs=1e-9)
    assert d.variance() == pytest.approx(p.sigma**2, rel=1e-9)
    if lam is not None:
        assert partial_moments(d, t).lpm1 <= lam + 1e-9


class TestWitnessFamily:
    def test_symmetric_two_point_attains(self):
        p = MomentProfile(0.0, 1.0)
        d = witness_family(p, -0.5, None, SYM, 1e-3)
        assert d.atoms == ((-1.0, 0.5), (1.0, 0.5))
        assert partial_moments(d, -0.5).upm2 == wc_target_semivariance(p, -0.5, SYM).value

    def test_symmetric_three_point_value(self):
        p = MomentProfile(0.0, 1.0)
        d = witness_family(p, 0.5, None, SYM, 1e-4)
        assert d.is_symmetric(center=0.0)
        got = partial_moments(d, 0.5).upm2
        assert got == pytest.approx((math.sqrt(0.5) - 0.005) ** 2, rel=1e-12)

    def test_three_point_converges_monotonically(self):
        p = MomentProfile(0.3, 1.4)
        t = 0.9
        closed = wc_target_semivariance(p, t, SYM).value
        vals = [partial_moments(witness_family(p, t, None, SYM, e), t).upm2 for e in (1e-2, 1e-3, 1e-4, 1e-5)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < closed
        assert closed - vals[-1] <= 5e-3 * (p.sigma**2 + (t - p.mu) ** 2)

    def test_exploding_atom_family_converges(self):
        # above the mean the sup is a limit, approached from below as eps drops
        p = MomentProfile(0.0, 1.0)
        closed = wc_target_semivariance(p, 0.5, ARB).value
        vals = [partial_moments(witness_family(p, 0.5, None, ARB, e), 0.5).upm2 for e in (1e-2, 1e-3, 1e-4, 1e-5)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < closed
        assert closed - vals[-1] <= 5e-3 * closed

    def test_exploding_atom_family_exact_below_mean(self):
        # once the lower atom clears the threshold both atoms sit above t
        # and the two matched moments already give the supremum
        p = MomentProfile(1.0, 2.0)
        closed = wc_target_semivariance(p, 0.0, ARB).value
        got = partial_moments(witness_family(p, 0.0, None, ARB, 1e-3), 0.0).upm2
        assert got == pytest.approx(closed, rel=1e-12)

    def test_nonnegative_support_guard(self):
        p = MomentProfile(1.0, 2.0)
        d = witness_family(p, 0.0, None, NN, 0.1)
        assert d.atoms[0][0] >= 0.0
        with pytest.raises(NoKnownWitness):
            witness_family(p, 0.0, None, NN, 0.24)

    def test_budget_binding_four_atoms(self):
        p = MomentProfile(0.0, 2.0)
        t, lam = -0.2, 0.5
        d = witness_family(p, t, lam, SYM, 1e-3)
        assert len(d.atoms) == 4
        assert d.is_symmetric(center=0.0)
        check_membership(d, p, t, lam)
        pm = partial_moments(d, t)
        assert pm.lpm1 == pytest.approx(lam, abs=1e-12)  # budget binds exactly
        assert pm.upm2 == pytest.approx(
            wc_target_semivariance_constrained(p, t, lam, SYM).value, abs=1e-12
        )

    def test_budget_slack_keeps_two_point(self):
        p = MomentProfile(0.0, 1.0)
        d = witness_family(p, -0.5, 2.0, SYM, 1e-3)
        assert d.atoms == ((-1.0, 0.5), (1.0, 0.5))
        check_membership(d, p, -0.5, 2.0)

    def test_equality_budget_boundary(self):
        # arbitrary: pinned below the threshold, budget binds, value 0
        d = witness_family(MomentProfile(0.0, 1.0), 1.0, 1.0, ARB, 1e-3)
        check_membership(d, MomentProfile(0.0, 1.0), 1.0, 1.0)
        assert partial_moments(d, 1.0).upm2 == 0.0
        # non-negative: feasible iff sigma^2 <= mu (t - mu)
        d = witness_family(MomentProfile(1.0, 0.5), 2.0, 1.0, NN, 1e-3)
        assert d.atoms[0][0] >= 0.0
        assert partial_moments(d, 2.0).upm2 == 0.0
        with pytest.raises(NoKnownWitness):
            witness_family(MomentProfile(1.0, 2.0), 2.0, 1.0, NN, 1e-3)
        # symmetric: feasible iff sigma <= t - mu
        d = witness_family(MomentProfile(0.0, 1.0), 1.0, 1.0, SYM, 1e-3)
        check_membership(d, MomentProfile(0.0, 1.0), 1.0, 1.0)
        assert partial_moments(d, 1.0).upm2 == 0.0
        with pytest.raises(NoKnownWitness):
            witness_family(MomentProfile(0.0, 1.5), 1.0, 1.0, SYM, 1e-3)

    def test_budget_too_tight_for_coarse_eps(self):
        p = MomentProfile(0.0, 1.0)
        with pytest.raises(NoKnownWitness):
            witness_family(p, 0.5, 0.51, SYM, 1e-2)
        d = witness_family(p, 0.5, 0.51, SYM, 1e-4)
        check_membership(d, p, 0.5, 0.51)

    def test_budget_binding_with_subnormal_budget(self):
        # lam^2 underflows, so the outer atoms' mass would be 0 and their arm
        # lam / 0: no explicit member, not a ZeroDivisionError
        p = MomentProfile(-0.286, 1.0)
        with pytest.raises(NoKnownWitness):
            witness_family(p, -0.286, 5e-324, SYM, 1e-3)
        rep = certify(p, -0.286, 5e-324, SYM)
        assert (rep.best_value, rep.witness) == (None, None)
        closed = wc_target_semivariance_constrained(p, -0.286, 5e-324, SYM).value
        assert rep.upper_value == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("mu,sigma,t,lam,fam,eps", [
        (-0.286, 1e150, -0.286, 1e-5, SYM, 1e-3),  # budget-binding arm lam/pm = 5e304
        (0.0, 1e160, 1.0, None, SYM, 1e-3),  # sigma^2 overflows the three-point arm
        (0.0, 1e300, 1.0, None, ARB, 1e-12),  # the exploding atom leaves the floats
        (0.0, 1e150, 1.0, None, ARB, 1e-12),  # its squared deviation does
    ])
    def test_member_whose_moments_overflow(self, mu, sigma, t, lam, fam, eps):
        with pytest.raises(NoKnownWitness):
            witness_family(MomentProfile(mu, sigma), t, lam, fam, eps)

    def test_certify_with_overflowing_member(self):
        # the certified upper value stands without a lower member
        p = MomentProfile(-0.286, 1e150)
        rep = certify(p, -0.286, 1e-5, SYM)
        assert (rep.best_value, rep.witness) == (None, None)
        closed = wc_target_semivariance_constrained(p, -0.286, 1e-5, SYM).value
        assert rep.upper_value == pytest.approx(closed, rel=1e-12)
        # sigma^2 itself overflows: no upper value can be formed
        with pytest.raises(InvalidProfile):
            certify(MomentProfile(-0.286, 1e160), -0.286, 1e-5, SYM)

    def test_certify_on_huge_sigma_raises_only_domain_errors(self):
        rng = random.Random(0)
        answered = 0
        for _ in range(300):
            fam = rng.choice(list(Family))
            sg = 10 ** rng.uniform(100, 160)
            mu = 10 ** rng.uniform(-3, 160)
            if fam is not NN:
                mu *= rng.choice([-1, 1])
            t = mu + rng.gauss(0, 1) * sg * 10 ** rng.uniform(-3, 2)
            lam = rng.choice([None, max(t - mu, 0) + sg * 10 ** rng.uniform(-14, 1)])
            try:
                rep = certify(MomentProfile(mu, sg), t, lam, fam)
            except WctsvError:
                continue
            assert rep.upper_value is None or math.isfinite(rep.upper_value)
            assert rep.best_value is None or math.isfinite(rep.best_value)
            answered += 1
        assert answered >= 100

    def test_eps_domain(self):
        p = MomentProfile(0.0, 1.0)
        for bad in (0.0, 0.25, -0.1, 1.0):
            with pytest.raises(ValueError):
                witness_family(p, 0.0, None, SYM, bad)


ORACLE_CASES = [
    (0.0, 1.0, -0.5, None, SYM, 5),
    (0.0, 1.0, 0.5, None, SYM, 5),
    (1.0, 2.0, 0.0, None, ARB, 3),
    (1.0, 1.0, 0.8, None, NN, 3),
    (0.0, 2.5, -0.4, 1.0, SYM, 6),
    (0.0, 2.0, -0.2, 0.5, SYM, 6),
    (0.0, 1.0, 0.0, 0.5, ARB, 3),
    (0.0, 1.0, 1.0, 1.0, SYM, 6),
]


def check_family(d, fam, p):
    if fam is SYM:
        assert d.is_symmetric(center=p.mu, tol=1e-9)
    if fam is NN:
        assert d.atoms[0][0] >= 0.0


def check_bracket(rep, p, t, lam, fam):
    """Lower and upper values bracket the closed form within 1e-9 of the
    scale; the lower one is a member's value, at most 1e-5 of the scale
    short (the vanishing tails of limit regimes fall about 1e-6 short)."""
    closed = wc_target_semivariance_constrained(p, t, lam, fam).value
    scale = p.sigma**2 + (t - p.mu) ** 2
    assert closed - 1e-5 * scale <= rep.best_value <= closed + 1e-9 * scale
    assert closed - 1e-9 * scale <= rep.upper_value <= closed + 1e-9 * scale
    check_membership(rep.witness, p, t, lam)
    check_family(rep.witness, fam, p)
    assert rep.best_value == partial_moments(rep.witness, t).upm2


@pytest.mark.parametrize("mu,sigma,t,lam,fam,k", ORACLE_CASES)
def test_oracle_brackets_closed_form(mu, sigma, t, lam, fam, k):
    p = MomentProfile(mu, sigma)
    rep = brute_force_worst_case(p, t, lam, fam, k=k)
    check_bracket(rep, p, t, lam, fam)
    assert rep == certify(p, t, lam, fam)


def random_tuple(rng, fam, budgeted):
    mu = rng.uniform(0.05, 2.0) if fam is NN else rng.uniform(-2.0, 2.0)
    sigma = rng.uniform(0.2, 3.0)
    t = mu + rng.uniform(-2.5, 2.5) * sigma
    lam = None
    if budgeted:
        lam = max(t - mu, 0.0) + sigma * 10 ** rng.uniform(-3.0, 1.0)
    return MomentProfile(mu, sigma), t, lam


@pytest.mark.parametrize("budgeted", [False, True])
@pytest.mark.parametrize("fam", [ARB, SYM, NN])
def test_certify_brackets_random_tuples(fam, budgeted):
    rng = random.Random(f"{fam.value}:{budgeted}")
    for _ in range(150):
        p, t, lam = random_tuple(rng, fam, budgeted)
        check_bracket(certify(p, t, lam, fam), p, t, lam, fam)


@pytest.mark.parametrize("fam", [ARB, SYM, NN])
def test_certify_on_the_budget_floor(fam):
    # exactly on the floor every member lies at or below t, so the
    # supremum jumps to 0; an ulp above the floor it does not
    p, t = MomentProfile(1.0, 0.5), 2.0
    rep = certify(p, t, 1.0, fam)
    assert (rep.best_value, rep.upper_value, rep.multipliers) == (0.0, 0.0, (0.0,) * 4)
    check_membership(rep.witness, p, t, 1.0)
    check_family(rep.witness, fam, p)
    above = math.nextafter(1.0, 2.0)
    closed = wc_target_semivariance_constrained(p, t, above, fam).value
    assert closed > 0.0
    assert certify(p, t, above, fam).upper_value == pytest.approx(closed, rel=1e-9)
    check_bracket(certify(p, t, 1.0 + 1e-3, fam), p, t, 1.0 + 1e-3, fam)


LIMIT_CASES = [
    (0.0, 1.0, 0.5, None, SYM),
    (0.3, 1.7, 2.0, 2.5, SYM),
    (0.0, 1.0, 0.0, None, ARB),
    (-0.5, 2.0, 1.5, None, ARB),
    (1.0, 1.0, 2.0, 1.5, ARB),
    (1.0, 0.5, 1.5, None, NN),
]


@pytest.mark.parametrize("mu,sigma,t,lam,fam", LIMIT_CASES)
def test_limit_regimes_need_the_column_at_infinity(monkeypatch, mu, sigma, t, lam, fam):
    p = MomentProfile(mu, sigma)
    check_bracket(certify(p, t, lam, fam), p, t, lam, fam)
    # without it, atoms may only run out to the pricing horizon, and the
    # dual bound falls below the supremum
    monkeypatch.setattr(oracle, "_at_infinity", lambda pieces: [])
    rep = certify(p, t, lam, fam)
    closed = wc_target_semivariance_constrained(p, t, lam, fam).value
    scale = sigma**2 + (t - mu) ** 2
    assert rep.upper_value < closed - 1e-9 * scale


def test_multipliers_certify_by_weak_duality():
    # at the budget-binding point of criterion 1 the multipliers are exact
    rep = certify(MomentProfile(0.0, 2.0), -0.2, 0.5, SYM)
    assert rep.multipliers == pytest.approx((3 / 50, 0.0, 1 / 2, 2 / 5), abs=1e-12)
    a0, a1, a2, b = rep.multipliers
    assert rep.upper_value == pytest.approx(a0 + a2 * 4.0 + b * 0.5, abs=1e-12)
    assert rep.best_value == pytest.approx(2.26, abs=1e-12)


def test_oracle_is_deterministic():
    # no seeds: the same inputs give the same report, byte for byte
    rng = random.Random(5)
    for fam in (ARB, SYM, NN):
        for budgeted in (False, True):
            p, t, lam = random_tuple(rng, fam, budgeted)
            assert repr(certify(p, t, lam, fam)) == repr(certify(p, t, lam, fam))


def test_oracle_validation():
    p = MomentProfile(0.0, 1.0)
    for fam, k in ((SYM, 4), (SYM, 3), (SYM, 2), (ARB, 5), (ARB, 2), (NN, 6)):
        with pytest.raises(ValueError):
            brute_force_worst_case(p, 0.0, None, fam, k=k)
    with pytest.raises(InfeasibleConstraints):
        brute_force_worst_case(MomentProfile(-1.0, 1.0), 0.0, None, NN, k=3)
    with pytest.raises(InvalidBudget):
        certify(p, 0.0, 0.0, SYM)
    with pytest.raises(InvalidThreshold):
        certify(p, math.inf, None, ARB)


def test_oracle_reports_an_empty_set():
    # on the budget floor no symmetric member has sigma > t - mu
    with pytest.raises(InfeasibleConstraints):
        certify(MomentProfile(0.0, 1.5), 1.0, 1.0, SYM)
    with pytest.raises(EmptyUncertaintySet):
        wc_target_semivariance_constrained(MomentProfile(0.0, 1.5), 1.0, 1.0, SYM)
    # nor a non-negative one with sigma^2 > mu (t - mu)
    with pytest.raises(InfeasibleConstraints):
        certify(MomentProfile(1.0, 2.0), 2.0, 1.0, NN)
    # below the floor the budget cannot be met at all
    with pytest.raises(InfeasibleConstraints):
        certify(MomentProfile(0.0, 1.0), 1.0, 0.5, ARB)


def test_oracle_two_point_families():
    # where a two-point member attains the supremum, it is the one returned
    p = MomentProfile(0.0, 1.0)
    rep = brute_force_worst_case(p, -0.5, None, SYM, k=5)
    assert rep.witness.atoms == ((-1.0, 0.5), (1.0, 0.5))
    p = MomentProfile(1.0, 1.0)
    rep = brute_force_worst_case(p, 0.5, None, NN, k=3)
    assert rep.witness.atoms[0][0] >= 0.0
    check_membership(rep.witness, p, 0.5, None)
