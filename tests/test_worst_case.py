import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wctsv import (
    ComplementBounds,
    EmptyUncertaintySet,
    Family,
    InvalidBudget,
    InvalidProfile,
    InvalidThreshold,
    MomentProfile,
    NonNegativeRequiresPositiveMean,
    reflect_complement_bounds,
    set_nonempty,
    wc_expected_regret,
    wc_target_semivariance,
    wc_target_semivariance_constrained,
)
from wctsv.worst_case import _symmetric_slope

ARB, SYM, NN = Family.ARBITRARY, Family.SYMMETRIC, Family.NON_NEGATIVE


def profile(mu, sigma):
    return MomentProfile(mu=mu, sigma=sigma)


# frozen spot values, hand-checked
REGRET_CASES = [
    (0.0, 1.0, 0.0, ARB, 0.5),
    (1.0, 2.0, 0.5, ARB, 0.25 + math.sqrt(4.25) / 2.0),
    (0.0, 1.0, 1.0, SYM, 0.125),
    (0.0, 1.0, -1.0, SYM, 1.125),
    (0.0, 1.0, 0.25, SYM, 0.375),
    (1.0, 1.0, 0.0, NN, 1.0),
    (1.0, 1.0, -2.0, NN, 3.0),
    (1.0, 1.0, 2.0, NN, 0.5 * (-1.0 + math.sqrt(2.0))),
]

TSV_CASES = [
    (1.0, 2.0, 0.0, ARB, 5.0),
    (0.0, 1.0, 1.0, ARB, 1.0),
    (0.0, 1.0, 0.5, SYM, 0.5),
    (0.0, 1.0, -0.5, SYM, 1.125),
    (0.0, 1.0, -2.0, SYM, 5.0),
    (1.0, 1.0, 0.5, NN, 1.25),
]

CONSTRAINED_CASES = [
    (0.0, 1.0, 0.0, 0.5, ARB, 1.0),
    (0.0, 1.0, 1.0, 1.0, ARB, 0.0),
    (0.0, 1.0, -1.0, 2.0, ARB, 2.0),
    (0.0, 0.4, 0.5, 1.0, SYM, 0.08),
    (0.0, 2.5, -0.8, 1.0, SYM, 5.445),
    (0.0, 2.5, -0.4, 1.0, SYM, 4.165),
    (0.0, 2.0, -0.2, 0.5, SYM, 2.26),
    (0.0, 1.0, -0.5, 2.0, SYM, 1.125),
    (0.0, 2.0, 2.0, 2.0, SYM, 0.0),
]


@pytest.mark.parametrize("mu,sigma,t,fam,expected", REGRET_CASES)
def test_regret_values(mu, sigma, t, fam, expected):
    got = wc_expected_regret(profile(mu, sigma), t, fam).value
    assert got == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("mu,sigma,t,fam,expected", TSV_CASES)
def test_tsv_values(mu, sigma, t, fam, expected):
    got = wc_target_semivariance(profile(mu, sigma), t, fam).value
    assert got == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("mu,sigma,t,lam,fam,expected", CONSTRAINED_CASES)
def test_constrained_values(mu, sigma, t, lam, fam, expected):
    got = wc_target_semivariance_constrained(profile(mu, sigma), t, lam, fam).value
    assert got == pytest.approx(expected, abs=1e-12)


def test_regime_tags_are_stable():
    assert wc_expected_regret(profile(0, 1), 0, ARB).regime == "all t"
    assert wc_target_semivariance(profile(0, 1), -0.5, SYM).regime == "mu - sigma < t <= mu"
    got = wc_target_semivariance_constrained(profile(0, 2), -0.2, 0.5, SYM)
    assert got.regime == "sigma>2m; t<=mu"
    got = wc_target_semivariance_constrained(profile(0, 2), 2.0, 2.0, SYM)
    assert got.regime == "lambda == (mu-t)_-"
    # the supremum jumps on the floor lam = t - mu: 0 there, the positive
    # branch's value one ulp above it
    above = math.nextafter(2.0, math.inf)
    for fam, positive in ((SYM, 2.0), (ARB, 4.0)):
        assert wc_target_semivariance_constrained(profile(0, 2), 2.0, 2.0, fam).value == 0.0
        assert wc_target_semivariance_constrained(profile(0, 2), 2.0, above, fam).value == positive


@pytest.mark.parametrize(
    "fam,boundary",
    [
        (SYM, "regret_left"),   # t = mu - sigma/2
        (SYM, "regret_right"),  # t = mu + sigma/2
        (SYM, "tsv_left"),      # t = mu - sigma
        (SYM, "tsv_mid"),       # t = mu
        (NN, "regret_zero"),    # t = 0
        (NN, "regret_split"),   # t = (sigma^2 + mu^2) / (2 mu)
    ],
)
def test_branch_continuity(fam, boundary):
    mu, sigma = 0.7, 1.3
    p = profile(mu, sigma)
    t = {
        "regret_left": mu - sigma / 2,
        "regret_right": mu + sigma / 2,
        "tsv_left": mu - sigma,
        "tsv_mid": mu,
        "regret_zero": 0.0,
        "regret_split": (sigma**2 + mu**2) / (2 * mu),
    }[boundary]
    fn = wc_target_semivariance if boundary.startswith("tsv") else wc_expected_regret
    at = fn(p, t, fam).value
    h = 1e-9
    assert fn(p, t - h, fam).value == pytest.approx(at, abs=1e-7)
    assert fn(p, t + h, fam).value == pytest.approx(at, abs=1e-7)


def test_constrained_continuity_at_budget_boundary():
    # the binding and non-binding branches agree where sigma = 2m - (mu - t)
    mu, t, lam = 0.0, -0.5, 0.3
    m = lam + mu - t
    s = mu - t
    sigma = 2 * m - s
    p = profile(mu, sigma)
    at = wc_target_semivariance_constrained(p, t, lam, SYM).value
    assert at == pytest.approx(2 * m * m, abs=1e-12)
    for eps in (-1e-9, 1e-9):
        near = wc_target_semivariance_constrained(profile(mu, sigma + eps), t, lam, SYM).value
        assert near == pytest.approx(at, abs=1e-7)


def test_constrained_matches_unconstrained_when_budget_huge():
    for mu, sigma, t, fam in [(0.3, 1.1, -0.4, SYM), (0.3, 1.1, 0.9, SYM), (-1, 2, 0.5, ARB), (1, 0.5, 0.2, NN)]:
        p = profile(mu, sigma)
        lam = 1e6 * sigma
        free = wc_target_semivariance(p, t, fam).value
        capped = wc_target_semivariance_constrained(p, t, lam, fam).value
        assert capped == pytest.approx(free, rel=1e-9)


def test_budget_monotone_in_lambda():
    p = profile(0.0, 2.0)
    t = -0.2
    values = [
        wc_target_semivariance_constrained(p, t, lam, SYM).value
        for lam in [0.01, 0.05, 0.2, 0.5, 1.0, 2.0, 5.0, 50.0]
    ]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] <= wc_target_semivariance(p, t, SYM).value + 1e-12


def test_set_nonempty():
    assert set_nonempty(profile(0, 1), 5.0, None, ARB)
    assert set_nonempty(profile(0, 1), 0.5, 1.0, SYM)
    assert not set_nonempty(profile(0, 1), 2.0, 1.0, ARB)
    # boundary lam == (mu - t)_-, family-specific
    assert set_nonempty(profile(0, 1), 1.0, 1.0, ARB)
    assert set_nonempty(profile(1, 0.5), 2.0, 1.0, NN)
    assert not set_nonempty(profile(1, 2), 2.0, 1.0, NN)
    # on the floor every member has X <= t, so symmetry needs sigma <= t - mu
    assert set_nonempty(profile(0, 1), 1.0, 1.0, SYM)
    assert not set_nonempty(profile(0, 1.5), 1.0, 1.0, SYM)


def test_empty_set_raises():
    with pytest.raises(EmptyUncertaintySet):
        wc_target_semivariance_constrained(profile(0, 1), 2.0, 1.0, ARB)
    with pytest.raises(EmptyUncertaintySet):
        wc_target_semivariance_constrained(profile(0, 3), 2.0, 2.0, SYM)


def test_input_validation():
    with pytest.raises(InvalidProfile):
        MomentProfile(0.0, 0.0)
    with pytest.raises(InvalidProfile):
        MomentProfile(0.0, -1.0)
    with pytest.raises(InvalidProfile):
        MomentProfile(math.inf, 1.0)
    with pytest.raises(NonNegativeRequiresPositiveMean):
        wc_expected_regret(profile(0.0, 1.0), 0.0, NN)
    with pytest.raises(NonNegativeRequiresPositiveMean):
        wc_target_semivariance(profile(-1.0, 1.0), 0.0, NN)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InvalidBudget):
            wc_target_semivariance_constrained(profile(0, 1), 0.0, bad, ARB)
    with pytest.raises(ValueError):
        reflect_complement_bounds(profile(1, 1), 0.0, NN)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda p, t, fam: wc_expected_regret(p, t, fam),
        lambda p, t, fam: wc_target_semivariance(p, t, fam),
        lambda p, t, fam: wc_target_semivariance_constrained(p, t, 1.0, fam),
        lambda p, t, fam: set_nonempty(p, t, 1.0, fam),
    ],
    ids=["regret", "tsv", "tsv_constrained", "set_nonempty"],
)
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("fam", [ARB, SYM, NN])
def test_non_finite_threshold_rejected(evaluate, t, fam):
    with pytest.raises(InvalidThreshold):
        evaluate(profile(1.0, 1.0), t, fam)


def test_reflection_bounds_arbitrary():
    b = reflect_complement_bounds(profile(0, 1), 1.0, ARB)
    assert b.sup_minus2 == pytest.approx(2.0, abs=1e-12)
    assert b.sup_plus2 == pytest.approx(1.0, abs=1e-12)
    assert b.inf_plus1 == 0.0
    assert b.inf_plus2 == pytest.approx(0.0, abs=1e-12)
    assert b.inf_minus2 == pytest.approx(1.0, abs=1e-12)


def test_reflection_bounds_symmetric():
    b = reflect_complement_bounds(profile(0, 1), -0.5, SYM)
    # mirrored problem sits in its above-mean branch: sigma^2 / 2
    assert b.sup_minus2 == pytest.approx(0.5, abs=1e-12)
    assert b.sup_plus2 == pytest.approx(1.125, abs=1e-12)
    second = 1.0 + 0.25
    assert b.inf_plus2 == pytest.approx(second - b.sup_minus2, abs=1e-12)
    assert b.inf_minus2 == pytest.approx(second - b.sup_plus2, abs=1e-12)
    assert b.inf_plus1 == 0.5


moments = st.tuples(
    st.floats(-3, 3),
    st.floats(0.1, 4),
    st.floats(-3, -1e-3) | st.floats(1e-3, 3),
)


@given(moments, st.floats(-5, 5), st.sampled_from([ARB, SYM]))
@settings(max_examples=200, deadline=None)
def test_translation_invariance(ms, shift, fam):
    mu, sigma, q = ms
    t = mu + q * sigma
    base = wc_target_semivariance(profile(mu, sigma), t, fam).value
    moved = wc_target_semivariance(profile(mu + shift, sigma), t + shift, fam).value
    assert moved == pytest.approx(base, rel=1e-9, abs=1e-9)


@given(moments, st.floats(0.1, 10), st.sampled_from([ARB, SYM]))
@settings(max_examples=200, deadline=None)
def test_homogeneity(ms, scale, fam):
    mu, sigma, q = ms
    t = mu + q * sigma
    p1, p2 = profile(mu, sigma), profile(scale * mu, scale * sigma)
    r1 = wc_expected_regret(p1, t, fam).value
    r2 = wc_expected_regret(p2, scale * t, fam).value
    assert r2 == pytest.approx(scale * r1, rel=1e-9, abs=1e-12)
    v1 = wc_target_semivariance(p1, t, fam).value
    v2 = wc_target_semivariance(p2, scale * t, fam).value
    assert v2 == pytest.approx(scale * scale * v1, rel=1e-9, abs=1e-12)


@given(moments)
@settings(max_examples=200, deadline=None)
def test_shape_restriction_never_raises_value(ms):
    mu, sigma, q = ms
    t = mu + q * sigma
    p = profile(mu, sigma)
    arb_r = wc_expected_regret(p, t, ARB).value
    arb_v = wc_target_semivariance(p, t, ARB).value
    assert wc_expected_regret(p, t, SYM).value <= arb_r + 1e-12
    assert wc_target_semivariance(p, t, SYM).value <= arb_v + 1e-12
    if mu > 0:
        assert wc_expected_regret(p, t, NN).value <= arb_r + 1e-12
        assert wc_target_semivariance(p, t, NN).value <= arb_v + 1e-12


@given(moments, st.floats(1e-3, 10), st.sampled_from([ARB, SYM, NN]))
@settings(max_examples=300, deadline=None)
def test_constrained_below_unconstrained_and_nonnegative(ms, extra, fam):
    mu, sigma, q = ms
    if fam is NN and mu <= 0:
        mu = abs(mu) + 0.1
    t = mu + q * sigma
    p = profile(mu, sigma)
    lam = max(t - mu, 0.0) + extra * sigma
    capped = wc_target_semivariance_constrained(p, t, lam, fam).value
    assert capped >= 0.0
    assert capped <= wc_target_semivariance(p, t, fam).value + 1e-12


@given(moments, st.sampled_from([ARB, SYM]))
@settings(max_examples=200, deadline=None)
def test_values_decrease_in_threshold(ms, fam):
    mu, sigma, q = ms
    t = mu + q * sigma
    p = profile(mu, sigma)
    lo = wc_target_semivariance(p, t, fam).value
    hi = wc_target_semivariance(p, t + 0.5 * sigma, fam).value
    assert hi <= lo + 1e-12
    assert wc_expected_regret(p, t + 0.5 * sigma, fam).value <= wc_expected_regret(p, t, fam).value + 1e-12


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda p, t, lam, fam: wc_expected_regret(p, t, fam),
        lambda p, t, lam, fam: wc_target_semivariance(p, t, fam),
        lambda p, t, lam, fam: wc_target_semivariance_constrained(p, t, lam, fam),
    ],
    ids=["regret", "tsv", "tsv_constrained"],
)
@given(moments, st.floats(0.0, 2.0), st.none() | st.floats(1e-6, 4.0), st.sampled_from([ARB, SYM, NN]))
@settings(max_examples=200, deadline=None)
def test_non_decreasing_in_sigma(evaluate, ms, d_sigma, extra, fam):
    mu, sigma, q = ms
    t = mu + q * sigma
    # lam is None (no budget) or above the floor (mu - t)_-
    lam = None if extra is None else max(t - mu, 0.0) + extra
    # the non-negative set is empty unless mu > 0
    assume(fam is not NN or mu > 0.0)
    base = evaluate(profile(mu, sigma), t, lam, fam).value
    wider = evaluate(profile(mu, sigma + d_sigma), t, lam, fam).value
    assert base <= wider + 1e-12 * (1.0 + base)


@given(moments)
@settings(max_examples=200, deadline=None)
def test_complement_identity(ms):
    mu, sigma, q = ms
    t = mu + q * sigma
    for fam in (ARB, SYM):
        b = reflect_complement_bounds(profile(mu, sigma), t, fam)
        second = sigma * sigma + (t - mu) ** 2
        assert b.sup_plus2 + b.inf_minus2 == pytest.approx(second, rel=1e-12, abs=1e-12)
        assert b.sup_minus2 + b.inf_plus2 == pytest.approx(second, rel=1e-12, abs=1e-12)
        assert isinstance(b, ComplementBounds)
        assert b.inf_plus2 >= -1e-12 and b.inf_minus2 >= -1e-12
        assert b.inf_plus1 <= b.sup_plus1 + 1e-12


@given(
    mu=st.floats(-3.0, 3.0),
    t=st.floats(-3.0, 3.0),
    sigma=st.floats(1e-2, 5.0),
    extra=st.floats(1e-3, 4.0),
    d_sigma=st.floats(-3.0, 3.0),
)
@example(mu=0.0, t=1.0, sigma=1.0, extra=0.5, d_sigma=0.3)  # t > mu
@example(mu=1.0, t=0.0, sigma=0.5, extra=1.0, d_sigma=0.3)  # sigma <= s
@example(mu=1.0, t=0.0, sigma=1.5, extra=1.0, d_sigma=0.3)  # s < sigma < 2 lam + s
@example(mu=0.5, t=0.0, sigma=3.0, extra=0.2, d_sigma=0.3)  # budget binds
@settings(max_examples=300, deadline=None)
def test_symmetric_slope_is_the_derivative_inside_each_regime(mu, t, sigma, extra, d_sigma):
    # along mu + k, sigma + d_sigma k each branch is quadratic in k, so a
    # central difference inside one regime is exact up to rounding
    k = 1e-3
    assume(sigma - abs(d_sigma) * k > 0.0)
    lam = max(t - mu + k, 0.0) + extra  # above the floor at every point used

    def at(step):
        p = profile(mu + step, sigma + d_sigma * step)
        return wc_target_semivariance_constrained(p, t, lam, SYM)

    lo, mid, hi = at(-k), at(0.0), at(k)
    # the regimes are cut out by lines in (mu, sigma), so equal tags at the
    # ends put the whole path in one regime
    assume(lo.regime == mid.regime == hi.regime)
    slope = _symmetric_slope(profile(mu, sigma), t, lam, d_sigma)
    assert slope == pytest.approx((hi.value - lo.value) / (2.0 * k), rel=1e-7, abs=1e-9)

