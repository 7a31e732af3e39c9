import decimal
import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
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
from wctsv.errors import WctsvError
from wctsv.worst_case import _symmetric_slope, _symmetric_value

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


@pytest.mark.parametrize("huge", [1e160, 1e300])
@pytest.mark.parametrize("fam", [ARB, SYM, NN])
@pytest.mark.parametrize("measure", ["regret", "tsv", "tsv_constrained"])
def test_value_beyond_the_floats_raises_invalid_profile(measure, fam, huge):
    # where sigma^2 or (mu - t)^2 leaves the floats the closed form raises a
    # domain error, never an OverflowError or an infinite or NaN value; the
    # regret grows like sigma and |mu - t|, so it stays finite here
    evaluate = {
        "regret": wc_expected_regret,
        "tsv": wc_target_semivariance,
        "tsv_constrained": lambda p, t, fam: wc_target_semivariance_constrained(
            p, t, max(t - p.mu, 0.0) + 1.0, fam
        ),
    }[measure]
    for mu, sigma, t in ((huge, 1.0, 0.0), (1.0, huge, 0.0), (1.0, huge, 1.0), (1.0, 1.0, -huge)):
        p = profile(mu, sigma)
        if measure == "regret":
            assert math.isfinite(evaluate(p, t, fam).value)
        else:
            with pytest.raises(InvalidProfile, match="not finite"):
                evaluate(p, t, fam)


def exact_regret(mu, sigma, t, fam):
    """The regret as (regime, value), the value exact, or to 50 digits where
    it is the arbitrary form (every t of the arbitrary family, the last
    branch of the non-negative one)."""
    m, s, t = Fraction(mu), Fraction(sigma), Fraction(t)
    if fam is SYM:
        if t < m - s / 2:
            return "t < mu - sigma/2", (8 * (m - t) ** 2 + s * s) / (8 * (m - t))
        if t < m + s / 2:
            return "mu - sigma/2 <= t < mu + sigma/2", (m + s - t) / 2
        return "t >= mu + sigma/2", s * s / (8 * (t - m))
    if fam is NN:
        if t < 0:
            return "t < 0", m - t
        if t < (s * s + m * m) / (2 * m):
            return "0 <= t < (sigma^2+mu^2)/(2 mu)", m - m * m * t / (s * s + m * m)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        gap, sd = Decimal(mu) - Decimal(float(t)), Decimal(sigma)
        root = (sd * sd + gap * gap).sqrt()
        # (gap + root) / 2, without its cancellation where gap < 0
        value = Fraction((gap + root) / 2 if gap >= 0 else sd * sd / (2 * (root - gap)))
        return ("all t" if fam is ARB else "t >= (sigma^2+mu^2)/(2 mu)"), value


@pytest.mark.parametrize("fam", [ARB, SYM, NN])
def test_regret_answers_where_its_squares_leave_the_floats(fam):
    # magnitudes from 1e100 to 1e308, so squares overflow and nothing
    # underflows: the regret raises a domain error only where its exact value
    # is beyond the floats and is otherwise within rounding of it, whichever
    # branch rounding picks near an edge (the value is smooth across each).
    # The first draws sit at the floats' edge, where mu - t itself overflows,
    # or hypot(sigma, mu - t) or hypot(mu, sigma) would although the regret fits
    rng = np.random.default_rng(20)
    edges = [(1e308, 1e308, -1e308), (1e308, 1e308, 1.7e308), (1e308, 1.7e308, -1e308)]
    edges += [(1e308, 1e308, 0.0), (1.3e308, 1.3e308, 0.0), (1.3e308, 1.3e308, 1e308)]
    if fam is SYM:
        edges += [(-1e308, 1e308, 1e308), (-1e308, 1.7e308, 1.7e308), (-1.7e308, 1e300, 1e308)]
    draws = []
    for _ in range(2000):
        mu, sigma, t = rng.choice((-1.0, 1.0), size=3) * 10.0 ** rng.uniform(100, 308, size=3)
        mu, sigma, t = float(abs(mu) if fam is NN else mu), float(abs(sigma)), float(t)
        if rng.random() < 0.3:
            t = mu + float(rng.normal()) * sigma
        draws.append((mu, sigma, t))
    checked = 0
    for mu, sigma, t in edges + draws:
        regime, value = exact_regret(mu, sigma, t, fam)
        if value >= 2**1024:
            with pytest.raises(InvalidProfile, match="not finite"):
                wc_expected_regret(profile(mu, sigma), t, fam)
            continue
        got = wc_expected_regret(profile(mu, sigma), t, fam).value
        assert abs(Fraction(got) - value) <= 1e-15 * value, (mu, sigma, t)
        checked += 1
    assert checked >= 1000


def regret_60(mu, sigma, t, fam):
    """The regret to 60 digits: the branch chosen and the rational forms
    evaluated exactly, the arbitrary form's square root taken to 60 digits."""
    m, s, x = Fraction(mu), Fraction(sigma), Fraction(t)

    def dec(q):
        return Decimal(q.numerator) / Decimal(q.denominator)

    with decimal.localcontext() as ctx:
        ctx.prec = 60
        if fam is ARB or (fam is NN and x >= (s * s + m * m) / (2 * m)):
            gap = m - x
            root = dec(s * s + gap * gap).sqrt()
            return (dec(gap) + root) / 2 if gap >= 0 else dec(s * s) / (2 * (root - dec(gap)))
        return dec(exact_regret(mu, sigma, t, fam)[1])


def regret_ulps(mu, sigma, t, fam):
    """The regret's error in units in the last place of its exact value, or
    None where that value is not a normal float."""
    exact = regret_60(mu, sigma, t, fam)
    unit = math.ulp(float(exact))
    if not sys.float_info.min <= float(exact) < math.inf:
        return None
    got = wc_expected_regret(profile(mu, sigma), t, fam).value
    return float(abs(Decimal(got) - exact) / Decimal(unit))


@pytest.mark.parametrize("mu, sigma, t, fam", [
    (0.0, 1.0, 1e9, ARB),  # (s + hypot(sigma, s)) / 2 with s = mu - t < 0 gave 0.0
    (1.0, 1.0, 1e9, NN),  # the same form, the non-negative family's last branch
    (-1e308, 1e300, 1e308, ARB),  # hypot(sigma, s) - s beyond the floats
    (-1e308, 1e10, 1e308, ARB),  # s itself beyond the floats
    (1.0, 3e-16, 1.0, SYM),  # (mu + sigma - t) / 2 gave 1.11e-16 for 1.5e-16
    (-4.42e180, 1.24e165, -4.42e180, SYM),  # and 4.61e164 for 6.19e164
    (1e-200, 1e-40, 1e119, NN),  # mu^2 underflows: 1e-200 for 9e-201
    (2.382486707483291e-107, 4.735657137540217e-121, 1.458900599632013e-116, NN),  # mu^2 t does
    # (sigma^2 + mu^2) underflows in the split, which sent t to the last branch
    (1.6188774670849791e-260, 8.061910743270526e-250, 8.690783507168934e-250, NN),
    # (mu - t)^2 underflows in the symmetric left branch, which gave 0.0
    (4.666654827152399e-190, 1.1960567393199836e-240, 7.021460095365597e-268, SYM),
    # mu + sigma/2 rounds to t, which took the right branch (1.812e50, not 1.669e50)
    (-1.3985118770764997e66, 5.208138546398679e50, -1.3985118770764995e66, SYM),
    # sigma^2 underflows in the symmetric right branch, which gave 0.0
    (4.523704521953274e-251, 2.487900921901381e-229, 1.2439504609506908e-229, SYM),
    # (mu - t) + sigma overflows in the band, which raised for a value of 1e308
    (0.0, 1.5e308, -5e307, SYM),
])
def test_regret_forms_that_cancelled_are_accurate(mu, sigma, t, fam):
    assert regret_ulps(mu, sigma, t, fam) <= 4.0
    if fam is SYM:
        got = wc_expected_regret(profile(mu, sigma), t, fam).regime
        assert got == exact_regret(mu, sigma, t, fam)[0]


@pytest.mark.parametrize("fam", [ARB, SYM, NN])
def test_regret_is_within_four_ulps_over_the_floats(fam):
    # magnitudes 1e-300 to 1e300, thresholds near mu, near the symmetric
    # band's edges, near the non-negative split (sigma^2 + mu^2)/(2 mu) and
    # anywhere; every branch of every family is within 4 ulps of a 60-digit
    # reference wherever the exact value is a normal float
    rng = np.random.default_rng(22)
    draws = []
    for _ in range(1500):
        mu, sigma, t = rng.choice((-1.0, 1.0), size=3) * 10.0 ** rng.uniform(-300, 300, size=3)
        mu, sigma = float(abs(mu) if fam is NN else mu), float(abs(sigma))
        u = rng.random()
        if u < 0.3:
            t = mu + float(rng.normal()) * sigma
        elif u < 0.5:
            t = mu + float(rng.choice((-0.5, 0.5))) * sigma * (1.0 + float(rng.normal()) * 1e-15)
        elif u < 0.6:
            t = mu * (1.0 + float(rng.normal()) * 1e-12)
        draws.append((mu, sigma, float(t)))
    for _ in range(600):
        mu, sigma = (float(x) for x in 10.0 ** rng.uniform(-300, 300, size=2))
        split = 0.5 * mu + 0.5 * sigma * (sigma / mu)
        draws.append((mu, sigma, split * (1.0 + float(rng.normal()) * 1e-15)))
    checked = 0
    for mu, sigma, t in draws:
        err = regret_ulps(mu, sigma, t, fam) if math.isfinite(t) else None
        if err is not None:
            assert err <= 4.0, (mu, sigma, t)
            checked += 1
    assert checked >= 1700


def test_symmetric_core_is_the_public_evaluators_bit_for_bit():
    # the portfolio rules call _symmetric_value with floats; the public
    # evaluators must return the same bits, the same regime and the same
    # error class (None is an empty set), in every budget regime, on either
    # side of mu, exactly on the floor, below it, and beyond the floats
    rng = np.random.default_rng(22)
    cases = [(0.0, 0.0, 1.0, None), (0.0, math.nan, 1.0, 1.0), (1e200, 1.0, -1e200, None)]
    cases += [(0.0, 1e200, 1.0, 2.0), (1e200, 1.0, -1e200, 1.0), (0.0, 2.0, 2.0, 2.0)]
    for _ in range(3000):
        mu = float(rng.normal())
        sigma = float(10.0 ** rng.uniform(-3, 1))
        t = mu + float(rng.uniform(-3.0, 3.0)) * sigma
        floor = max(t - mu, 0.0)
        lam = rng.choice([None, floor, 0.5 * floor, floor + float(rng.exponential()) * sigma])
        cases.append((mu, sigma, t, None if lam is None else float(lam) or None))

    def outcome(call):
        try:
            r = call()
        except WctsvError as exc:
            return type(exc)
        if r is None:
            return EmptyUncertaintySet
        value, regime = r if isinstance(r, tuple) else (r.value, r.regime)
        return value.hex(), regime

    seen = set()
    for mu, sigma, t, lam in cases:
        core = outcome(lambda: _symmetric_value(mu, sigma, t, lam))
        public = outcome(
            lambda: wc_target_semivariance_constrained(profile(mu, sigma), t, lam, SYM)
        )
        assert core == public, (mu, sigma, t, lam)
        if lam is None:
            assert outcome(lambda: wc_target_semivariance(profile(mu, sigma), t, SYM)) == core
        seen.add(core[1] if isinstance(core, tuple) else core)
    assert {EmptyUncertaintySet, InvalidProfile, "lambda == (mu-t)_-"} <= seen
    assert {"t <= mu - sigma", "mu - sigma < t <= mu", "t > mu"} <= seen
    assert {f"{case}; t>mu" for case in ("sigma<=m", "m<sigma<=2m", "sigma>2m")} <= seen
    assert {"sigma<=m; t<=mu-sigma", "sigma<=m; mu-sigma<t<=mu"} <= seen  # budget slack
    assert {"m<sigma<=2m; mu+sigma-2m<t<=mu", "m<sigma<=2m; t<=mu+sigma-2m"} <= seen
    assert "sigma>2m; t<=mu" in seen  # budget binds


@pytest.mark.parametrize("huge", [1e160, 1e300])
def test_huge_moments_in_the_membership_and_reflection_raise_invalid_profile(huge):
    # exactly on the floor the non-negative membership test squares sigma
    with pytest.raises(InvalidProfile):
        set_nonempty(profile(1.0, huge), 2.0, 1.0, NN)
    assert not set_nonempty(profile(1.0, 1e150), 2.0, 1.0, NN)
    with pytest.raises(InvalidProfile):
        reflect_complement_bounds(profile(0.0, huge), 0.0, SYM)


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
    budgeted=st.booleans(),
)
@example(mu=0.0, t=1.0, sigma=1.0, extra=0.5, d_sigma=0.3, budgeted=True)  # t > mu
@example(mu=1.0, t=0.0, sigma=0.5, extra=1.0, d_sigma=0.3, budgeted=True)  # sigma <= s
# s < sigma < 2 lam + s
@example(mu=1.0, t=0.0, sigma=1.5, extra=1.0, d_sigma=0.3, budgeted=True)
@example(mu=0.5, t=0.0, sigma=3.0, extra=0.2, d_sigma=0.3, budgeted=True)  # budget binds
# no budget: the pair's branch where a budget would bind
@example(mu=0.5, t=0.0, sigma=3.0, extra=0.2, d_sigma=0.3, budgeted=False)
@settings(max_examples=300, deadline=None)
def test_symmetric_slope_is_the_derivative_inside_each_regime(
    mu, t, sigma, extra, d_sigma, budgeted
):
    # along mu + k, sigma + d_sigma k each branch is quadratic in k, so a
    # central difference inside one regime is exact up to rounding
    k = 1e-3
    assume(sigma - abs(d_sigma) * k > 0.0)
    # above the floor at every point used; None is no budget
    lam = max(t - mu + k, 0.0) + extra if budgeted else None

    def at(step):
        p = profile(mu + step, sigma + d_sigma * step)
        return wc_target_semivariance_constrained(p, t, lam, SYM)

    lo, mid, hi = at(-k), at(0.0), at(k)
    # the regimes are cut out by lines in (mu, sigma), so equal tags at the
    # ends put the whole path in one regime
    assume(lo.regime == mid.regime == hi.regime)
    slope = _symmetric_slope(mu, sigma, t, lam, d_sigma)
    assert slope == pytest.approx((hi.value - lo.value) / (2.0 * k), rel=1e-7, abs=1e-9)

