"""Closed-form worst-case partial moments over moment uncertainty sets.

Conventions used throughout the package: ``X`` is a per-period *loss*
(positive values hurt), ``t`` is the threshold loss so the target return is
``-t``, downside is ``(X - t)_+`` and excess profit is ``(X - t)_-``.  An
uncertainty set collects every distribution with mean ``mu``, standard
deviation ``sigma`` and optionally a shape restriction (symmetric about its
mean, or non-negative support) and/or the budget ``E[(X - t)_-] <= lam``.

Each evaluator returns the exact supremum of the requested partial moment
over the set, together with a regime tag naming the piecewise branch that
fired.  Suprema are attained or approached by explicit discrete
distributions; see :mod:`wctsv.oracle` for the constructions and for the
independent two-sided check by a moment LP.  A supremum that does not fit
in a float, such as one with ``sigma^2`` or ``(mu - t)^2`` beyond the
largest double, raises :class:`~wctsv.errors.InvalidProfile`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import (
    EmptyUncertaintySet,
    InvalidBudget,
    InvalidProfile,
    InvalidThreshold,
    NonNegativeRequiresPositiveMean,
)

__all__ = [
    "Family",
    "MomentProfile",
    "WorstCaseValue",
    "ComplementBounds",
    "wc_expected_regret",
    "wc_target_semivariance",
    "wc_target_semivariance_constrained",
    "set_nonempty",
    "reflect_complement_bounds",
]

# the budgeted regime exactly on the floor (mu - t)_-, where the supremum is 0
_ON_FLOOR = "lambda == (mu-t)_-"


class Family(enum.Enum):
    """Shape restriction of the uncertainty set."""

    ARBITRARY = "arbitrary"
    SYMMETRIC = "symmetric"
    NON_NEGATIVE = "nonnegative"


@dataclass(frozen=True)
class MomentProfile:
    """Known mean and standard deviation of the loss, in loss units.

    ``sigma`` must be strictly positive: every closed form below assumes a
    non-degenerate distribution, so a zero-variance profile is rejected
    rather than treated as a point mass.
    """

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise InvalidProfile(f"non-finite moments ({self.mu}, {self.sigma})")
        if self.sigma <= 0.0:
            raise InvalidProfile(f"sigma must be > 0, got {self.sigma}")


@dataclass(frozen=True)
class WorstCaseValue:
    """A supremum plus the piecewise branch that produced it.  The value is
    finite: one beyond the floats raises :class:`InvalidProfile`."""

    value: float
    regime: str

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise InvalidProfile(f"worst case {self.value} is not finite")


@dataclass(frozen=True)
class ComplementBounds:
    """The six first/second-order bounds linked by complement/reflection."""

    sup_plus1: float
    inf_plus1: float
    sup_plus2: float
    inf_plus2: float
    sup_minus2: float
    inf_minus2: float


def _not_finite(mu: float, sigma: float, t: float) -> InvalidProfile:
    return InvalidProfile(f"worst case is not finite at mu={mu}, sigma={sigma}, t={t}")


def _neg_part(x: float) -> float:
    return max(-x, 0.0)


def _pos_part(x: float) -> float:
    return max(x, 0.0)


def _require_inputs(p: MomentProfile, t: float, fam: Family) -> None:
    if fam is Family.NON_NEGATIVE and p.mu <= 0.0:
        raise NonNegativeRequiresPositiveMean(
            f"non-negative family needs mu > 0, got mu={p.mu}"
        )
    if not math.isfinite(t):
        raise InvalidThreshold(f"threshold must be finite, got {t}")


def _check_budget(lam: float) -> None:
    if not math.isfinite(lam) or lam <= 0.0:
        raise InvalidBudget(f"finite budget must be > 0, got {lam}")


def wc_expected_regret(p: MomentProfile, t: float, fam: Family) -> WorstCaseValue:
    """Worst-case expected regret ``sup E[(X - t)_+]`` over the family.

    One form per branch, with ``s = mu - t``:

    * arbitrary, every t: ``(s + hypot(sigma, s)) / 2``, evaluated as
      :func:`_arbitrary_regret` does;
    * symmetric, left of ``mu - sigma/2``: ``s + sigma^2 / (8 s)``, as
      ``s + sigma/8 (sigma/s)``;
    * symmetric, the band ``mu - sigma/2 <= t < mu + sigma/2``:
      ``(s + sigma) / 2``, as ``s/2 + sigma/2``;
    * symmetric, right of ``mu + sigma/2``: ``sigma^2 / (8 (t - mu))``, as
      ``sigma/16 (sigma / (t/2 - mu/2))``;
    * non-negative (mu > 0): ``mu - t`` for negative thresholds, then
      ``mu - mu^2 t / (sigma^2 + mu^2)`` below the split
      ``(sigma^2 + mu^2)/(2 mu)``, as ``mu - (t c / h) (mu/2)`` with ``h =
      hypot(mu/2, sigma/2)`` and ``c = (mu/2) / h`` (``t c / h`` is ``t``
      over the split, at most 1), and the arbitrary value from the split on;
      the split is evaluated as ``mu/2 + sigma/2 (sigma/mu)``.

    No form squares an input, so each returns a finite supremum wherever it
    is a float.  Error bounds, derived as in Higham (2002, section 3) with
    unit roundoff ``u = 2^-53``, a hypot within one ulp (relative error
    ``2u``) and no intermediate below the normal floats, include the
    rounding of ``s`` itself.  A relative error of ``k u`` is below ``k``
    ulps of the value:

    * symmetric left branch: both terms are positive and the second is at
      most half the first (``sigma < 2s``), so ``(s u + 3u sigma^2/(8s)) /
      value + u <= 8u/3``: under 3 ulps;
    * symmetric band: the value is at least ``sigma/4`` and ``|s|/2`` at
      most ``sigma/4``, so ``|s|/2 u / value + u <= 2u``: under 2 ulps;
    * symmetric right branch: three roundings in a product and a quotient:
      under 3 ulps;
    * non-negative, ``t < 0``: one rounding, half an ulp;
    * non-negative middle branch: ``c`` is within ``3u``, and the product,
      the quotient by ``h`` (within ``2u``) and the product with ``mu/2``
      put the subtrahend within ``8u``; it is below ``mu/2`` and so below
      the value, and the subtraction adds ``u``: under 9 ulps;
    * non-negative, last branch: as the arbitrary family.

    The branch is chosen on rounded ``s`` or split, but the value is
    continuously differentiable across each edge (the symmetric slopes are
    ``1/2`` on both sides of both band edges, the non-negative ones
    ``-mu^2/(sigma^2 + mu^2)`` on both sides of the split), so a branch
    chosen within rounding of its edge errs by ``O(u^2)`` only.  The band's
    edges compare ``2 s`` with ``sigma`` exactly, so they do not round with
    ``mu``.
    """
    _require_inputs(p, t, fam)
    mu, sg = p.mu, p.sigma
    if fam is Family.ARBITRARY:
        return WorstCaseValue(_arbitrary_regret(mu, sg, t), "all t")
    if fam is Family.SYMMETRIC:
        s = mu - t
        if 2.0 * s > sg:
            return WorstCaseValue(s + sg / 8.0 * (sg / s), "t < mu - sigma/2")
        if 2.0 * s > -sg:
            return WorstCaseValue(0.5 * s + 0.5 * sg, "mu - sigma/2 <= t < mu + sigma/2")
        return WorstCaseValue(sg / 16.0 * (sg / (0.5 * t - 0.5 * mu)), "t >= mu + sigma/2")
    # non-negative support, mu > 0
    if t < 0.0:
        return WorstCaseValue(mu - t, "t < 0")
    if t < 0.5 * mu + 0.5 * sg * (sg / mu):
        h = math.hypot(0.5 * mu, 0.5 * sg)
        val = mu - t * (0.5 * mu / h) / h * (0.5 * mu)
        return WorstCaseValue(val, "0 <= t < (sigma^2+mu^2)/(2 mu)")
    return WorstCaseValue(_arbitrary_regret(mu, sg, t), "t >= (sigma^2+mu^2)/(2 mu)")


def _arbitrary_regret(mu: float, sg: float, t: float) -> float:
    """``(s + hypot(sigma, s)) / 2`` with ``s = mu - t``.

    For ``s >= 0`` it is evaluated as ``s/2 + hypot(sigma/2, s/2)``: both
    terms are positive, ``s`` is within ``u`` and the hypot within ``3u``
    (its own ``2u`` plus the rounding of ``s``), and the sum adds ``u``, so
    the error is under 4 ulps.  For ``s < 0`` the sum cancels, and the
    value is ``sigma^2 / (2 (hypot(sigma, s) - s))``, evaluated at an eighth
    of the scale so that the denominator stays finite: ``hypot - s`` adds
    two positive terms (within ``4u``), and a quotient and a product add
    ``2u``, so the error is under 6 ulps.  Halving and taking an eighth are
    exact wherever the result is a normal float.
    """
    s = mu - t
    if s >= 0.0:
        return 0.5 * s + math.hypot(0.5 * sg, 0.5 * s)
    e = 0.125 * mu - 0.125 * t
    return 0.125 * sg * (0.5 * sg / (math.hypot(0.125 * sg, e) - e))


def wc_target_semivariance(p: MomentProfile, t: float, fam: Family) -> WorstCaseValue:
    """Worst-case target semi-variance ``sup E[(X - t)_+^2]``.

    The arbitrary and non-negative families share the value
    ``sigma^2 + (mu - t)_+^2``; symmetry halves the tail mass and gives a
    three-branch form ending at ``sigma^2 / 2`` once the threshold passes
    the mean.
    """
    _require_inputs(p, t, fam)
    if fam is Family.SYMMETRIC:
        return WorstCaseValue(*_symmetric_value(p.mu, p.sigma, t, None))
    mu = p.mu
    try:
        val = p.sigma * p.sigma + _pos_part(mu - t) ** 2
    except OverflowError:  # a ** 2 beyond the floats
        raise _not_finite(mu, p.sigma, t) from None
    return WorstCaseValue(val, "t < mu" if t < mu else "t >= mu")


def set_nonempty(p: MomentProfile, t: float, lam: float | None, fam: Family) -> bool:
    """Whether the budgeted uncertainty set contains any distribution.

    An unconstrained set (``lam is None``) is always non-empty.  With a
    finite budget the set is non-empty when ``lam`` exceeds the Jensen floor
    ``(mu - t)_-``; exactly on the floor every member has ``X <= t`` almost
    surely and the family determines whether the variance target is still
    reachable: the non-negative family needs ``sigma^2 <= mu (t - mu)``, the
    symmetric family ``sigma <= t - mu`` (symmetry about ``mu`` turns
    ``X <= t`` into ``|X - mu| <= t - mu``), the arbitrary family nothing
    extra.
    """
    _require_inputs(p, t, fam)
    if lam is None:
        return True
    _check_budget(lam)
    floor = _neg_part(p.mu - t)
    if lam > floor:
        return True
    if lam < floor:
        return False
    if fam is Family.ARBITRARY:
        return True
    if fam is Family.NON_NEGATIVE:
        try:
            return p.sigma**2 <= p.mu * (t - p.mu)
        except OverflowError:
            raise _not_finite(p.mu, p.sigma, t) from None
    return p.sigma <= t - p.mu


def wc_target_semivariance_constrained(
    p: MomentProfile, t: float, lam: float | None, fam: Family
) -> WorstCaseValue:
    """Worst-case target semi-variance under ``E[(X - t)_-] <= lam``.

    ``lam is None`` means unconstrained and reproduces
    :func:`wc_target_semivariance`.  On the boundary ``lam == (mu - t)_-``
    (necessarily ``t > mu`` since finite budgets are positive) every member
    is supported below ``t`` and the supremum collapses to 0.  Above the
    boundary the arbitrary and non-negative values are unchanged by the
    budget; the symmetric value depends on where ``sigma`` falls relative to
    the shifted budget ``m = lam + mu - t``:

    * ``sigma <= m``: budget slack everywhere, unconstrained three-branch
      values;
    * ``sigma < 2m - (mu - t)`` (with ``t <= mu``): the symmetric two-point
      pair at ``mu +/- sigma`` still fits the budget and attains
      ``(mu - t + sigma)^2 / 2``;
    * ``sigma >= 2m - (mu - t)``: the two-point pair violates the budget;
      the supremum is attained by a four-atom configuration whose budget
      binds exactly, with value ``sigma^2/2 + 2m(mu - t) - (mu - t)^2/2``;
    * ``t > mu``: vanishing-mass tails keep the budget slack, value
      ``sigma^2 / 2``.

    Raises :class:`EmptyUncertaintySet` when the set has no member.
    """
    _require_inputs(p, t, fam)
    if lam is None:
        return wc_target_semivariance(p, t, fam)
    _check_budget(lam)
    if fam is Family.SYMMETRIC:
        r = _symmetric_value(p.mu, p.sigma, t, lam)
        if r is None:
            raise _empty_set(p, t, lam, fam)
        return WorstCaseValue(*r)
    floor = _neg_part(p.mu - t)
    # above the floor every set has a member; on it the family decides, and
    # the supremum is 0 (exact equality on purpose, see _symmetric_value)
    if lam < floor or (lam == floor and not set_nonempty(p, t, lam, fam)):
        raise _empty_set(p, t, lam, fam)
    if lam == floor:
        return WorstCaseValue(0.0, _ON_FLOOR)
    return WorstCaseValue(wc_target_semivariance(p, t, fam).value, "lambda > (mu-t)_-")


def _empty_set(p: MomentProfile, t: float, lam: float, fam: Family) -> EmptyUncertaintySet:
    floor = _neg_part(p.mu - t)
    if lam < floor:
        return EmptyUncertaintySet(
            f"budget {lam} is below the attainable floor (mu-t)_- = {floor}"
        )
    return EmptyUncertaintySet(
        f"no {fam.value} distribution with mu={p.mu}, sigma={p.sigma} satisfies "
        f"E[(X-t)_-] <= {lam} at t={t}"
    )


def _symmetric_value(
    mu: float, sg: float, t: float, lam: float | None
) -> tuple[float, str] | None:
    """The symmetric family's worst case as ``(value, regime)``, or None
    where the budgeted set is empty: the one place its closed forms are
    written.  The branches are those of
    :func:`wc_target_semivariance_constrained` (``lam=None``: of
    :func:`wc_target_semivariance`).

    The portfolio rules call it with floats in their loops, having checked
    ``t`` (finite) and ``lam`` (finite and > 0) once per solve; the moments
    are checked here as :class:`MomentProfile` checks them, and a value
    beyond the floats raises :class:`InvalidProfile` as
    :class:`WorstCaseValue` does.
    """
    if not (math.isfinite(mu) and math.isfinite(sg)):
        raise InvalidProfile(f"non-finite moments ({mu}, {sg})")
    if sg <= 0.0:
        raise InvalidProfile(f"sigma must be > 0, got {sg}")
    try:
        if lam is None:
            if t <= mu - sg:
                val, regime = sg * sg + (t - mu) ** 2, "t <= mu - sigma"
            elif t <= mu:
                val, regime = 0.5 * (mu - t + sg) ** 2, "mu - sigma < t <= mu"
            else:
                val, regime = 0.5 * sg * sg, "t > mu"
        else:
            s = mu - t
            if lam <= -s:  # lam > 0, so the floor (mu - t)_- is -s here
                if lam < -s:
                    return None
                # Jensen equality pins X <= t a.s., so the upside is empty;
                # symmetry about mu turns that into |X - mu| <= t - mu.  Exact
                # float equality on purpose: the supremum really jumps to 0
                # here, and one ulp above the floor it takes a positive value.
                return (0.0, _ON_FLOOR) if sg <= t - mu else None
            m = lam + mu - t
            if sg <= m:
                case = "sigma<=m"
            elif sg <= 2.0 * m:
                case = "m<sigma<=2m"
            else:
                case = "sigma>2m"
            if t > mu:
                val, regime = 0.5 * sg * sg, f"{case}; t>mu"
            elif sg <= s:
                val, regime = sg * sg + s * s, f"{case}; t<=mu-sigma"
            elif sg < 2.0 * m - s:
                sub = "mu-sigma<t<=mu" if case == "sigma<=m" else "mu+sigma-2m<t<=mu"
                val, regime = 0.5 * (s + sg) ** 2, f"{case}; {sub}"
            else:
                # Budget binds: two-point mass at mu +/- sigma would need
                # (sigma + s)/2 <= m, i.e. sigma < 2m - s, which just failed.
                val = 0.5 * sg * sg + 2.0 * m * s - 0.5 * s * s
                sub = "t<=mu+sigma-2m" if case == "m<sigma<=2m" else "t<=mu"
                regime = f"{case}; {sub}"
    except OverflowError:  # a ** 2 beyond the floats
        raise _not_finite(mu, sg, t) from None
    if not math.isfinite(val):
        raise InvalidProfile(f"worst case {val} is not finite")
    return val, regime


def _symmetric_slope(mu: float, sg: float, t: float, lam: float | None, dsigma: float) -> float:
    """Slope of the budgeted symmetric value above the floor along a path
    with ``d mu = 1`` and ``d sigma = dsigma``: the derivative of the branch
    that :func:`_symmetric_value` selects at ``(mu, sigma)``.

    With ``s = mu - t`` the branches' slopes are ``sigma dsigma``
    (``t > mu``), ``2 sigma dsigma + 2s`` (``sigma <= s``),
    ``(s + sigma)(1 + dsigma)`` (the two-point pair) and
    ``sigma dsigma + 2 lam + 3s`` (budget binds).  ``lam=None`` means no
    budget, so the pair never breaks it.
    """
    s = mu - t
    if s < 0.0:
        return sg * dsigma
    if sg <= s:
        return 2.0 * sg * dsigma + 2.0 * s
    if lam is None or sg < 2.0 * lam + s:
        return (s + sg) * (1.0 + dsigma)
    return sg * dsigma + 2.0 * lam + 3.0 * s


def reflect_complement_bounds(p: MomentProfile, t: float, fam: Family) -> ComplementBounds:
    """All six sup/inf first- and second-order partial-moment bounds.

    Combines the family's known suprema with two exact identities: the
    complement ``E[(X-t)_+^2] + E[(X-t)_-^2] = E[(X-t)^2]`` (so sup of one
    side plus inf of the other equals ``sigma^2 + (t - mu)^2``) and the
    reflection ``sup E[(X-t)_-^k]`` over the set at ``mu`` equals
    ``sup E[(X+t)_+^k]`` over the mirrored set at ``-mu``.  ``inf_plus1`` is
    the Jensen bound ``(mu - t)_+``, attained in the vanishing-tail limit
    for both supported families.

    Only the arbitrary and symmetric families are reflection-closed; the
    non-negative family is rejected.
    """
    if fam is Family.NON_NEGATIVE:
        raise ValueError("reflection bounds are defined for the arbitrary and symmetric families")
    sup_plus1 = wc_expected_regret(p, t, fam).value
    sup_plus2 = wc_target_semivariance(p, t, fam).value
    mirrored = MomentProfile(-p.mu, p.sigma)
    sup_minus2 = wc_target_semivariance(mirrored, -t, fam).value
    second_moment = p.sigma**2 + (t - p.mu) ** 2
    return ComplementBounds(
        sup_plus1=sup_plus1,
        inf_plus1=_pos_part(p.mu - t),
        sup_plus2=sup_plus2,
        inf_plus2=second_moment - sup_minus2,
        sup_minus2=sup_minus2,
        inf_minus2=second_moment - sup_plus2,
    )
