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
independent brute-force check.
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
    """A supremum plus the piecewise branch that produced it."""

    value: float
    regime: str


@dataclass(frozen=True)
class ComplementBounds:
    """The six first/second-order bounds linked by complement/reflection."""

    sup_plus1: float
    inf_plus1: float
    sup_plus2: float
    inf_plus2: float
    sup_minus2: float
    inf_minus2: float


def _neg_part(x: float) -> float:
    return max(-x, 0.0)


def _pos_part(x: float) -> float:
    return max(x, 0.0)


def _require_family(p: MomentProfile, fam: Family) -> None:
    if fam is Family.NON_NEGATIVE and p.mu <= 0.0:
        raise NonNegativeRequiresPositiveMean(
            f"non-negative family needs mu > 0, got mu={p.mu}"
        )


def _check_budget(lam: float | None) -> None:
    if lam is None:
        return
    if not math.isfinite(lam) or lam <= 0.0:
        raise InvalidBudget(f"finite budget must be > 0, got {lam}")


def wc_expected_regret(p: MomentProfile, t: float, fam: Family) -> WorstCaseValue:
    """Worst-case expected regret ``sup E[(X - t)_+]`` over the family.

    Piecewise closed forms:

    * arbitrary: ``(mu - t + sqrt(sigma^2 + (mu - t)^2)) / 2`` for all t;
    * symmetric: ``((8(mu-t)^2 + sigma^2) / (8(mu-t))`` left of
      ``mu - sigma/2``, ``(mu + sigma - t)/2`` in the middle band, and
      ``sigma^2 / (8(t - mu))`` right of ``mu + sigma/2``;
    * non-negative (mu > 0): ``mu - t`` for negative thresholds,
      ``mu - mu^2 t / (sigma^2 + mu^2)`` up to ``(sigma^2 + mu^2)/(2 mu)``,
      then the arbitrary-family value.
    """
    _require_family(p, fam)
    if not math.isfinite(t):
        raise InvalidThreshold(f"threshold must be finite, got {t}")
    mu, sg = p.mu, p.sigma
    if fam is Family.ARBITRARY:
        val = 0.5 * (mu - t + math.hypot(sg, mu - t))
        return WorstCaseValue(val, "all t")
    if fam is Family.SYMMETRIC:
        if t < mu - sg / 2.0:
            val = (8.0 * (mu - t) ** 2 + sg * sg) / (8.0 * (mu - t))
            return WorstCaseValue(val, "t < mu - sigma/2")
        if t < mu + sg / 2.0:
            return WorstCaseValue(0.5 * (mu + sg - t), "mu - sigma/2 <= t < mu + sigma/2")
        return WorstCaseValue(sg * sg / (8.0 * (t - mu)), "t >= mu + sigma/2")
    # non-negative support, mu > 0
    if t < 0.0:
        return WorstCaseValue(mu - t, "t < 0")
    split = (sg * sg + mu * mu) / (2.0 * mu)
    if t < split:
        val = mu - mu * mu * t / (sg * sg + mu * mu)
        return WorstCaseValue(val, "0 <= t < (sigma^2+mu^2)/(2 mu)")
    val = 0.5 * (mu - t + math.hypot(sg, mu - t))
    return WorstCaseValue(val, "t >= (sigma^2+mu^2)/(2 mu)")


def wc_target_semivariance(p: MomentProfile, t: float, fam: Family) -> WorstCaseValue:
    """Worst-case target semi-variance ``sup E[(X - t)_+^2]``.

    The arbitrary and non-negative families share the value
    ``sigma^2 + (mu - t)_+^2``; symmetry halves the tail mass and gives a
    three-branch form ending at ``sigma^2 / 2`` once the threshold passes
    the mean.
    """
    _require_family(p, fam)
    if not math.isfinite(t):
        raise InvalidThreshold(f"threshold must be finite, got {t}")
    mu, sg = p.mu, p.sigma
    if fam is Family.SYMMETRIC:
        if t <= mu - sg:
            return WorstCaseValue(sg * sg + (t - mu) ** 2, "t <= mu - sigma")
        if t <= mu:
            return WorstCaseValue(0.5 * (mu - t + sg) ** 2, "mu - sigma < t <= mu")
        return WorstCaseValue(0.5 * sg * sg, "t > mu")
    val = sg * sg + _pos_part(mu - t) ** 2
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
    _require_family(p, fam)
    if not math.isfinite(t):
        raise InvalidThreshold(f"threshold must be finite, got {t}")
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
        return p.sigma**2 <= p.mu * (t - p.mu)
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
    _require_family(p, fam)
    if not math.isfinite(t):
        raise InvalidThreshold(f"threshold must be finite, got {t}")
    if lam is None:
        return wc_target_semivariance(p, t, fam)
    _check_budget(lam)
    mu, sg = p.mu, p.sigma
    floor = _neg_part(mu - t)
    if lam < floor:
        raise EmptyUncertaintySet(
            f"budget {lam} is below the attainable floor (mu-t)_- = {floor}"
        )
    if not set_nonempty(p, t, lam, fam):
        raise EmptyUncertaintySet(
            f"no {fam.value} distribution with mu={mu}, sigma={sg} satisfies "
            f"E[(X-t)_-] <= {lam} at t={t}"
        )
    if lam == floor:
        # Jensen equality pins X <= t a.s., so the upside is empty.  Exact
        # float equality on purpose: the supremum really jumps to 0 here,
        # and one ulp above the floor it takes the positive branch's value.
        return WorstCaseValue(0.0, "lambda == (mu-t)_-")
    if fam is not Family.SYMMETRIC:
        val = sg * sg + _pos_part(mu - t) ** 2
        return WorstCaseValue(val, "lambda > (mu-t)_-")

    m = lam + mu - t
    if sg <= m:
        case = "sigma<=m"
    elif sg <= 2.0 * m:
        case = "m<sigma<=2m"
    else:
        case = "sigma>2m"
    if t > mu:
        return WorstCaseValue(0.5 * sg * sg, f"{case}; t>mu")
    s = mu - t
    if sg <= s:
        return WorstCaseValue(sg * sg + s * s, f"{case}; t<=mu-sigma")
    if sg < 2.0 * m - s:
        sub = "mu-sigma<t<=mu" if case == "sigma<=m" else "mu+sigma-2m<t<=mu"
        return WorstCaseValue(0.5 * (s + sg) ** 2, f"{case}; {sub}")
    # Budget binds: two-point mass at mu +/- sigma would need
    # (sigma + s)/2 <= m, i.e. sigma < 2m - s, which just failed.
    val = 0.5 * sg * sg + 2.0 * m * s - 0.5 * s * s
    sub = "t<=mu+sigma-2m" if case == "m<sigma<=2m" else "t<=mu"
    return WorstCaseValue(val, f"{case}; {sub}")


def _symmetric_slope(p: MomentProfile, t: float, lam: float, dsigma: float) -> float:
    """Slope of the budgeted symmetric value above the floor along a path
    with ``d mu = 1`` and ``d sigma = dsigma``: the derivative of the branch
    that :func:`wc_target_semivariance_constrained` selects at ``p``.

    With ``s = mu - t`` the branches' slopes are ``sigma dsigma``
    (``t > mu``), ``2 sigma dsigma + 2s`` (``sigma <= s``),
    ``(s + sigma)(1 + dsigma)`` (the two-point pair) and
    ``sigma dsigma + 2 lam + 3s`` (budget binds).
    """
    s, sg = p.mu - t, p.sigma
    if s < 0.0:
        return sg * dsigma
    if sg <= s:
        return 2.0 * sg * dsigma + 2.0 * s
    if sg < 2.0 * lam + s:
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
