"""Exact verification of the closed forms by a moment LP, plus explicit witnesses.

Every bound the library gives in closed form is the supremum of
E[(X-t)_+^2] over all distributions with mean mu and variance sigma^2,
optionally symmetric about mu or supported on [0, inf), and optionally held
to the budget E[(t-X)_+] <= lam.  That is a semi-infinite linear program in
the distribution's masses, with one row each for mass, mean (implied under
symmetry), variance and budget, and one column per atom (per pair
mu +/- y under symmetry).  :func:`certify` solves it by the exchange method
and never consults the closed forms, so agreement is evidence, not
circularity:

* a dense simplex method solves the LP on a coarse grid of columns: at mu,
  mu +/- sigma, the threshold, any support bound and infinity;
* the reduced cost of a column is piecewise quadratic in its location, with
  a kink only at the threshold, so its maximum over the continuum lies at a
  piece end, at a vertex or at a column at infinity;
* the best-priced column joins the grid and the LP is solved again.

A column at infinity (mass 0, variance 1, budget 0) stands for an atom or
pair running off with vanishing mass; its cost is the integrand's leading
coefficient.  The limit regimes, whose supremum no distribution attains,
need it.

Each answer is bracketed from both sides.  The lower value is
E[(X-t)_+^2] of a finite member: the LP's optimal distribution, or in a
limit regime :func:`witness_family`'s vanishing-tail member.  The upper
value is the dual value of the multipliers plus their largest positive
reduced cost, which by weak duality bounds every member.  Exactly on the
budget floor lam = (t-mu)_+ every member lies at or below t, so both are 0.

:func:`witness_family` returns the explicit (near-)worst members used to
show attainment: the symmetric two-point pair, a three-point family with
vanishing tail mass, a two-point family with an exploding upper atom, and
the budget-binding four-atom symmetric configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InfeasibleConstraints,
    InfeasibleSupport,
    InvalidBudget,
    InvalidProfile,
    InvalidThreshold,
    NoKnownWitness,
    NonConvergence,
)
from .worst_case import Family, MomentProfile

__all__ = [
    "DiscreteDistribution",
    "PartialMoments",
    "OracleReport",
    "partial_moments",
    "two_point_match",
    "witness_family",
    "certify",
    "brute_force_worst_case",
]

ATOM_MERGE_TOL = 1e-12
MASS_TOL = 1e-12
# Vanishing tails tried for a limit regime's lower member: the first falls
# about 1e-6 of the scale short of the supremum, and the finer ones spend
# less of a tight budget and keep a non-negative member's lower atom closer
# to its mean.
WITNESS_EPS_LADDER = (1e-12, 1e-18, 1e-24)
# Starting columns besides the piece ends, in units of sigma around mu: mu
# and the atoms mu +/- sigma of the two-point members.
GRID = (-1.0, 0.0, 1.0)
# Finite columns are priced out to HORIZON * (1 + farthest piece end) sigma;
# the column at infinity stands for the columns beyond.
HORIZON = 1e3
# LP tolerances.  A column at z enters when its reduced cost exceeds
# PRICE_TOL (1 + z^2) (sigma^2 + (mu - t)^2), well above its rounding.  The
# dual check passes when no reduced cost within the split (1 + the farthest
# piece end, in sigma) exceeds CERT_TOL (1 + split^2) sigma^2.  A column at
# infinity holding less than LIMIT_TOL of the variance is rounding, not a
# limit regime.
PRICE_TOL = 1e-12
PIVOT_TOL = 1e-12
CERT_TOL = 1e-9
LIMIT_TOL = 1e-12
MAX_ROUNDS = 100
MAX_PIVOTS = 100


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite support points with probabilities, sorted by location.

    Construct through :meth:`from_pairs`, which merges atoms closer than
    ``ATOM_MERGE_TOL`` and drops zero-mass points; direct construction
    validates but does not canonicalize.
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("a distribution needs at least one atom")
        total = math.fsum(p for _, p in self.atoms)
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"masses sum to {total}, not 1")
        last = -math.inf
        for x, p in self.atoms:
            if not (math.isfinite(x) and math.isfinite(p)):
                raise ValueError("non-finite atom")
            if p < 0.0:
                raise ValueError(f"negative mass {p} at {x}")
            if x <= last:
                raise ValueError("atom locations must be strictly increasing")
            last = x

    @classmethod
    def from_pairs(cls, pairs) -> "DiscreteDistribution":
        merged: list[list[float]] = []
        for x, p in sorted(pairs):
            if merged and x - merged[-1][0] <= ATOM_MERGE_TOL:
                merged[-1][1] += p
            else:
                merged.append([x, p])
        kept = tuple((x, p) for x, p in merged if p > 0.0)
        return cls(kept)

    def mean(self) -> float:
        return math.fsum(x * p for x, p in self.atoms)

    def variance(self) -> float:
        m = self.mean()
        return math.fsum(p * (x - m) ** 2 for x, p in self.atoms)

    def is_symmetric(self, center: float | None = None, tol: float = 1e-12) -> bool:
        """Invariance of (atoms, masses) under reflection about the center."""
        c = self.mean() if center is None else center
        for x, p in self.atoms:
            mirror = 2.0 * c - x
            match = [q for y, q in self.atoms if abs(y - mirror) <= tol]
            if not match or abs(math.fsum(match) - p) > tol:
                return False
        return True


@dataclass(frozen=True)
class PartialMoments:
    mean: float
    variance: float
    upm1: float
    upm2: float
    lpm1: float
    lpm2: float


def partial_moments(d: DiscreteDistribution, t: float) -> PartialMoments:
    """Exact finite sums of the first/second upper and lower partial moments."""
    mean = d.mean()
    return PartialMoments(
        mean=mean,
        variance=math.fsum(p * (x - mean) ** 2 for x, p in d.atoms),
        upm1=math.fsum(p * (x - t) for x, p in d.atoms if x > t),
        upm2=math.fsum(p * (x - t) ** 2 for x, p in d.atoms if x > t),
        lpm1=math.fsum(p * (t - x) for x, p in d.atoms if x < t),
        lpm2=math.fsum(p * (t - x) ** 2 for x, p in d.atoms if x < t),
    )


def two_point_match(
    mu: float, sigma: float, lower: float = -math.inf, upper: float = math.inf
) -> DiscreteDistribution:
    """A two-point distribution with exact mean/variance inside [lower, upper].

    With both bounds finite the masses are the endpoint mean-split
    ``p = (mu - lower)/(upper - lower)`` and the atoms shrink inward from
    the endpoints until the variance equation is met, which keeps the
    support inside the interval exactly when ``sigma^2 <= (mu - lower) *
    (upper - mu)``.  With one finite bound the atom on that side pins to the
    bound; with none, the symmetric pair ``mu +/- sigma``.
    """
    if sigma <= 0.0 or not math.isfinite(sigma):
        raise InvalidProfile(f"sigma must be > 0, got {sigma}")
    if not (lower < mu < upper):
        raise InfeasibleSupport(f"need lower < mu < upper, got {lower}, {mu}, {upper}")
    lo_fin, up_fin = math.isfinite(lower), math.isfinite(upper)
    if lo_fin and up_fin:
        cap = (mu - lower) * (upper - mu)
        if sigma * sigma > cap:
            raise InfeasibleSupport(
                f"variance {sigma * sigma} exceeds the bound (mu-lower)(upper-mu) = {cap}"
            )
        p_hi = (mu - lower) / (upper - lower)
        q_lo = 1.0 - p_hi
        pairs = [
            (mu - sigma * math.sqrt(p_hi / q_lo), q_lo),
            (mu + sigma * math.sqrt(q_lo / p_hi), p_hi),
        ]
    elif lo_fin:
        d1 = mu - lower
        q_lo = sigma * sigma / (sigma * sigma + d1 * d1)
        pairs = [(lower, q_lo), (mu + sigma * sigma / d1, 1.0 - q_lo)]
    elif up_fin:
        d2 = upper - mu
        p_hi = sigma * sigma / (sigma * sigma + d2 * d2)
        pairs = [(mu - sigma * sigma / d2, 1.0 - p_hi), (upper, p_hi)]
    else:
        pairs = [(mu - sigma, 0.5), (mu + sigma, 0.5)]
    return DiscreteDistribution.from_pairs(pairs)


def witness_family(
    p: MomentProfile,
    t: float,
    lam: float | None,
    fam: Family,
    eps: float,
) -> DiscreteDistribution:
    """The explicit (near-)worst member for the active regime.

    For regimes where the supremum is attained the returned distribution
    attains it exactly (two-point pair; budget-binding four-atom
    configuration; below-threshold support when the budget equals its
    floor).  For limit regimes the value approaches the supremum as
    ``eps`` shrinks.  Raises :class:`NoKnownWitness` where no explicit
    construction applies, including when ``eps`` is too coarse for the
    construction to stay inside the set and when the member's atoms or
    moments leave the floats.
    """
    if not (0.0 < eps < 0.25):
        raise ValueError(f"eps must lie in (0, 1/4), got {eps}")
    try:
        d = _member(p, t, lam, fam, eps)
        partial_moments(d, t)  # certify scores the member by these sums
    except OverflowError as exc:
        raise NoKnownWitness("the member's moments leave the floats") from exc
    return d


def _member(
    p: MomentProfile, t: float, lam: float | None, fam: Family, eps: float
) -> DiscreteDistribution:
    """:func:`witness_family`'s construction; raises OverflowError where an
    arm leaves the floats."""
    mu, sg = p.mu, p.sigma
    floor = max(t - mu, 0.0)

    if fam is Family.SYMMETRIC:
        # exact equality: on the floor the supremum jumps to 0 (a real
        # discontinuity), so only lam == floor itself takes this branch
        if lam is not None and lam == floor and lam > 0.0:
            # every member lives below t; feasible only for sigma <= t - mu
            if sg <= t - mu:
                return DiscreteDistribution.from_pairs([(mu - sg, 0.5), (mu + sg, 0.5)])
            raise NoKnownWitness("no symmetric member exists on this budget boundary")
        if t <= mu:
            s = mu - t
            if lam is not None:
                m = lam + mu - t
                if sg >= 2.0 * m - s:
                    # budget binds: outer mass p, inner atoms at t and its mirror
                    pm = 2.0 * lam * lam / (sg * sg + 3.0 * s * s - 4.0 * m * s)
                    arm = lam / pm if pm > 0.0 else math.inf
                    if not math.isfinite(arm):
                        # a tiny budget: lam^2 underflows, or the arm overflows
                        raise NoKnownWitness("outer atoms leave the floats at this budget")
                    return DiscreteDistribution.from_pairs(
                        [
                            (t - arm, pm),
                            (t, 0.5 - pm),
                            (2.0 * mu - t, 0.5 - pm),
                            (2.0 * mu - t + arm, pm),
                        ]
                    )
            return DiscreteDistribution.from_pairs([(mu - sg, 0.5), (mu + sg, 0.5)])
        # t > mu: three-point family, tails thinning as eps drops
        arm = math.sqrt(sg * sg / (2.0 * eps))
        if math.isinf(arm):
            raise OverflowError("three-point arm")
        d = DiscreteDistribution.from_pairs(
            [(mu - arm, eps), (mu, 1.0 - 2.0 * eps), (mu + arm, eps)]
        )
        if lam is not None and partial_moments(d, t).lpm1 > lam:
            raise NoKnownWitness("shrink eps: three-point tails break the budget at this eps")
        return d

    # arbitrary / non-negative: boundary case (exact equality, as above: the
    # supremum jumps to 0 on the floor), then the exploding-atom family
    if lam is not None and lam == floor and lam > 0.0:
        lo = 0.0 if fam is Family.NON_NEGATIVE else -math.inf
        try:
            return two_point_match(mu, sg, lo, t)
        except InfeasibleSupport as exc:
            raise NoKnownWitness(f"no member exists on this budget boundary: {exc}") from exc
    big = sg * math.sqrt((1.0 - eps) / eps)
    if math.isinf(big):
        raise OverflowError("exploding atom")
    small = sg * math.sqrt(eps / (1.0 - eps))
    d = DiscreteDistribution.from_pairs([(mu - small, 1.0 - eps), (mu + big, eps)])
    if fam is Family.NON_NEGATIVE and mu - small < 0.0:
        raise NoKnownWitness("shrink eps: lower atom leaves the non-negative support")
    if lam is not None and partial_moments(d, t).lpm1 > lam:
        raise NoKnownWitness("shrink eps: lower atom breaks the budget at this eps")
    return d


@dataclass(frozen=True)
class OracleReport:
    """A worst-case value bracketed from both sides.

    ``best_value`` is E[(X-t)_+^2] of ``witness``, a member of the set (both
    None when no finite member was built).  The multipliers (a0, a1, a2, b)
    satisfy a0 + a1 (x-mu) + a2 (x-mu)^2 + b (t-x)_+ >= (x-t)_+^2, up to
    their largest reduced cost, for every column of the family: every atom,
    or under symmetry every pair mu +/- y averaged over its two atoms.  a1 is
    0 under symmetry and b is 0 without a budget.  ``upper_value`` is
    a0 + a2 sigma^2 + b lam plus that reduced cost, or None when the dual
    check fails.  ``evaluations`` counts the LP's columns.
    """

    best_value: float | None
    upper_value: float | None
    multipliers: tuple[float, float, float, float]
    witness: DiscreteDistribution | None
    evaluations: int


def _pieces(fam: Family, s: float, lower: float):
    """The support in units of sigma around mu, cut where the threshold
    makes a kink, as (lo, hi, c2, c1, c0, g1, g0): on [lo, hi] a column at z
    costs c2 z^2 + c1 z + c0 and spends g1 z + g0 of the budget.  Here
    s = (mu - t) / sigma, and a symmetric column is the pair at +/- z."""
    if fam is Family.SYMMETRIC:
        kink = abs(s)
        upper = (kink, math.inf, 0.5, s, 0.5 * s * s, 0.5, -0.5 * s)
        if kink == 0.0:
            return [upper]
        if s > 0.0:
            return [(0.0, kink, 1.0, 0.0, s * s, 0.0, 0.0), upper]
        return [(0.0, kink, 0.0, 0.0, 0.0, 0.0, -s), upper]
    upper = (max(-s, lower), math.inf, 1.0, 2.0 * s, s * s, 0.0, 0.0)
    if -s <= lower:
        return [upper]
    return [(lower, -s, 0.0, 0.0, 0.0, -1.0, -s), upper]


def _at_infinity(pieces):
    """One column at infinity per unbounded side, as (side, its piece); the
    column's cost is the piece's leading coefficient c2."""
    sides = [(1.0, pieces[-1])]
    if pieces[0][0] == -math.inf:
        sides.append((-1.0, pieces[0]))
    return sides


def _reduced(piece, mult, weight: float):
    """Coefficients of the reduced cost c - a0 - a1 z - a2 z^2 - b g on a
    piece; weight 0 prices for feasibility (phase one), 1 for the value."""
    _, _, c2, c1, c0, g1, g0 = piece
    a0, a1, a2, b = mult
    return weight * c2 - a2, weight * c1 - a1 - b * g1, weight * c0 - a0 - b * g0


def _maximizers(lo: float, hi: float, coef, reach: float) -> list[float]:
    """Where r2 z^2 + r1 z + r0 can peak on [lo, hi] cut to |z| <= reach:
    the ends, and the vertex when it is a maximum inside."""
    r2, r1, _ = coef
    lo, hi = max(lo, -reach), min(hi, reach)
    if r2 < 0.0 and lo < -r1 / (2.0 * r2) < hi:
        return [lo, hi, -r1 / (2.0 * r2)]
    return [lo, hi]


def _peak(lo: float, hi: float, coef, reach: float) -> float:
    r2, r1, r0 = coef
    return max((r2 * z + r1) * z + r0 for z in _maximizers(lo, hi, coef, reach))


def _price(pieces, mult, weight: float, reach: float):
    """The best-priced column over the continuum: (reduced cost per unit of
    1 + z^2, z, piece), with z = +/-inf for a column at infinity."""
    best = (-math.inf, 0.0, pieces[0])
    for piece in pieces:
        r2, r1, r0 = coef = _reduced(piece, mult, weight)
        for z in _maximizers(piece[0], piece[1], coef, reach):
            r = ((r2 * z + r1) * z + r0) / (1.0 + z * z)
            if r > best[0]:
                best = (r, z, piece)
    for side, piece in _at_infinity(pieces):
        r = weight * piece[2] - mult[2]
        if r > best[0]:
            best = (r, side * math.inf, piece)
    return best


def _pivot(a, cost, rhs, norm, basis: list[int], blocked: list[int], tol: float):
    """Simplex pivots from ``basis`` (updated in place) to an optimal basis
    of the columns ``a``, maximizing; returns its (x, duals).  Columns in
    ``blocked`` never enter, and one left in the basis stays at 0."""
    stalled = 0
    for _ in range(MAX_PIVOTS):
        b = a[:, basis]
        x = np.linalg.solve(b, rhs)
        y = np.linalg.solve(b.T, cost[basis])
        d = (cost - y @ a) / norm
        d[basis + blocked] = -np.inf
        bland = stalled > len(basis)  # Bland's rule cannot cycle
        enter = int(np.flatnonzero(d > tol)[0]) if bland and d.max() > tol else int(np.argmax(d))
        if d[enter] <= tol:
            return x, y
        w = np.linalg.solve(b, a[:, enter])
        ratios = []
        for i, j in enumerate(basis):
            if j in blocked:
                if abs(w[i]) > PIVOT_TOL:
                    ratios.append((0.0, j if bland else i, i))
            elif w[i] > PIVOT_TOL:
                ratios.append((max(x[i], 0.0) / w[i], j if bland else i, i))
        if not ratios:
            raise NonConvergence("the moment LP is unbounded")
        step, _, leave = min(ratios)
        stalled = stalled + 1 if step == 0.0 else 0
        basis[leave] = enter
    raise NonConvergence(f"the simplex method did not settle in {MAX_PIVOTS} pivots")


def _solve(cols, cost, norm, rhs, n_art: int, tol: float):
    """Two-phase dense simplex from the unit basis, whose first ``n_art``
    columns are artificial.  Returns (infeasible, basis, x, duals), with the
    phase-one duals when the artificials cannot all leave."""
    a, rhs, norm = np.array(cols).T, np.array(rhs), np.array(norm)
    basis = list(range(len(rhs)))
    phase_one = np.zeros(len(cols))
    phase_one[:n_art] = -1.0
    x, y = _pivot(a, phase_one, rhs, norm, basis, [], tol)
    if sum(x[i] for i, j in enumerate(basis) if j < n_art) > tol:
        return True, basis, x, y
    x, y = _pivot(a, np.array(cost), rhs, norm, basis, list(range(n_art)), tol)
    return False, basis, x, y


def _limit_witness(p: MomentProfile, t: float, lam: float | None, fam: Family):
    """witness_family's member at the first tail in the ladder that stays in
    the set, or None."""
    for eps in WITNESS_EPS_LADDER:
        try:
            return witness_family(p, t, lam, fam, eps)
        except NoKnownWitness:
            continue
    return None


def certify(p: MomentProfile, t: float, lam: float | None, fam: Family) -> OracleReport:
    """Bracket sup E[(X-t)_+^2] over the set by the exchange method.

    The LP is solved in units of sigma around mu and re-solved from the unit
    basis after each exchange.  Raises :class:`InfeasibleConstraints` when
    the set has no member, and :class:`InvalidProfile` when the upper value
    overflows the floats.  A member whose moments overflow is not returned.
    """
    if not math.isfinite(t):
        raise InvalidThreshold(f"threshold must be finite, got {t}")
    if lam is not None and not (math.isfinite(lam) and lam > 0.0):
        raise InvalidBudget(f"finite budget must be > 0, got {lam}")
    if fam is Family.NON_NEGATIVE and p.mu <= 0.0:
        raise InfeasibleConstraints("non-negative family needs mu > 0")
    mu, sg = p.mu, p.sigma
    floor = max(t - mu, 0.0)
    if lam is not None and lam <= floor:
        if lam < floor:
            raise InfeasibleConstraints(f"budget {lam} is below E[(t-X)_+] >= (t-mu)_+ = {floor}")
        # Jensen holds with equality only when X <= t almost surely, so every
        # member has no upside: 0 and zero multipliers are exact, and
        # witness_family builds a member exactly when one exists.
        try:
            member = witness_family(p, t, lam, fam, WITNESS_EPS_LADDER[0])
        except NoKnownWitness as exc:
            raise InfeasibleConstraints(str(exc)) from exc
        return OracleReport(0.0, 0.0, (0.0, 0.0, 0.0, 0.0), member, 0)

    s = (mu - t) / sg
    lam_n = 0.0 if lam is None else lam / sg
    lower = 0.0 if fam is Family.NON_NEGATIVE else -math.inf
    pieces = _pieces(fam, s, (lower - mu) / sg)
    ends = [e for piece in pieces for e in piece[:2] if math.isfinite(e)]
    split = 1.0 + max(map(abs, ends))
    reach = HORIZON * split
    tol = PRICE_TOL * (1.0 + s * s)
    keep = (True, fam is not Family.SYMMETRIC, True, lam is not None)

    def rows(full):
        return [v for v, k in zip(full, keep) if k]

    def expand(y):
        it = iter(y)
        return tuple(float(next(it)) if k else 0.0 for k in keep)

    rhs = rows([1.0, 0.0, 1.0, lam_n])
    n_art = len(rhs) - (lam is not None)  # the budget row starts on its slack
    cols = [[float(i == j) for i in range(len(rhs))] for j in range(len(rhs))]
    cost, norm, at = [0.0] * len(rhs), [1.0] * len(rhs), [None] * len(rhs)

    def add(z, piece):
        _, _, c2, c1, c0, g1, g0 = piece
        if math.isinf(z):
            cols.append(rows([0.0, 0.0, 1.0, 0.0]))
            cost.append(c2)
            norm.append(1.0)
        else:
            cols.append(rows([1.0, z, z * z, g1 * z + g0]))
            cost.append((c2 * z + c1) * z + c0)
            norm.append(1.0 + z * z)
        at.append(z)

    for z in sorted({*ends, *(z for z in GRID if pieces[0][0] <= z)}):
        add(z, next(pc for pc in pieces if pc[0] <= z <= pc[1]))
    for side, piece in _at_infinity(pieces):
        add(side * math.inf, piece)
    for _ in range(MAX_ROUNDS):
        infeasible, basis, x, y = _solve(cols, cost, norm, rhs, n_art, tol)
        r, z, piece = _price(pieces, expand(y), 0.0 if infeasible else 1.0, reach)
        if r <= tol or z in at:  # a column already in the LP prices within rounding
            break
        add(z, piece)
    if infeasible:
        raise InfeasibleConstraints(f"no {fam.value} distribution meets the moments")

    a0, a1, a2, b = expand(y)
    b = max(b, 0.0)  # b >= 0 up to rounding at an optimum
    mult = (a0, a1, a2, b)
    # Weak duality: a member's value is a0 + a2 + b E[g] + E[r] <= dual + E[r],
    # and E[r] is at most the largest r within |z| <= split plus, beyond it,
    # the largest r(z) / z^2 = r2 + r1 / z + r0 / z^2 (a quadratic in 1/|z|)
    # times E[z^2] = 1.
    inner = max(_peak(pc[0], pc[1], _reduced(pc, mult, 1.0), split) for pc in pieces)
    tail = -math.inf
    for side, piece in _at_infinity(pieces):
        r2, r1, r0 = _reduced(piece, mult, 1.0)
        tail = max(tail, r2 + _peak(0.0, 1.0 / split, (r0, side * r1, 0.0), 1.0))
    upper = None
    if max(inner, tail) <= CERT_TOL * (1.0 + split * split):
        upper = sg * sg * (a0 + a2 + b * lam_n + max(inner, 0.0) + max(tail, 0.0))
        if math.isinf(upper):
            raise InvalidProfile(f"the upper value overflows the floats at sigma={sg}")

    basic = [(float(v), at[j]) for v, j in zip(x, basis) if at[j] is not None and v > 0.0]
    if sum(x for x, z in basic if math.isinf(z)) > LIMIT_TOL:
        witness = _limit_witness(p, t, lam, fam)
    else:
        finite = [(x, z) for x, z in basic if math.isfinite(z)]
        total = math.fsum(x for x, _ in finite)  # 1 up to the basis solve's rounding
        pairs = []
        for x, z in finite:
            if fam is Family.SYMMETRIC:
                pairs += [(mu - sg * z, 0.5 * x / total), (mu + sg * z, 0.5 * x / total)]
            else:  # clipped: at the support bound mu + sigma z rounds below 0
                pairs.append((max(mu + sg * z, lower), x / total))
        witness = DiscreteDistribution.from_pairs(pairs)
    try:
        best_value = None if witness is None else partial_moments(witness, t).upm2
    except OverflowError:  # a basic solution's atoms, unlike witness_family's, are unchecked
        witness = best_value = None
    return OracleReport(
        best_value=best_value,
        upper_value=upper,
        multipliers=(sg * sg * a0, sg * a1, a2, sg * b),
        witness=witness,
        evaluations=len(cols) - len(rhs),
    )


def brute_force_worst_case(
    p: MomentProfile, t: float, lam: float | None, fam: Family, k: int
) -> OracleReport:
    """:func:`certify`, for callers that name the family's atom count.

    ``k`` is the number of atoms the closed forms reduce to, 5 (6 with a
    budget) under symmetry and 3 otherwise; it is checked against ``fam``.
    The LP ranges over every distribution, and its basic optima need no more
    atoms than that.
    """
    if k not in ((5, 6) if fam is Family.SYMMETRIC else (3,)):
        raise ValueError(f"k={k} is inconsistent with the {fam.value} family")
    return certify(p, t, lam, fam)
