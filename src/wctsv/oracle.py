"""Brute-force verification of the closed forms, plus explicit witnesses.

Every worst-case problem the library solves in closed form reduces to a
finite family of k-point distributions (two-point for the arbitrary set,
five symmetric atoms unconstrained / six constrained for the symmetric set,
three atoms otherwise).  :func:`brute_force_worst_case` maximizes the target
semi-variance over such a family directly, by seeded multi-start random
search with cyclic coordinate refinement, never consulting the closed forms
— so agreement between the two is evidence, not circularity.

:func:`witness_family` returns the explicit (near-)worst members used to
show attainment: the symmetric two-point pair, a three-point family with
vanishing tail mass, a two-point family with an exploding upper atom, and
the budget-binding four-atom symmetric configuration.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import (
    BudgetExhausted,
    InfeasibleConstraints,
    InfeasibleSupport,
    InvalidProfile,
    NoKnownWitness,
)
from .worst_case import Family, MomentProfile

__all__ = [
    "DiscreteDistribution",
    "PartialMoments",
    "OracleReport",
    "partial_moments",
    "two_point_match",
    "witness_family",
    "brute_force_worst_case",
]

ATOM_MERGE_TOL = 1e-12
MASS_TOL = 1e-12
# Infeasibility slack when screening candidates against the budget; small
# enough that accepted witnesses still satisfy the reported tolerance.
FEAS_TOL = 1e-12
# Candidates whose assembled moments drift beyond this relative tolerance are
# discarded.  The builders clamp tiny negative masses to zero, and for a far
# atom at x the discarded variance is |mass| * x**2, which a mass-scaled guard
# alone cannot bound.
MOMENT_TOL = 1e-9
MIN_SEARCH_BUDGET = 10_000
STARTS_PER_100K = 200
CD_SWEEPS = 40
CD_SHRINK = 0.5


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


@dataclass(frozen=True)
class OracleReport:
    best_value: float
    witness: DiscreteDistribution
    evaluations: int
    seed: int


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
    construction to stay inside the set.
    """
    if not (0.0 < eps < 0.25):
        raise ValueError(f"eps must lie in (0, 1/4), got {eps}")
    mu, sg = p.mu, p.sigma
    floor = max(t - mu, 0.0)

    if fam is Family.SYMMETRIC:
        # exact equality: on the floor the supremum jumps to 0 (a real
        # discontinuity), so only lam == floor itself takes this branch
        if lam is not None and lam == floor and lam > 0.0:
            # every member lives below t; feasible only for sigma <= t - mu
            if sg <= t - mu:
                return two_point_match(mu, sg, 2.0 * mu - t, t)
            raise NoKnownWitness("no symmetric member exists on this budget boundary")
        if t <= mu:
            s = mu - t
            if lam is not None:
                m = lam + mu - t
                if sg >= 2.0 * m - s:
                    # budget binds: outer mass p, inner atoms at t and its mirror
                    pm = 2.0 * lam * lam / (sg * sg + 3.0 * s * s - 4.0 * m * s)
                    arm = lam / pm
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
    small = sg * math.sqrt(eps / (1.0 - eps))
    d = DiscreteDistribution.from_pairs([(mu - small, 1.0 - eps), (mu + big, eps)])
    if fam is Family.NON_NEGATIVE and mu - small < 0.0:
        raise NoKnownWitness("shrink eps: lower atom leaves the non-negative support")
    if lam is not None and partial_moments(d, t).lpm1 > lam:
        raise NoKnownWitness("shrink eps: lower atom breaks the budget at this eps")
    return d


def _sigmoid(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-min(x, 700.0)))
    z = math.exp(max(x, -700.0))
    return z / (1.0 + z)


def _exp_arm(a: float) -> float:
    # atom offsets live on an exponential scale; cap keeps arithmetic finite
    return math.exp(min(a, 60.0))


def _three_point_masses(x1: float, x2: float, x3: float, m1: float, m2: float):
    """Masses putting the first two raw moments at (m1, m2); None if signed."""
    p1 = (m2 - m1 * (x2 + x3) + x2 * x3) / ((x1 - x2) * (x1 - x3))
    p2 = (m2 - m1 * (x1 + x3) + x1 * x3) / ((x2 - x1) * (x2 - x3))
    p3 = (m2 - m1 * (x1 + x2) + x1 * x2) / ((x3 - x1) * (x3 - x2))
    if p1 < -1e-15 or p2 < -1e-15 or p3 < -1e-15:
        return None
    return max(p1, 0.0), max(p2, 0.0), max(p3, 0.0)


def _make_searcher(p: MomentProfile, t: float, lam: float | None, fam: Family, k: int):
    """Return (dim, build, random_theta, anchors) for the k-point family.

    ``build`` maps an unconstrained parameter vector to a moment-exact atom
    list, or None when the induced mass solve leaves the simplex.  The two
    matched moments are always imposed exactly by construction.
    """
    mu, sg = p.mu, p.sigma
    m2 = mu * mu + sg * sg

    # with a binding lower-tail budget the maximizer hugs the threshold, so
    # seed starts whose inner pair sits exactly at the kink; the arm scales
    # and the mass split stay free for the descent to refine
    pinned = None
    if lam is not None and mu - t > 0.0:
        pinned = math.log(max((mu - t) / sg, 1e-12))

    if fam is Family.SYMMETRIC and k == 5:

        def build(th):
            x1 = sg * _exp_arm(th[0])
            x2 = x1 + sg * _exp_arm(th[1])
            if not 0.0 < x1 < x2:
                return None
            p1 = 0.5 * _sigmoid(th[2])
            p2 = (0.5 * sg * sg - p1 * x1 * x1) / (x2 * x2)
            if p2 < -1e-15:
                return None
            p2 = max(p2, 0.0)
            p0 = 1.0 - 2.0 * (p1 + p2)
            if p0 < -1e-15:
                return None
            return [
                (mu - x2, p2),
                (mu - x1, p1),
                (mu, max(p0, 0.0)),
                (mu + x1, p1),
                (mu + x2, p2),
            ]

        def random_theta(rng):
            return [rng.uniform(-4.0, 3.0), rng.uniform(-4.0, 6.5), rng.uniform(-6.0, 6.0)]

        anchors = [
            [0.0, -20.0, 40.0],  # exact two-point at mu +/- sigma
            [0.0, 0.0, 0.0],
            [-2.0, 2.0, -2.0],
            [1.0, 2.0, -4.0],
            [-1.0, 4.0, -8.0],
            [0.0, 5.0, -10.0],
            [0.0, 6.5, -12.0],
            [-0.7, 0.7, 2.0],
        ]
        if pinned is not None:
            anchors = [
                [pinned, 2.0, 6.0],
                [pinned, 3.5, 6.0],
                [pinned, 5.0, 6.0],
                [pinned, 2.0, 2.0],
                [pinned, 4.0, 4.0],
            ] + anchors
        return 3, build, random_theta, anchors

    if fam is Family.SYMMETRIC and k == 6:

        def build(th):
            x1 = sg * _exp_arm(th[0])
            x2 = x1 + sg * _exp_arm(th[1])
            x3 = x2 + sg * _exp_arm(th[2])
            if not 0.0 < x1 < x2 < x3:
                return None
            p1 = 0.5 * _sigmoid(th[3])
            mass = 0.5 - p1
            var = 0.5 * sg * sg - p1 * x1 * x1
            den = x3 * x3 - x2 * x2
            p3 = (var - mass * x2 * x2) / den
            p2 = mass - p3
            if p3 < -1e-15 or p2 < -1e-15:
                return None
            p2, p3 = max(p2, 0.0), max(p3, 0.0)
            return [
                (mu - x3, p3),
                (mu - x2, p2),
                (mu - x1, p1),
                (mu + x1, p1),
                (mu + x2, p2),
                (mu + x3, p3),
            ]

        def random_theta(rng):
            return [
                rng.uniform(-4.0, 2.5),
                rng.uniform(-4.0, 3.0),
                rng.uniform(-4.0, 6.5),
                rng.uniform(-6.0, 6.0),
            ]

        anchors = [
            [0.0, -20.0, -20.0, 40.0],  # collapses to the two-point pair
            [0.0, 0.0, 0.0, 0.0],
            [-2.0, 1.0, 2.0, -2.0],
            [-1.0, 3.0, 4.0, -6.0],
            [0.0, 2.0, 5.0, -8.0],
            [1.0, 1.0, 6.5, -10.0],
            [-3.0, 0.0, 3.0, 1.0],
            [-0.7, -0.7, 0.7, 2.0],
        ]
        if pinned is not None:
            anchors = [
                [pinned, 0.0, 20.0, 2.0],
                [pinned, 1.0, 20.0, 4.0],
                [pinned, 2.0, 20.0, 6.0],
                [pinned, 3.0, 20.0, 6.0],
                [pinned, 4.5, 20.0, 8.0],
            ] + anchors
        return 4, build, random_theta, anchors

    if fam is Family.SYMMETRIC and k == 2:

        def build(_th):
            return [(mu - sg, 0.5), (mu + sg, 0.5)]

        return 1, build, (lambda rng: [0.0]), [[0.0]]

    if k == 2:  # arbitrary / non-negative two-point sweep

        def build(th):
            if fam is Family.NON_NEGATIVE:
                d1 = mu * _sigmoid(th[0])
            else:
                d1 = sg * _exp_arm(th[0])
            if d1 <= 0.0:
                return None
            d2 = sg * sg / d1
            hi = d1 * d1 / (d1 * d1 + sg * sg)
            return [(mu - d1, 1.0 - hi), (mu + d2, hi)]

        def random_theta(rng):
            return [rng.uniform(-6.0, 6.0)]

        return 1, build, random_theta, [[0.0], [-3.0], [3.0]]

    if k == 3:
        nonneg = fam is Family.NON_NEGATIVE

        def build(th):
            if nonneg:
                x1 = sg * _exp_arm(th[0])
                x2 = x1 + sg * _exp_arm(th[1])
            else:
                x2 = mu + sg * th[0]
                x1 = x2 - sg * _exp_arm(th[1])
            x3 = x2 + sg * _exp_arm(th[2])
            if not x1 < x2 < x3:
                return None
            sol = _three_point_masses(x1, x2, x3, mu, m2)
            if sol is None:
                return None
            p1, p2, p3 = sol
            return [(x1, p1), (x2, p2), (x3, p3)]

        def random_theta(rng):
            first = rng.uniform(-12.0, 3.0) if nonneg else rng.uniform(-4.0, 4.0)
            return [first, rng.uniform(-6.0, 4.0), rng.uniform(-6.0, 6.5)]

        if nonneg:
            # reach the mean's own scale even when mu >> sigma
            mid = math.log(max(mu / sg, 1e-9))
            anchors = [
                [mid, 0.0, 0.0],
                [-12.0, mid, 2.0],
                [-12.0, mid, 6.5],
                [mid - 2.0, 1.0, 4.0],
                [-6.0, mid + 0.5, 1.0],
                [mid, -6.0, 5.0],
            ]
        else:
            anchors = [
                [0.0, 0.0, 0.0],
                [0.0, -6.0, 5.0],
                [0.0, -6.0, 6.5],
                [0.0, 1.0, 5.0],
                [-2.0, 0.0, 4.0],
                [2.0, 4.0, 0.0],
                [0.0, 5.0, 1.0],
            ]
        return 3, build, random_theta, anchors

    raise ValueError(f"unsupported family/k combination: {fam.value}, k={k}")


def brute_force_worst_case(
    p: MomentProfile,
    t: float,
    lam: float | None,
    fam: Family,
    k: int,
    budget: int,
    seed: int,
) -> OracleReport:
    """Maximize E[(X-t)_+^2] over the k-point family by seeded search.

    Runs ``STARTS_PER_100K``-scaled multi-starts (anchored structural shapes
    first, then random draws), each refined by cyclic coordinate descent
    with a step halved every sweep.  Every candidate construction — feasible
    or rejected — consumes one unit of ``budget``.  Deterministic in
    (inputs, seed, budget): per-start generators are seeded from
    (seed, start index) only.
    """
    if k not in (2, 3, 5, 6):
        raise ValueError(f"k must be one of 2, 3, 5, 6, got {k}")
    if fam is Family.SYMMETRIC and k == 3 or fam is not Family.SYMMETRIC and k > 3:
        raise ValueError(f"k={k} is inconsistent with the {fam.value} family")
    if budget < MIN_SEARCH_BUDGET:
        raise ValueError(f"budget must be at least {MIN_SEARCH_BUDGET}, got {budget}")
    if fam is Family.NON_NEGATIVE and p.mu <= 0.0:
        raise InfeasibleConstraints("non-negative family needs mu > 0")

    dim, build, random_theta, anchors = _make_searcher(p, t, lam, fam, k)
    feas_slack = None if lam is None else lam + FEAS_TOL * max(1.0, abs(lam))

    used = 0
    best_value = -math.inf
    best_atoms = None

    mean_tol = MOMENT_TOL * max(1.0, abs(p.mu))
    var_tol = MOMENT_TOL * p.sigma**2

    def evaluate(theta):
        nonlocal used, best_value, best_atoms
        used += 1
        atoms = build(theta)
        if atoms is None:
            return -math.inf
        mean = math.fsum(q * x for x, q in atoms)
        if abs(mean - p.mu) > mean_tol:
            return -math.inf
        var = math.fsum(q * (x - p.mu) ** 2 for x, q in atoms)
        if abs(var - p.sigma**2) > var_tol:
            return -math.inf
        if feas_slack is not None:
            lpm1 = sum(q * (t - x) for x, q in atoms if x < t)
            if lpm1 > feas_slack:
                return -math.inf
        value = sum(q * (x - t) ** 2 for x, q in atoms if x > t)
        if value > best_value:
            best_value = value
            best_atoms = atoms
        return value

    n_starts = max(1, round(STARTS_PER_100K * budget / 100_000))
    per_start = budget // n_starts
    for idx in range(n_starts):
        if used >= budget:
            break
        allowance = min(per_start, budget - used)
        if allowance <= 0:
            break
        cap = used + allowance
        rng = random.Random(f"{seed}:{idx}")
        theta = list(anchors[idx]) if idx < len(anchors) else random_theta(rng)
        value = evaluate(theta)
        step = 1.0
        for _sweep in range(CD_SWEEPS):
            if used >= cap:
                break
            for ci in range(dim):
                for sign in (1.0, -1.0):
                    if used >= cap:
                        break
                    cand = list(theta)
                    cand[ci] += sign * step
                    v = evaluate(cand)
                    if v > value:
                        theta, value = cand, v
                        break
            step *= CD_SHRINK

    if best_atoms is None:
        raise BudgetExhausted(
            f"no feasible {fam.value} {k}-point candidate in {used} evaluations",
            best_value=None,
        )
    witness = DiscreteDistribution.from_pairs(best_atoms)
    return OracleReport(
        best_value=partial_moments(witness, t).upm2,
        witness=witness,
        evaluations=used,
        seed=seed,
    )
