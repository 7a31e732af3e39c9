"""Minimum-variance frontier segments and the short-selling-allowed solvers.

Every portfolio rule minimizes a function of the expected loss ``xi`` and
the variance ``V`` along a minimum-variance frontier, and both frontiers
are chains of :class:`_Segment`: weights affine in ``xi`` and ``V``
quadratic in vertex-centred form.  With short selling the frontier is the
two-fund parabola, a single segment unbounded below (Merton 1972);
long-only it is the chain walked by :func:`wctsv.simplex._long_only_frontier`.
Two exact minimizers serve all five rules: :func:`_tsv_minimizer` (the
sign of ``f'`` for ``f = V + (xi - t)_+^2``; TSV and EEP_TSV) and scoring
the candidates of :func:`_segment_candidates` (M_TSV_S and EEP_TSV_S).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateMeans, InvalidThreshold, NotPositiveDefinite
from .worst_case import Family, MomentProfile, wc_target_semivariance

__all__ = [
    "MarketModel",
    "FrontierParams",
    "Portfolio",
    "frontier_params",
    "min_variance_portfolio",
    "classical_mv",
    "tsv_portfolio",
    "m_tsv_s_portfolio",
]

SYMMETRY_TOL = 1e-10
DEGENERACY_TOL = 1e-12


def _cholesky(cov: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"covariance is not positive definite: {exc}") from exc


@dataclass(frozen=True, eq=False)
class MarketModel:
    """Asset identifiers with per-period loss mean vector and covariance.

    Immutable: it holds read-only copies of the arrays it validated, so
    results computed from a model (see :func:`frontier_params`) stay valid.
    """

    assets: tuple[str, ...]
    mu_vec: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mu = np.array(self.mu_vec, dtype=float)
        cov = np.array(self.cov, dtype=float)
        mu.flags.writeable = cov.flags.writeable = False
        object.__setattr__(self, "assets", tuple(self.assets))
        object.__setattr__(self, "mu_vec", mu)
        object.__setattr__(self, "cov", cov)
        d = len(self.assets)
        if d == 0 or mu.shape != (d,) or cov.shape != (d, d):
            raise ValueError(
                f"inconsistent dimensions: {d} assets, mu {mu.shape}, cov {cov.shape}"
            )
        if not (np.isfinite(mu).all() and np.isfinite(cov).all()):
            raise ValueError("non-finite market inputs")
        scale = max(1.0, float(np.abs(cov).max()))
        if float(np.abs(cov - cov.T).max()) > SYMMETRY_TOL * scale:
            raise NotPositiveDefinite("covariance is not symmetric")
        _cholesky(cov)

    @property
    def dim(self) -> int:
        return len(self.assets)


class _Segment(NamedTuple):
    """One piece of a minimum-variance frontier.  For ``xi`` in ``[lo, hi]``
    and ``u = xi - hi`` the weights on ``free`` are ``p + q u`` and the
    variance is ``V = a u^2 + b u + c``.  Centring on ``hi`` keeps the
    coefficients well conditioned where ``V`` is steep (nearly equal free
    means), which an expansion about ``xi = 0`` would not.  A tuple, not a
    frozen dataclass, because a backtest builds a dozen per day."""

    free: np.ndarray
    p: np.ndarray
    q: np.ndarray
    lo: float
    hi: float
    a: float
    b: float
    c: float

    def weights(self, dim: int, xi: float) -> np.ndarray:
        w = np.zeros(dim)
        w[self.free] = self.p + self.q * (xi - self.hi)
        return w


@dataclass(frozen=True, eq=False)
class FrontierParams:
    """The short-selling frontier: its scalars and its single segment.

    Along the frontier ``V = v0 xi^2 - 2 v1 xi + v2`` with
    ``v0 v2 - v1^2 = 1/u > 0``.  ``segment`` holds it in vertex form,
    ``V = v0 (xi - g)^2 + 1/(u v0)`` with weights ``p + q (xi - g)`` about
    the global minimum-variance point ``g = v1/v0`` (``p`` its weights,
    ``q = v0 cov^-1 (mu - g 1)``), on ``lo = -inf`` to ``hi = g``; the
    formulas hold on the whole parabola.
    :meth:`variance_at` evaluates the vertex form, which keeps its digits
    where ``v0`` is large and the expanded form cancels.  Immutable and
    safely shareable across threads.
    """

    u: float
    v0: float
    v1: float
    v2: float
    segment: _Segment

    def variance_at(self, xi: float) -> float:
        s = self.segment
        d = xi - s.hi
        return (s.a * d + s.b) * d + s.c


@dataclass(frozen=True, eq=False)
class Portfolio:
    weights: np.ndarray
    expected_loss: float
    stdev: float
    objective: float
    regime: str


@functools.lru_cache(maxsize=1)
def frontier_params(m: MarketModel) -> FrontierParams:
    """The scalars (u, v0, v1, v2) and the segment of the frontier.

    One solve against the covariance, which :class:`MarketModel` has
    checked to be positive definite; the inverse is never formed.  Raises
    :class:`DegenerateMeans` when the mean vector is (numerically) a
    multiple of the all-ones vector, which collapses the frontier to a
    single point.  The last model's result is kept, keyed by identity
    (models are immutable), so the check in
    :func:`wctsv.market_data.estimate_moments` and the backtest's own call
    on the same day solve once.
    """
    e = np.ones(m.dim)
    inv_mu, inv_e = np.ascontiguousarray(np.linalg.solve(m.cov, np.column_stack([m.mu_vec, e])).T)
    a = float(e @ inv_e)
    b = float(e @ inv_mu)
    c = float(m.mu_vec @ inv_mu)
    # with g = b/a (the GMV loss) and r = mu - g 1, u = a c - b^2 = a r^T cov^-1 r;
    # this form cancels to first order in the spread of the means, the
    # expanded one to second order
    g = b / a
    z = inv_mu - g * inv_e
    u = a * float((m.mu_vec - g) @ z)
    if u <= DEGENERACY_TOL * max(a * c, 1e-300):
        raise DegenerateMeans(
            "mean vector is numerically proportional to the all-ones vector"
        )
    v0 = a / u
    segment = _Segment(np.arange(m.dim), inv_e / a, v0 * z, -math.inf, g, v0, 0.0, 1.0 / a)
    return FrontierParams(u=u, v0=v0, v1=b / u, v2=c / u, segment=segment)


def min_variance_portfolio(fp: FrontierParams, m: MarketModel, xi: float) -> Portfolio:
    """The two-fund frontier portfolio with expected loss exactly ``xi``."""
    s = fp.segment  # every asset is free, so its weights are p + q u in full
    w = s.p + s.q * (xi - s.hi)
    var = float(w @ m.cov @ w)
    return Portfolio(w, float(w @ m.mu_vec), math.sqrt(var), var, "frontier")


def classical_mv(fp: FrontierParams, m: MarketModel, nu: float) -> Portfolio:
    """Minimum variance subject to expected loss at most ``nu``."""
    if not math.isfinite(nu):
        raise InvalidThreshold(f"loss cap must be finite, got {nu}")
    gmv = fp.segment.hi
    regime = "loss cap binds" if nu < gmv else "global minimum variance"
    base = min_variance_portfolio(fp, m, min(nu, gmv))
    return Portfolio(base.weights, base.expected_loss, base.stdev, base.objective, regime)


def _tsv_minimizer(segments: list[_Segment], t: float) -> tuple[_Segment, float]:
    """The segment and ``xi`` minimizing ``f = V(xi) + (xi - t)_+^2``.

    ``segments`` run down from the global minimum-variance point.  ``f`` is
    convex and differentiable along the chain, so its minimizer is where
    ``f'`` changes sign: the first segment whose lower end has ``f' <= 0``
    holds it at the root of ``V' + 2 (xi - t) = 0`` (above ``t``) or of
    ``V' = 0`` (below); if no segment has, it is the last segment's lower
    end.  Locating it by the sign of ``f'`` rather than by comparing values
    stays exact where the frontier is so steep that ``f`` is flat to
    rounding.  On the short-selling segment (``lo = -inf``) the root is
    ``g`` when ``g <= t`` and ``(v1 + t)/(v0 + 1)`` otherwise.
    """
    for s in segments:
        tl, bottom = t - s.hi, s.lo - s.hi
        if 2.0 * s.a * bottom + s.b + 2.0 * max(bottom - tl, 0.0) <= 0.0:
            u = (2.0 * tl - s.b) / (2.0 * s.a + 2.0)
            if u < tl:
                u = -s.b / (2.0 * s.a)
            return s, s.hi + min(max(u, bottom), 0.0)
    s = segments[-1]
    return s, s.hi + (s.lo - s.hi)


def tsv_portfolio(fp: FrontierParams, m: MarketModel, t: float) -> Portfolio:
    """Minimize worst-case target semi-variance, short selling allowed.

    The frontier reduction ``f(xi) = V(xi) + (xi - t)_+^2`` is convex with a
    differentiable kink at ``xi = t``; :func:`_tsv_minimizer` finds its
    minimizer on the frontier's segment: the vertex ``v1/v0`` when it sits
    at or below ``t``, else the stationary point of the upper branch.
    """
    if not math.isfinite(t):
        raise InvalidThreshold(f"threshold must be finite, got {t}")
    _, xi = _tsv_minimizer([fp.segment], t)
    regime = "v1/v0 <= t" if fp.segment.hi <= t else "v1/v0 > t"
    base = min_variance_portfolio(fp, m, xi)
    value = base.objective + max(xi - t, 0.0) ** 2
    return Portfolio(base.weights, base.expected_loss, base.stdev, value, regime)


def _real_roots(a: float, b: float, c: float) -> list[float]:
    """Real roots of ``a x^2 + b x + c``; a negative discriminant is
    treated as zero, so a near-tangency still yields its touching point."""
    if a == 0.0:
        return [-c / b] if b != 0.0 else []
    half = -0.5 * (b + math.copysign(math.sqrt(max(b * b - 4.0 * a * c, 0.0)), b))
    return [half / a, c / half] if half != 0.0 else [0.0]


def _segment_candidates(
    seg: _Segment, lo: float, hi: float, t: float, lam: float | None
) -> list[float]:
    """Candidate minimizers ``xi`` of the symmetric worst case on ``[lo, hi]``.

    ``[lo, hi]`` lies within the segment.  ``sigma(xi)`` is convex and every
    branch is convex and non-decreasing in ``sigma``, so with
    ``u = xi - seg.hi``, ``V = a u^2 + b u + c`` and ``s = xi - t`` the
    candidates are both ends and the in-range roots of the branch-boundary
    and stationary-point equations below, in that order (``V'^2 = 4V`` is
    ``sigma' = -1``).  ``lam=None`` (no budget) drops the two in ``lam``.
    """
    a, b, c = seg.a, seg.b, seg.c
    tl = t - seg.hi
    budgeted = lam is not None
    r = 2.0 * lam - tl if budgeted else 0.0
    equations = (
        (0.0, 1.0, -tl),  # s = 0
        (a - 1.0, b + 2.0 * tl, c - tl * tl),  # V = s^2
        (a - 1.0, b - 2.0 * r, c - r * r) if budgeted else None,  # V = (2 lam + s)^2
        (0.0, 2.0 * a + 2.0, b - 2.0 * tl),  # V' + 2s = 0
        (0.0, 2.0 * a, b),  # V' = 0
        # V'/2 + 2 lam + 3s = 0
        (0.0, a + 3.0, 0.5 * b + 2.0 * lam - 3.0 * tl) if budgeted else None,
        (4.0 * a * (a - 1.0), 4.0 * b * (a - 1.0), b * b - 4.0 * c),  # V'^2 = 4V
    )
    us = [hi - seg.hi, lo - seg.hi]
    for coeffs in equations:
        if coeffs is not None:
            us.extend(u for u in _real_roots(*coeffs) if lo <= seg.hi + u <= hi)
    return [seg.hi + u for u in us]


def m_tsv_s_portfolio(fp: FrontierParams, m: MarketModel, nu: float, t: float) -> Portfolio:
    """Minimize worst-case symmetric target semi-variance with loss cap ``nu``.

    Case (i): with ``t >= nu`` every feasible frontier point sits at or
    below the threshold, where the objective is ``sigma^2 / 2``, so the
    solution is the classical one at ``xi = min(v1/v0, nu)``.  Otherwise
    the candidates are the below-threshold frontier vertex
    ``xi1 = min(v1/v0, t)`` (case ii) and the best point of
    ``[t, min(nu, v1/v0)]`` (case iii); the smaller objective wins, the
    smaller ``xi`` on a tie within 1e-12.  Above the global minimum-variance
    point ``v1/v0`` both ``xi`` and ``sigma`` rise and every branch is
    non-decreasing in each, so case (iii) stops there; it keeps the first
    smallest of the exact candidates of :func:`_segment_candidates`.
    """
    if not (math.isfinite(nu) and math.isfinite(t)):
        raise InvalidThreshold(f"loss cap and threshold must be finite, got {nu} and {t}")

    def h(xi: float) -> float:
        sigma = math.sqrt(fp.variance_at(xi))
        return wc_target_semivariance(MomentProfile(xi, sigma), t, Family.SYMMETRIC).value

    seg = fp.segment
    if t >= nu:
        xi_star, tag = min(seg.hi, nu), "i"
    else:
        xi1 = min(seg.hi, t)
        h1 = 0.5 * fp.variance_at(xi1)
        hi = min(nu, seg.hi)
        xs = _segment_candidates(seg, t, hi, t, None) if t <= hi else []
        scores = [(h(x), x) for x in xs]
        h2, xi2 = min(scores, key=lambda p: p[0], default=(math.inf, math.nan))
        if h1 <= h2 + 1e-12:
            xi_star, tag = xi1, "ii"
        else:
            xi_star, tag = xi2, "iii"
    base = min_variance_portfolio(fp, m, xi_star)
    value = h(xi_star)
    return Portfolio(base.weights, base.expected_loss, base.stdev, value, tag)
