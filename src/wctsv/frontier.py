"""Minimum-variance frontier segments, the short-selling-allowed solvers and
the two exact minimizers every portfolio rule uses.

Every portfolio rule minimizes a function of the expected loss ``xi`` and
the variance ``V`` along a minimum-variance frontier, and both frontiers
are chains of :class:`_Segment`: weights affine in ``xi`` and ``V``
quadratic in vertex-centred form.  With short selling the frontier is the
two-fund parabola, a single segment unbounded below (Merton 1972);
long-only it is the chain walked by :func:`wctsv.simplex._long_only_frontier`,
which starts from that segment and shares its first piece when the global
minimum-variance portfolio holds every asset.
Two exact minimizers serve all five rules, and both live here.  TSV and
EEP_TSV keep the sign rule :func:`_tsv_minimizer` (the sign of ``f'`` for
``f = V + (xi - t)_+^2``, exact by convexity).  The two symmetric rules,
M_TSV_S and EEP_TSV_S, keep :func:`_symmetric_minimizer`: the first
smallest of the exact candidates of :func:`_segment_candidates`, with the
tangent stop of :func:`_tangent_profiles` for a chain that runs on below a
segment, and :func:`_certify_slopes` checks either winner by the
objective's one-sided slopes along the frontier.  :mod:`wctsv.simplex`
keeps only what is long-only: the walk, the clip and rebuild of a winner's
weights, and the frontier KKT check.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateMeans, InvalidThreshold, NonConvergence, NotPositiveDefinite
from .worst_case import _symmetric_slope, _symmetric_value
from .worst_case import wc_target_semivariance  # noqa: F401 (perfbench patches it here)

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
SIGMA_FLOOR = 1e-12
KKT_TOL = 1e-8
VALUE_TIE = 1e-13
# the tangent stop's relative room for the rounding of V, whose root scores
# the candidates, as the bound at a segment's low end ties the next segment's
# first point; the bound exceeds a later value by up to 1.6e-9 of it on steep
# long-only frontiers (means 1e-6 of their size apart), 2.3e-15 on the others
STOP_MARGIN = 1e-8


def _cholesky(cov: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"covariance is not positive definite: {exc}") from exc


@dataclass(frozen=True, eq=False)
class MarketModel:
    """Asset identifiers with per-period loss mean vector and covariance.

    Immutable: its arrays are read-only, so results computed from a model
    (such as :func:`frontier_params`) stay valid.  A model built here copies
    the caller's arrays and checks them: finite, symmetric and positive
    definite.  :func:`wctsv.market_data.estimate_moments` at its default
    ridge instead hands over arrays it has just built and proved valid, and
    :meth:`_frozen` marks them read-only in place.
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

    @classmethod
    def _frozen(cls, assets: tuple[str, ...], mu_vec: np.ndarray, cov: np.ndarray) -> MarketModel:
        """A model on fresh arrays no one else holds, already proved valid:
        made read-only in place, neither copied nor checked again."""
        mu_vec.flags.writeable = cov.flags.writeable = False
        model = object.__new__(cls)
        model.__dict__.update(assets=assets, mu_vec=mu_vec, cov=cov)
        return model

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

    def sigma(self, xi: float) -> float:
        """``sqrt(V)`` at ``xi``, ``V`` clipped at 0 and the root at ``SIGMA_FLOOR``."""
        u = xi - self.hi
        return max(math.sqrt(max((self.a * u + self.b) * u + self.c, 0.0)), SIGMA_FLOOR)


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


def frontier_params(m: MarketModel) -> FrontierParams:
    """The scalars (u, v0, v1, v2) and the segment of the frontier.

    One solve against the covariance, which :class:`MarketModel` has
    checked to be positive definite; the inverse is never formed.  Raises
    :class:`DegenerateMeans` when the mean vector is (numerically) a
    multiple of the all-ones vector, which collapses the frontier to a
    single point; the long-only frontier needs no such check, so only the
    short-selling rules fail on such a model.
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
    candidates are both ends (exactly as given) and the in-range roots of
    the branch-boundary and stationary-point equations below, in that order
    (``V'^2 = 4V`` is ``sigma' = -1``).  ``lam=None`` (no budget) drops the
    two in ``lam``.
    """
    a, b, c, top = seg.a, seg.b, seg.c, seg.hi
    tl = t - top
    us = [tl]  # s = 0
    us += _real_roots(a - 1.0, b + 2.0 * tl, c - tl * tl)  # V = s^2
    if lam is not None:
        r = 2.0 * lam - tl
        us += _real_roots(a - 1.0, b - 2.0 * r, c - r * r)  # V = (2 lam + s)^2
    us.append(-(b - 2.0 * tl) / (2.0 * a + 2.0))  # V' + 2s = 0
    if a != 0.0:
        us.append(-b / (2.0 * a))  # V' = 0
    if lam is not None:
        us.append(-(0.5 * b + 2.0 * lam - 3.0 * tl) / (a + 3.0))  # V'/2 + 2 lam + 3s = 0
    us += _real_roots(4.0 * a * (a - 1.0), 4.0 * b * (a - 1.0), b * b - 4.0 * c)  # V'^2 = 4V
    xs = [hi, lo]
    for u in us:
        x = top + u
        if lo <= x <= hi:
            xs.append(x)
    return xs


def _tangent_profiles(
    seg: _Segment, sigma: float, bottom: float, t: float, lam: float | None
) -> Iterator[tuple[float, float]]:
    """Where the objective can be least on the tangent below ``seg``, as
    ``(xi, sigma)`` pairs.

    ``sigma(xi)`` is convex along a minimum-variance frontier (a partial
    minimization of a norm), so every later point, from ``seg.lo``
    (``sigma`` there) down to ``bottom``, and every vertex at ``bottom`` has
    ``sigma >= sigma + slope (xi - seg.lo)`` with ``slope =
    min(V'(seg.lo) / (2 sigma), 0)``.  Every branch is non-decreasing in
    ``xi`` and ``sigma``, so the objective's least value along that line,
    on ``[min(bottom, seg.lo), seg.lo]``, bounds all of them from below.
    The line is a segment whose ``V`` is a perfect square, so
    :func:`_segment_candidates` yields its exact minimizers.
    """
    slope = min((2.0 * seg.a * (seg.lo - seg.hi) + seg.b) / (2.0 * sigma), 0.0)
    line = _Segment(
        seg.free, seg.p, seg.q, min(bottom, seg.lo), seg.lo, slope * slope, 2.0 * sigma * slope,
        sigma * sigma,
    )
    for x in _segment_candidates(line, line.lo, line.hi, t, lam):
        yield x, sigma + slope * (x - line.hi)


def _symmetric_minimizer(
    pieces: Iterable[tuple[_Segment, float, float]], t: float, lam: float | None,
    bottom: float, vertices: Iterable[tuple[float, float, np.ndarray]] = (),
) -> tuple[float, _Segment, float, np.ndarray | None] | None:
    """The first smallest symmetric worst case along a frontier, as ``(value,
    segment, xi, weights or None)``; None when every candidate's set is empty.

    ``pieces`` are ``(segment, lo, hi)`` ranges running down the frontier
    to ``bottom``.  Each piece's candidates, those of
    :func:`_segment_candidates`, are scored in chain order by the closed form
    at ``sigma = sqrt(V)`` of their segment; such a winner comes back
    without weights, for the caller to build.  After a piece whose low end
    is above ``bottom`` the walk stops once the objective exceeds the best
    value by ``STOP_MARGIN`` relative at every point of
    :func:`_tangent_profiles`, the exact lower bound on every later point
    and vertex, so none can win.  When the walk ends without a stop,
    ``vertices``, ``(xi, sigma, weights)`` triples at ``bottom``, are scored
    too and credited to the last piece's segment.
    """
    best = None
    for seg, lo, hi in pieces:
        for x in _segment_candidates(seg, lo, hi, t, lam):
            r = _symmetric_value(x, seg.sigma(x), t, lam)
            if r is not None and (best is None or r[0] < best[0]):
                best = (r[0], seg, x, None)
        if best is not None and lo > bottom:
            limit = best[0] * (1.0 + STOP_MARGIN)
            tangent = _tangent_profiles(seg, seg.sigma(seg.lo), bottom, t, lam)
            below = (_symmetric_value(x, sigma, t, lam) for x, sigma in tangent)
            if all(r is not None and r[0] > limit for r in below):
                return best
    for xi, sigma, w in vertices:
        r = _symmetric_value(xi, sigma, t, lam)
        if r is not None and (best is None or r[0] < best[0]):
            best = (r[0], seg, xi, w)
    return best


def _certify_slopes(
    seg: _Segment, xi: float, f: float, t: float, lam: float | None,
    bottom: float, top: float, spread: float,
) -> None:
    """Raise :class:`NonConvergence` unless the symmetric objective (value
    ``f > 0`` at ``xi`` on ``seg``; ``lam=None`` is no budget) stops
    falling along the frontier there.

    The one-sided slopes must satisfy ``D- <= 0`` (unless ``xi`` is the
    frontier's ``bottom``) and ``D+ >= 0`` (unless it is the ``top``); ends
    match to 1e-12 relative, as chain ends carry rounding.  Scoring tells
    candidates apart only down to rounding in value, so each slope is taken
    ``delta`` away on its side, where the objective (curvature about
    ``a + 1``) moves by ``VALUE_TIE * f``.  The slopes are compared in
    weight units, times ``spread`` (that of the means), as a pair direction
    ``e_i - e_j`` moves ``xi`` by at most that much; per unit of ``xi``
    they are flat only to rounding on steep frontiers.
    """
    def slope(x: float) -> float:
        sigma = seg.sigma(x)
        dsigma = (2.0 * seg.a * (x - seg.hi) + seg.b) / (2.0 * sigma)
        return _symmetric_slope(x, sigma, t, lam, dsigma)

    tol = 1e-12 * (spread + abs(xi))
    delta = math.sqrt(VALUE_TIE * f / (seg.a + 1.0))
    left, right = slope(xi - delta), slope(xi + delta)
    slack = KKT_TOL * f
    if (xi > bottom + tol and left * spread > slack) or (
        xi < top - tol and right * spread < -slack
    ):
        raise NonConvergence(
            f"objective still falls along the frontier at xi={xi} "
            f"(slopes {left:.3e}, {right:.3e})"
        )


def m_tsv_s_portfolio(fp: FrontierParams, m: MarketModel, nu: float, t: float) -> Portfolio:
    """Minimize worst-case symmetric target semi-variance with loss cap ``nu``.

    The feasible frontier is ``xi <= hi = min(nu, v1/v0)``: above the global
    minimum-variance point ``v1/v0`` both ``xi`` and ``sigma`` rise, and
    every branch is non-decreasing in each.  Below ``t`` the objective is
    ``sigma^2 / 2``, which falls toward ``v1/v0``, so nothing below
    ``min(t, hi)`` can win.  The answer is the first smallest of the exact
    candidates of :func:`_segment_candidates` on ``[min(t, hi), hi]``: the
    segment cut to that range is the one piece :func:`_symmetric_minimizer`
    walks, with ``bottom = min(t, hi)``, so its tangent stop never runs.
    :func:`_certify_slopes` checks the answer on the whole feasible
    frontier.  The regime is where it lies: (i) ``t >= nu``, every feasible
    point at or below the threshold; (ii) at or below ``t``; (iii) above
    ``t``.
    """
    if not (math.isfinite(nu) and math.isfinite(t)):
        raise InvalidThreshold(f"loss cap and threshold must be finite, got {nu} and {t}")
    seg = fp.segment
    hi = min(nu, seg.hi)
    lo = min(t, hi)
    value, _, xi, _ = _symmetric_minimizer([(seg, lo, hi)], t, None, lo)
    spread = float(m.mu_vec.max() - m.mu_vec.min())
    _certify_slopes(seg, xi, value, t, None, -math.inf, hi, spread)
    tag = "i" if t >= nu else "ii" if xi <= t else "iii"
    base = min_variance_portfolio(fp, m, xi)
    return Portfolio(base.weights, base.expected_loss, base.stdev, value, tag)
