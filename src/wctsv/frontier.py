"""Mean-variance frontier algebra and the short-selling-allowed solvers.

With short selling permitted, every model considered here reduces to a
one-dimensional problem along the minimum-variance frontier: for a fixed
expected loss ``xi`` the variance-minimal portfolio is a two-fund
combination, with variance quadratic in ``xi``.  The solvers differ only in
the scalar objective they minimize over ``xi``, each in closed form or by
scoring the exact candidates that :mod:`wctsv.simplex` also uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """Asset identifiers with per-period loss mean vector and covariance."""

    assets: tuple[str, ...]
    mu_vec: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mu = np.asarray(self.mu_vec, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
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


@dataclass(frozen=True, eq=False)
class FrontierParams:
    """Scalars of the frontier parabola plus the two cached solve vectors.

    ``variance(xi) = v0 xi^2 - 2 v1 xi + v2`` along the frontier, and
    ``v0 v2 - v1^2 = 1/u > 0`` so the minimal variance ``1/(u v0)`` is
    strictly positive.  Immutable and safely shareable across threads.
    """

    u: float
    v0: float
    v1: float
    v2: float
    inv_mu: np.ndarray
    inv_e: np.ndarray

    def variance_at(self, xi: float) -> float:
        return self.v0 * xi * xi - 2.0 * self.v1 * xi + self.v2


@dataclass(frozen=True, eq=False)
class Portfolio:
    weights: np.ndarray
    expected_loss: float
    stdev: float
    objective: float
    regime: str


def frontier_params(m: MarketModel) -> FrontierParams:
    """The scalars (u, v0, v1, v2) and solve vectors behind the frontier.

    Solves against the covariance's Cholesky factor; the inverse is never
    formed.  Raises :class:`DegenerateMeans` when the mean vector is
    (numerically) a multiple of the all-ones vector, which collapses the
    frontier to a single point.
    """
    factor = _cholesky(m.cov)
    e = np.ones(m.dim)
    y = np.linalg.solve(factor, np.column_stack([m.mu_vec, e]))
    inv_mu, inv_e = np.ascontiguousarray(np.linalg.solve(factor.T, y).T)
    a = float(e @ inv_e)
    b = float(e @ inv_mu)
    c = float(m.mu_vec @ inv_mu)
    u = a * c - b * b
    if u <= DEGENERACY_TOL * max(a * c, 1e-300):
        raise DegenerateMeans(
            "mean vector is numerically proportional to the all-ones vector"
        )
    return FrontierParams(u=u, v0=a / u, v1=b / u, v2=c / u, inv_mu=inv_mu, inv_e=inv_e)


def min_variance_portfolio(fp: FrontierParams, m: MarketModel, xi: float) -> Portfolio:
    """The two-fund frontier portfolio with expected loss exactly ``xi``."""
    w = (fp.v0 * xi - fp.v1) * fp.inv_mu + (fp.v2 - fp.v1 * xi) * fp.inv_e
    var = float(w @ m.cov @ w)
    return Portfolio(
        weights=w,
        expected_loss=float(w @ m.mu_vec),
        stdev=math.sqrt(var),
        objective=var,
        regime="frontier",
    )


def classical_mv(fp: FrontierParams, m: MarketModel, nu: float) -> Portfolio:
    """Minimum variance subject to expected loss at most ``nu``."""
    if not math.isfinite(nu):
        raise InvalidThreshold(f"loss cap must be finite, got {nu}")
    gmv = fp.v1 / fp.v0
    if nu < gmv:
        xi, regime = nu, "loss cap binds"
    else:
        xi, regime = gmv, "global minimum variance"
    base = min_variance_portfolio(fp, m, xi)
    return Portfolio(base.weights, base.expected_loss, base.stdev, base.objective, regime)


def tsv_portfolio(fp: FrontierParams, m: MarketModel, t: float) -> Portfolio:
    """Minimize worst-case target semi-variance, short selling allowed.

    The frontier reduction is ``g(xi) = v0 xi^2 - 2 v1 xi + v2 +
    (xi - t)_+^2``, convex piecewise-quadratic with a differentiable kink
    at ``xi = t``, so the minimizer is either the unconstrained frontier
    vertex ``v1/v0`` (when it sits at or below t) or the stationary point
    ``(v1 + t)/(v0 + 1)`` of the upper branch.
    """
    if not math.isfinite(t):
        raise InvalidThreshold(f"threshold must be finite, got {t}")
    gmv = fp.v1 / fp.v0
    if gmv <= t:
        xi, regime = gmv, "v1/v0 <= t"
    else:
        xi, regime = (fp.v1 + t) / (fp.v0 + 1.0), "v1/v0 > t"
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
    a: float, b: float, c: float, lo: float, hi: float, t: float, lam: float | None
) -> list[float]:
    """Candidate minimizers ``u = xi - hi`` of the symmetric worst case on ``[lo, hi]``.

    ``sigma(xi)`` is convex and every branch is convex and non-decreasing in
    ``sigma``, so with ``V = a u^2 + b u + c`` and ``s = xi - t`` the
    candidates are both ends and the in-segment roots of the branch-boundary
    and stationary-point equations below, in that order (``V'^2 = 4V`` is
    ``sigma' = -1``).  ``lam=None`` (no budget) drops the two in ``lam``.
    """
    tl = t - hi
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
    us = [0.0, lo - hi]
    for coeffs in equations:
        if coeffs is not None:
            us.extend(u for u in _real_roots(*coeffs) if lo <= hi + u <= hi)
    return us


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

    def h(xi: float, var: float) -> float:
        return wc_target_semivariance(MomentProfile(xi, math.sqrt(var)), t, Family.SYMMETRIC).value

    gmv = fp.v1 / fp.v0
    if t >= nu:
        xi_star, tag = min(gmv, nu), "i"
    else:
        xi1 = min(gmv, t)
        h1 = 0.5 * fp.variance_at(xi1)
        hi = min(nu, gmv)
        k = hi - gmv
        # V from the vertex form v0 (xi - gmv)^2 + 1/(u v0): variance_at's
        # expanded form loses digits where v0 is large
        a, b, c = fp.v0, 2.0 * fp.v0 * k, fp.v0 * k * k + 1.0 / (fp.u * fp.v0)
        us = _segment_candidates(a, b, c, t, hi, t, None) if t <= hi else []
        scores = [(h(hi + u, (a * u + b) * u + c), hi + u) for u in us]
        h2, xi2 = min(scores, key=lambda p: p[0], default=(math.inf, math.nan))
        if h1 <= h2 + 1e-12:
            xi_star, tag = xi1, "ii"
        else:
            xi_star, tag = xi2, "iii"
    base = min_variance_portfolio(fp, m, xi_star)
    value = h(xi_star, fp.variance_at(xi_star))
    return Portfolio(base.weights, base.expected_loss, base.stdev, value, tag)
