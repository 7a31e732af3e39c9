"""Long-only portfolio selection against the budgeted worst-case objectives.

Both solvers minimize a scalarization ``h(xi, sigma)`` of the portfolio's
expected loss ``xi = w^T mu`` and volatility ``sigma = sqrt(w^T cov w)``
over the probability simplex.  Above the budget floor every branch of both
objectives is non-decreasing in ``sigma`` for fixed ``xi`` and in ``xi``
for fixed ``sigma``, so a minimizer lies on the lower half of the long-only
minimum-variance frontier, from the long-only global minimum-variance
portfolio down to ``xi = min mu``.  The feasibility screen tests ``min mu``,
so every simplex portfolio meets the budget and the frontier needs no
``xi >= t - lam`` cut.

Markowitz's critical-line algorithm builds that half exactly as a chain of
:class:`wctsv.frontier._Segment`, the type that also holds the
short-selling frontier, and both solvers use the exact minimizers the
short-selling rules use: EEP_TSV the sign rule of
:func:`wctsv.frontier._tsv_minimizer`, EEP_TSV_S the first smallest of
:func:`wctsv.frontier._segment_candidates`.  Segment weights are clipped at
0 here, where the frontier is long-only.  A caller solving both rules on
one model can walk the chain once and pass it to each.  Each answer is
checked exactly from the walk's own data: EEP_TSV by its KKT residual,
EEP_TSV_S by the frontier KKT residual at ``kappa = -V'(xi)`` plus the
one-sided slopes of its objective along the chain.  There is no search,
seed, step size or finite difference.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    EmptyUncertaintySet, InfeasibleBudget, InvalidBudget, InvalidThreshold, NonConvergence
)
from .frontier import MarketModel, Portfolio, _Segment, _segment_candidates, _tsv_minimizer
from .worst_case import (
    Family,
    MomentProfile,
    _symmetric_slope,
    wc_target_semivariance_constrained,
)

__all__ = [
    "check_regret_feasibility",
    "project_to_simplex",
    "eep_tsv_portfolio",
    "eep_tsv_s_portfolio",
]

SIGMA_FLOOR = 1e-12
ACTIVE_TOL = 1e-12
KKT_TOL = 1e-8
VALUE_TIE = 1e-13


def check_regret_feasibility(m: MarketModel, t: float, lam: float) -> bool:
    """Whether every simplex portfolio keeps ``(w^T mu - t)_-`` within ``lam``.

    Scalar criterion: the worst expected loss over the simplex is the
    smallest asset mean, so the screen is ``(min_i mu_i - t)_- <= lam``.
    """
    if not lam > 0.0:
        raise InvalidBudget(f"budget must be > 0, got {lam}")
    return _budget_floor(m, t) <= lam


def project_to_simplex(v) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    v = np.asarray(v, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError("cannot project non-finite entries")
    u = np.sort(v)[::-1]
    cum = np.cumsum(u)
    idx = np.arange(1, v.size + 1)
    mask = u + (1.0 - cum) / idx > 0.0
    rho = int(idx[mask][-1])
    tau = (1.0 - cum[rho - 1]) / rho
    return np.maximum(v + tau, 0.0)


def _budget_floor(m: MarketModel, t: float) -> float:
    return max(t - float(m.mu_vec.min()), 0.0)


def _require_feasible(m: MarketModel, t: float, lam: float) -> None:
    if not math.isfinite(t):
        raise InvalidThreshold(f"threshold must be finite, got {t}")
    if not check_regret_feasibility(m, t, lam):
        raise InfeasibleBudget(
            f"budget {lam} is below the floor (t - min mu)_+ = {_budget_floor(m, t)}, "
            f"so not every simplex portfolio meets it at threshold {t}"
        )


def _budget_kkt(q2: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``q2 w - gamma 1 = rhs[:-1]``, ``1^T w = rhs[-1]`` for ``(w, gamma)``."""
    n = q2.shape[0]
    kkt = np.zeros((n + 1, n + 1))
    kkt[:n, :n] = q2
    kkt[:n, n] = -1.0
    kkt[n, :n] = 1.0
    return np.linalg.solve(kkt, rhs)


def _active_set_qp(q2: np.ndarray, c: np.ndarray):
    """Minimize ``w^T (q2/2) w + c^T w`` over the simplex by primal
    active-set iteration.  Returns (w, grad) or None when the subproblem
    never settles."""
    d = q2.shape[0]
    active: set[int] = set()
    for _ in range(3 * d + 6):
        free = [i for i in range(d) if i not in active]
        if not free:
            return None
        try:
            sol = _budget_kkt(q2[np.ix_(free, free)], np.append(-c[free], 1.0))
        except np.linalg.LinAlgError:
            return None
        w_free = sol[:-1]
        if w_free.min() < -ACTIVE_TOL:
            active.add(free[int(np.argmin(w_free))])
            continue
        w = np.zeros(d)
        w[free] = np.maximum(w_free, 0.0)
        grad = q2 @ w + c
        gamma = float(grad[free].mean())
        blocked = [i for i in sorted(active) if grad[i] - gamma < -ACTIVE_TOL]
        if blocked:
            active.remove(blocked[int(np.argmin([grad[i] for i in blocked]))])
            continue
        return w, grad
    return None


def _long_only_frontier(m: MarketModel) -> list[_Segment]:
    """Lower half of the long-only minimum-variance frontier.

    Critical-line walk of ``min w^T cov w + kappa mu^T w`` over the simplex
    from ``kappa = 0`` (the long-only global minimum-variance portfolio) to
    ``kappa -> inf`` (``xi = min mu``).  On a free set ``F`` one KKT solve of
    ``2 cov_FF w_F + kappa mu_F = gamma 1``, ``1^T w_F = 1`` makes ``w_F``
    and ``gamma`` affine in ``kappa``.  The next corner is the smallest
    ``kappa`` at which a free weight falls to 0 (its asset leaves ``F``) or
    an inactive asset's multiplier ``2 (cov w)_i + kappa mu_i - gamma``
    falls to 0 (it joins ``F``).  ``xi = mu_F^T w_F`` is affine and
    non-increasing in ``kappa``, so each piece of positive length is
    re-expressed in ``xi``; along it ``V'(xi) = -kappa``.  A frontier that
    is a single point comes back as one segment with ``lo == hi``.
    """
    mu, cov = m.mu_vec, m.cov
    d = m.dim
    start = _active_set_qp(2.0 * cov, np.zeros(d))
    if start is None:
        raise NonConvergence("long-only minimum-variance QP did not settle")
    free = start[0] > 0.0
    kappa, last = 0.0, -1
    segments: list[_Segment] = []
    for _ in range(4 * d + 4):
        f = np.flatnonzero(free)
        out = np.flatnonzero(~free)
        n = f.size
        # the kappa-slope right-hand side -mu_F is split as -(mu_F - ref) - ref:
        # the constant part only shifts gamma, so equal free means give w1 == 0
        ref = float(mu[f[0]])
        rhs = np.zeros((n + 1, 2))
        rhs[n, 0] = 1.0
        rhs[:n, 1] = ref - mu[f]
        sol = _budget_kkt(2.0 * cov[np.ix_(f, f)], rhs)
        w0, w1 = sol[:n, 0], sol[:n, 1]
        cross = 2.0 * cov[np.ix_(out, f)]
        ids = np.concatenate([f, out])
        level = np.concatenate([w0, cross @ w0 - sol[n, 0]])
        slope = np.concatenate([w1, cross @ w1 + mu[out] - ref - sol[n, 1]])
        falling = (slope < 0.0) & (ids != last)
        if not falling.any():
            break
        roots = np.maximum(-level[falling] / slope[falling], kappa)
        j = int(np.argmin(roots))
        corner, asset = float(roots[j]), int(ids[falling][j])
        x0, x1 = float(mu[f] @ w0), float(mu[f] @ w1)
        hi, lo = x0 + x1 * kappa, x0 + x1 * corner
        if x1 < 0.0 and lo < hi:
            p, q = w0 + w1 * kappa, w1 / x1
            cff = cov[np.ix_(f, f)]
            cq = cff @ q
            segments.append(
                _Segment(f, p, q, lo, hi, float(q @ cq), 2.0 * float(p @ cq), float(p @ cff @ p))
            )
        free[asset] = not free[asset]
        kappa, last = corner, asset
    else:
        raise NonConvergence("critical line did not reach min mu")
    if not segments:
        w = start[0]
        f = np.flatnonzero(w > 0.0)
        xi = float(w @ mu)
        segments.append(_Segment(f, w[f], np.zeros(f.size), xi, xi, 0.0, 0.0, float(w @ cov @ w)))
    return segments


def _kkt_residual(w: np.ndarray, grad: np.ndarray) -> float:
    free = w > 1e-10
    gamma = float(grad[free].mean())
    stationarity = float(np.abs(grad[free] - gamma).max())
    dual = float(np.maximum(gamma - grad[~free], 0.0).max()) if (~free).any() else 0.0
    return max(stationarity, dual) / (1.0 + abs(gamma))


def eep_tsv_portfolio(
    m: MarketModel, t: float, lam: float, frontier: list[_Segment] | None = None
) -> Portfolio:
    """Long-only minimizer of the budgeted arbitrary-family worst case.

    Above the budget floor the objective ``f = V(xi) + (xi - t)_+^2`` is
    convex and differentiable along the long-only frontier (``frontier``,
    walked here when not given), and :func:`wctsv.frontier._tsv_minimizer`
    finds its minimizer by the sign of ``f'``.  The KKT conditions over the
    simplex are checked at the result to ``KKT_TOL``.  When the budget sits
    exactly on its floor the binding vertex is the whole feasible story and
    the objective collapses to 0.
    """
    _require_feasible(m, t, lam)
    mu, cov = m.mu_vec, m.cov
    floor = _budget_floor(m, t)
    # Exact float equality on purpose: the supremum really jumps to 0 on the
    # floor (every member has X <= t), and just above it takes its positive
    # value, so no tolerance band belongs here.
    if lam == floor and floor > 0.0:
        j = int(np.argmin(mu))
        w = np.zeros(m.dim)
        w[j] = 1.0
        return Portfolio(
            weights=w,
            expected_loss=float(mu[j]),
            stdev=math.sqrt(float(cov[j, j])),
            objective=0.0,
            regime="lambda == (xi-t)_-",
        )

    seg, root = _tsv_minimizer(frontier or _long_only_frontier(m), t)
    w = np.maximum(seg.weights(m.dim, root), 0.0)

    xi = float(w @ mu)
    up = max(xi - t, 0.0)
    residual = _kkt_residual(w, 2.0 * cov @ w + 2.0 * up * mu)
    if residual > KKT_TOL:
        raise NonConvergence(f"KKT residual {residual:.3e} above {KKT_TOL}")
    var = float(w @ cov @ w)
    return Portfolio(
        weights=w,
        expected_loss=xi,
        stdev=math.sqrt(var),
        objective=var + up * up,
        regime="lambda > (xi-t)_-",
    )


def _certify_symmetric(
    chain: list[_Segment], w: np.ndarray, p: MomentProfile, f: float,
    m: MarketModel, t: float, lam: float,
) -> None:
    """Raise :class:`NonConvergence` unless EEP_TSV_S's winner ``w`` (at
    ``p``, value ``f``) passes an exact first-order optimality check.

    Value 0 is a global minimum, since the objective is never negative.
    Otherwise ``w`` must lie on the frontier: its segment is found by its
    ``xi`` (to 1e-12 relative, as the chain's ends carry rounding) and the
    KKT conditions of ``min w^T cov w + kappa mu^T w`` must hold at
    ``kappa = -V'(xi)``.  Then no feasible direction moves ``sigma`` less
    than the frontier does for the same change in ``xi``, so it remains to
    check the objective's one-sided slopes along the frontier:
    ``D- <= 0`` (unless ``xi = min mu``) and ``D+ >= 0`` (unless ``xi`` is
    the top).  Scoring tells candidates apart only down to rounding in
    value, so each slope is taken ``delta`` away on its side, where the
    objective (curvature about ``a + 1``) moves by ``VALUE_TIE * f``.  The
    slopes are compared in weight units, times the spread of the means, as
    a pair direction ``e_i - e_j`` moves ``xi`` by at most that much; per
    unit of ``xi`` they are flat only to rounding on steep frontiers.
    """
    if f == 0.0:
        return
    mu = m.mu_vec
    spread = float(mu.max() - mu.min())
    xi = p.mu
    tol = 1e-12 * (spread + abs(xi))
    seg = next((s for s in chain if s.lo - tol <= xi <= s.hi + tol), None)
    if seg is None:
        raise NonConvergence(f"winner at xi={xi} is off the long-only frontier")
    dv = 2.0 * seg.a * (xi - seg.hi) + seg.b
    residual = _kkt_residual(w, 2.0 * m.cov @ w - dv * mu)
    if residual > KKT_TOL:
        raise NonConvergence(f"frontier KKT residual {residual:.3e} above {KKT_TOL}")

    def slope(x: float) -> float:
        u = x - seg.hi
        sigma = max(math.sqrt(max((seg.a * u + seg.b) * u + seg.c, 0.0)), SIGMA_FLOOR)
        dsigma = (2.0 * seg.a * u + seg.b) / (2.0 * sigma)
        return _symmetric_slope(MomentProfile(x, sigma), t, lam, dsigma)

    delta = math.sqrt(VALUE_TIE * f / (seg.a + 1.0))
    left, right = slope(xi - delta), slope(xi + delta)
    slack = KKT_TOL * f
    if (xi > chain[-1].lo + tol and left * spread > slack) or (
        xi < chain[0].hi - tol and right * spread < -slack
    ):
        raise NonConvergence(
            f"objective still falls along the frontier at xi={xi} "
            f"(slopes {left:.3e}, {right:.3e})"
        )


def eep_tsv_s_portfolio(
    m: MarketModel, t: float, lam: float, frontier: list[_Segment] | None = None
) -> Portfolio:
    """Long-only minimizer of the budgeted symmetric-family worst case.

    The candidates are those of :func:`wctsv.frontier._segment_candidates`
    on every segment of the long-only frontier (``frontier``, walked here
    when not given) plus every vertex (where the exact-equality floor
    branch can fire).  Each is scored by the closed form at its rebuilt
    weights, the first smallest wins, and :func:`_certify_symmetric`
    checks the winner's first-order optimality exactly.
    """
    _require_feasible(m, t, lam)
    mu, cov = m.mu_vec, m.cov
    d = m.dim
    chain = frontier or _long_only_frontier(m)

    candidates = []
    for seg in chain:
        xs = _segment_candidates(seg, seg.lo, seg.hi, t, lam)
        candidates.extend(np.maximum(seg.weights(d, xi), 0.0) for xi in xs)
    candidates.extend(np.eye(d))

    best = None
    for w in candidates:
        sigma = max(math.sqrt(max(float(w @ cov @ w), 0.0)), SIGMA_FLOOR)
        p = MomentProfile(float(w @ mu), sigma)
        try:
            r = wc_target_semivariance_constrained(p, t, lam, Family.SYMMETRIC)
        except EmptyUncertaintySet:
            continue
        if best is None or r.value < best[2].value:
            best = (w, p, r)
    if best is None:
        raise EmptyUncertaintySet(
            f"no simplex portfolio has a non-empty symmetric set at t={t}, lambda={lam}"
        )
    w, p, r = best
    _certify_symmetric(chain, w, p, r.value, m, t, lam)
    return Portfolio(
        weights=w,
        expected_loss=p.mu,
        stdev=p.sigma,
        objective=r.value,
        regime=r.regime,
    )
