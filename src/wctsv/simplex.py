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
short-selling frontier, and starts from that frontier's segment: when the
unconstrained global minimum-variance portfolio is long-only, Merton's
two-fund segment, cut at its first corner, is the chain's first segment
and costs no solve; otherwise the walk finds the long-only global
minimum-variance portfolio by active-set steps on its own first KKT
solves, so no separate QP runs.  Both solvers use the exact minimizers of
:mod:`wctsv.frontier` that the short-selling rules use: EEP_TSV the sign
rule :func:`wctsv.frontier._tsv_minimizer`, like TSV; EEP_TSV_S the one
symmetric minimizer :func:`wctsv.frontier._symmetric_minimizer`, like
M_TSV_S, which scores each candidate by the closed form at ``sigma =
sqrt(V)`` of its segment and holds the tangent stop.  This module keeps
only what is long-only: the walk, the clip at 0 and rebuild of the
winner's weights (only the winner's are built), and the frontier KKT check.
The chain is walked lazily, one corner at a time, and keeps what it walked,
so each rule walks only as far as its own stop: EEP_TSV down to its ``f'``
sign change, EEP_TSV_S until an exact lower bound, the objective along the
tangent of the convex ``sigma(xi)`` below the last segment, shows that no
later point can win.  A caller solving both rules on one model can create the
chain once and pass it to each.  Each answer is checked exactly from the
walk's own data: EEP_TSV by its KKT residual, EEP_TSV_S by the frontier
KKT residual at ``kappa = -V'(xi)`` plus the slope certificate it shares
with M_TSV_S, :func:`wctsv.frontier._certify_slopes`.  There is no search,
seed, step size or finite difference.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

import numpy as np

from .errors import (
    DegenerateMeans, EmptyUncertaintySet, InfeasibleBudget, InvalidBudget, InvalidThreshold,
    NonConvergence,
)
from .frontier import (
    KKT_TOL, SIGMA_FLOOR, MarketModel, Portfolio, _certify_slopes, _Segment, _symmetric_minimizer,
    _tsv_minimizer, frontier_params,
)
from .worst_case import _ON_FLOOR, Family, MomentProfile, wc_target_semivariance_constrained

__all__ = [
    "check_regret_feasibility",
    "project_to_simplex",
    "eep_tsv_portfolio",
    "eep_tsv_s_portfolio",
]

ACTIVE_TOL = 1e-12


def check_regret_feasibility(m: MarketModel, t: float, lam: float) -> bool:
    """Whether every simplex portfolio keeps ``(w^T mu - t)_-`` within ``lam``.

    Scalar criterion: the worst expected loss over the simplex is the
    smallest asset mean, so the screen is ``(min_i mu_i - t)_- <= lam``.
    """
    if not (math.isfinite(lam) and lam > 0.0):
        raise InvalidBudget(f"budget must be finite and > 0, got {lam}")
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


def _floor_vertex(
    m: MarketModel, t: float, lam: float, cap: float, regime: str
) -> Portfolio | None:
    """The answer when the budget sits exactly on its floor ``t - min mu``.

    There every member of a portfolio's set has ``X <= t``, so a portfolio
    whose set is non-empty scores 0, a global minimum since neither
    objective is negative.  Returns the first unit portfolio at ``min mu``
    whose standard deviation is at most ``cap``, at value 0, or None above
    the floor or when none fits.  Exact float equality on purpose: the
    supremum really jumps to 0 on the floor, and just above it takes its
    positive value, so no tolerance band belongs here.
    """
    mu = m.mu_vec
    bottom = float(mu.min())
    if lam != t - bottom:  # lam > 0, so this is lam != (t - min mu)_+
        return None
    for j in np.flatnonzero(mu == bottom).tolist():
        stdev = math.sqrt(float(m.cov[j, j]))
        if stdev <= cap:
            w = np.zeros(m.dim)
            w[j] = 1.0
            return Portfolio(w, float(mu[j]), stdev, 0.0, regime)
    return None


def _require_feasible(m: MarketModel, t: float, lam: float) -> None:
    if not math.isfinite(t):
        raise InvalidThreshold(f"threshold must be finite, got {t}")
    if not check_regret_feasibility(m, t, lam):
        raise InfeasibleBudget(
            f"budget {lam} is below the floor (t - min mu)_+ = {_budget_floor(m, t)}, "
            f"so not every simplex portfolio meets it at threshold {t}"
        )


class _Chain(Sequence):
    """A walk's segments, produced on demand and kept.

    Iterating or indexing pulls segments from the walk only as far as the
    reader goes; a negative index, a slice or ``len`` walks it to the end.
    An error the walk raised is raised again to every later reader, so a
    failed walk never reads as a short chain.
    """

    def __init__(self, walk: Iterator[_Segment]) -> None:
        self._walk: Iterator[_Segment] | None = walk
        self._segments: list[_Segment] = []
        self._error: Exception | None = None

    @property
    def built(self) -> int:
        """Segments walked so far."""
        return len(self._segments)

    def _pull(self) -> bool:
        """Walk one segment further; False once the walk has ended."""
        if self._error is not None:
            raise self._error
        if self._walk is None:
            return False
        try:
            self._segments.append(next(self._walk))
        except StopIteration:
            self._walk = None
            return False
        except Exception as exc:
            self._error, self._walk = exc, None
            raise
        return True

    def __iter__(self) -> Iterator[_Segment]:
        i = 0
        while i < len(self._segments) or self._pull():
            yield self._segments[i]
            i += 1

    def __getitem__(self, i):
        while (isinstance(i, slice) or not 0 <= i < len(self._segments)) and self._pull():
            pass
        return self._segments[i]

    def __len__(self) -> int:
        while self._pull():
            pass
        return len(self._segments)


def _short_selling_top(m: MarketModel) -> _Segment | None:
    """The short-selling frontier's segment, or None on equal means."""
    try:
        return frontier_params(m).segment
    except DegenerateMeans:
        return None


def _critical_line(m: MarketModel, top: _Segment | None) -> Iterator[_Segment]:
    """The segments of :func:`_long_only_frontier`, one corner at a time."""
    mu, cov = m.mu_vec, m.cov
    d = m.dim
    free = np.ones(d, dtype=bool)
    kappa, last = 0.0, -1
    gmv = None  # the kappa = 0 system on which the active-set search settled
    walked = False
    if top is not None and top.p.min() > ACTIVE_TOL:
        # the GMV is interior: the short-selling frontier runs long-only down to
        # the first weight that falls to 0, the first index winning ties
        rising = np.flatnonzero(top.q > 0.0)
        cut = -top.p[rising] / top.q[rising]
        j = int(np.argmax(cut))
        lo = top.hi + float(cut[j])
        if lo < top.hi:  # else the walk from kappa = 0 finds the same GMV
            yield top._replace(lo=lo)
            walked = True
            # kappa = -V'(xi) and V' = 2 v0 (xi - hi) on the parabola
            kappa, last = -2.0 * top.a * float(cut[j]), int(rising[j])
            free[last] = False
    elif top is not None and top.p.min() < -ACTIVE_TOL:
        free[int(np.argmin(top.p))] = False  # the kappa = 0 search's first step
    for _ in range(7 * d + 10):
        f = np.flatnonzero(free)
        out = np.flatnonzero(~free)
        n = f.size
        if n == 0:
            raise NonConvergence("long-only minimum-variance search freed no asset")
        mu_f = mu[f]
        cff = cov[f[:, None], f]
        kkt = np.zeros((n + 1, n + 1))
        kkt[:n, :n] = 2.0 * cff
        kkt[:n, n] = -1.0
        kkt[n, :n] = 1.0
        # the kappa-slope right-hand side -mu_F is split as -(mu_F - ref) - ref:
        # the constant part only shifts gamma, so equal free means give w1 == 0
        ref = float(mu_f[0])
        rhs = np.zeros((n + 1, 2))
        rhs[n, 0] = 1.0
        rhs[:n, 1] = ref - mu_f
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            raise NonConvergence(f"singular KKT system on {n} free assets") from None
        w0, w1 = sol[:n, 0], sol[:n, 1]
        cross = 2.0 * cov[out[:, None], f]
        level = np.concatenate([w0, cross @ w0 - sol[n, 0]])
        if gmv is None and not walked:
            # kappa = 0: primal active-set search for the long-only GMV; drop the
            # most negative weight, else readmit the most negative multiplier
            if w0.min() < -ACTIVE_TOL:
                free[f[int(np.argmin(w0))]] = False
                continue
            if out.size and level[n:].min() < -ACTIVE_TOL:
                free[out[int(np.argmin(level[n:]))]] = True
                continue
            gmv = (f, kkt, rhs[:, 0])
            if (w0 <= 0.0).any():
                free[f[w0 <= 0.0]] = False
                continue
        ids = np.concatenate([f, out])
        slope = np.concatenate([w1, cross @ w1 + mu[out] - ref - sol[n, 1]])
        falling = (slope < 0.0) & (ids != last)
        if not falling.any():
            break
        roots = np.maximum(-level[falling] / slope[falling], kappa)
        j = int(np.argmin(roots))
        corner, asset = float(roots[j]), int(ids[falling][j])
        x0, x1 = float(mu_f @ w0), float(mu_f @ w1)
        hi, lo = x0 + x1 * kappa, x0 + x1 * corner
        if x1 < 0.0 and lo < hi:
            p, q = w0 + w1 * kappa, w1 / x1
            cq = cff @ q
            yield _Segment(f, p, q, lo, hi, float(q @ cq), 2.0 * float(p @ cq), float(p @ cff @ p))
            walked = True
        free[asset] = not free[asset]
        kappa, last = corner, asset
    else:
        found = gmv or walked
        raise NonConvergence(f"critical line did not {'reach min mu' if found else 'find the GMV'}")
    if not walked:
        # a one-column solve, as the GMV's weights round differently in a two-column one
        f, kkt, e = gmv
        w = np.zeros(d)
        w[f] = np.maximum(np.linalg.solve(kkt, e)[:-1], 0.0)
        f = np.flatnonzero(w > 0.0)
        xi = float(w @ mu)
        yield _Segment(f, w[f], np.zeros(f.size), xi, xi, 0.0, 0.0, float(w @ cov @ w))


def _long_only_frontier(m: MarketModel, top: _Segment | None) -> _Chain:
    """Lower half of the long-only minimum-variance frontier, walked lazily.

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

    The walk starts from ``top``, the short-selling frontier's segment
    (:attr:`wctsv.frontier.FrontierParams.segment`, or None on equal means;
    :func:`_short_selling_top` builds it).  When every weight of its global minimum-variance portfolio
    exceeds ``ACTIVE_TOL``, that portfolio is the long-only one and the
    first segment is ``top`` cut where its first weight falls to 0 (Merton's
    two-fund segment starts Markowitz's critical line), so the walk solves
    nothing until that corner.  Otherwise it starts with every asset free,
    less ``top``'s most negative weight if one is below ``-ACTIVE_TOL``, and
    while ``kappa = 0`` looks for the long-only global minimum-variance
    portfolio by primal active-set steps on its own solve: the most negative
    weight below ``-ACTIVE_TOL`` leaves ``F``, else the most negative
    multiplier below ``-ACTIVE_TOL`` rejoins it; once neither happens,
    weights ``<= 0`` leave and that solve is the first corner's.
    ``top=None`` walks from ``kappa = 0`` with every asset free.

    Nothing runs until the chain is read: the first read makes the kappa = 0
    solves it needs, then each read walks one corner per
    segment, so each reader walks only as far as it stops and a second
    reader reuses what the first walked.
    """
    return _Chain(_critical_line(m, top))


def _kkt_residual(w: np.ndarray, grad: np.ndarray) -> float:
    """Relative KKT residual over the simplex: the spread of ``grad`` on the
    weights above 1e-10 about their mean ``gamma``, and how far any other
    asset's ``grad`` falls below ``gamma``.  In scalars, as ``w`` has a few
    dozen entries at most and numpy's per-call cost would dominate."""
    free, out = [], []
    for wi, gi in zip(w.tolist(), grad.tolist()):
        (free if wi > 1e-10 else out).append(gi)
    gamma = sum(free) / len(free)
    stationarity = max(abs(g - gamma) for g in free)
    dual = max([gamma - g for g in out], default=0.0)
    return max(stationarity, dual, 0.0) / (1.0 + abs(gamma))


def eep_tsv_portfolio(
    m: MarketModel, t: float, lam: float, frontier: Sequence[_Segment] | None = None
) -> Portfolio:
    """Long-only minimizer of the budgeted arbitrary-family worst case.

    Above the budget floor the objective ``f = V(xi) + (xi - t)_+^2`` is
    convex and differentiable along the long-only frontier (``frontier``,
    walked here when not given), and :func:`wctsv.frontier._tsv_minimizer`
    finds its minimizer by the sign of ``f'``, walking the chain only down
    to the first segment whose lower end has ``f' <= 0``.  The KKT conditions over the
    simplex are checked at the result to ``KKT_TOL``.  When the budget sits
    exactly on its floor the binding vertex is the whole feasible story and
    the objective collapses to 0 (:func:`_floor_vertex`).
    """
    _require_feasible(m, t, lam)
    floor = _floor_vertex(m, t, lam, math.inf, "lambda == (xi-t)_-")
    if floor is not None:
        return floor
    mu, cov = m.mu_vec, m.cov
    chain = frontier if frontier is not None else _long_only_frontier(m, _short_selling_top(m))
    seg, root = _tsv_minimizer(chain, t)
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


def eep_tsv_s_portfolio(
    m: MarketModel, t: float, lam: float, frontier: Sequence[_Segment] | None = None
) -> Portfolio:
    """Long-only minimizer of the budgeted symmetric-family worst case.

    When the budget sits exactly on its floor and a unit portfolio at ``min
    mu`` fits its symmetric set (``sigma <= lam``), the first such one is
    the answer, at value 0 (:func:`_floor_vertex`), and nothing is walked.
    Otherwise :func:`wctsv.frontier._symmetric_minimizer` walks the
    long-only frontier (``frontier``, walked here when not given) toward
    ``min mu`` with its tangent stop and, if the walk gets there, scores the
    vertices at ``min mu`` at their own weights (above the floor every other
    vertex is dominated by a frontier point with no larger ``xi`` or
    ``sigma``).  Only the winner's weights are rebuilt, clipped at 0, and
    the portfolio is reported at them.  Its first-order optimality is then
    checked exactly, on the segment it was scored on (a vertex on the last
    segment, which ends at ``min mu``).  Value 0 is a global minimum, since
    the objective is never negative.
    Otherwise the KKT conditions of ``min w^T cov w + kappa mu^T w`` must
    hold at ``kappa = -V'(xi)``; then no feasible direction moves ``sigma``
    less than the frontier does for the same change in ``xi``, so it
    remains for :func:`wctsv.frontier._certify_slopes` to check the
    objective's one-sided slopes along the chain, from ``xi = min mu`` to
    its top.
    """
    _require_feasible(m, t, lam)
    floor = _floor_vertex(m, t, lam, lam, _ON_FLOOR)
    if floor is not None:
        return floor
    mu, cov = m.mu_vec, m.cov
    d = m.dim
    bottom = float(mu.min())
    chain = frontier if frontier is not None else _long_only_frontier(m, _short_selling_top(m))

    def moments(w: np.ndarray) -> tuple[float, float]:
        return float(w @ mu), max(math.sqrt(max(float(w @ cov @ w), 0.0)), SIGMA_FLOOR)

    def vertices() -> Iterator[tuple[float, float, np.ndarray]]:
        for w in np.eye(d)[mu == bottom]:
            yield (*moments(w), w)

    best = _symmetric_minimizer(((s, s.lo, s.hi) for s in chain), t, lam, bottom, vertices())
    if best is None:
        raise EmptyUncertaintySet(
            f"no simplex portfolio has a non-empty symmetric set at t={t}, lambda={lam}"
        )
    _, seg, x, w = best
    if w is None:
        w = np.maximum(seg.weights(d, x), 0.0)
    p = MomentProfile(*moments(w))
    r = wc_target_semivariance_constrained(p, t, lam, Family.SYMMETRIC)
    if r.value != 0.0:
        dv = 2.0 * seg.a * (p.mu - seg.hi) + seg.b
        residual = _kkt_residual(w, 2.0 * cov @ w - dv * mu)
        if residual > KKT_TOL:
            raise NonConvergence(f"frontier KKT residual {residual:.3e} above {KKT_TOL}")
        _certify_slopes(seg, p.mu, r.value, t, lam, bottom, chain[0].hi, float(mu.max()) - bottom)
    return Portfolio(w, p.mu, p.sigma, r.value, r.regime)
