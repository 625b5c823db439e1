"""Contact order between curves and submanifolds, plus the decay,
monotonicity and length bounds that the verdict pipeline leans on.

Two independent routes measure contact order:

* jet route: M is a graph over m tangent rows, and the contact order is
  the vanishing order of the residual g(t) = gamma_normal(t) -
  alpha_normal(u(t)), with alpha_tangent(u(t)) = gamma_tangent(t), minus
  one. A graph chart reads its inverse directly, u = gamma_tangent; a
  parametric chart is re-charted over the tangent rows of its largest
  Jacobian minor at the chart point of gamma(0), which every curve
  carries, and u is expanded as a jet by Newton iteration in the series
  ring, which stops after its first zero correction. A quotient or sqrt
  that leaves its domain on the way raises expr.DomainError, for jets as
  for floats. Either way the coefficients are exact, never finite
  differences.
  On request residual_jets also linearizes g in the curve's jets: P =
  dg/dgamma is [-J_N(u) J_T(u)^-1 | I] over the re-chart's tangent and
  normal rows ([-grad h(gamma_T) | I] on a graph), with J_T(u)^-1 solved
  order by order, so the class-k fit reads exact Jacobians from the same
  call.

* metric route: slope of log d(gamma(t), M) against log t on a geometric
  grid. For analytic data d ~ t^(order+1), so the integer estimate is
  floor(slope - 0.5), clamped at 0.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import expr as ex
from .config import Tolerances, composite_gauss, geometric_grid
from .exterior import max_minor_rows, solve
from .jets import Jet, jet_eval_many
from .manifold import Submanifold

_TOL = Tolerances()


class ContactError(Exception):
    pass


class NotOnManifold(ContactError):
    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row      # flat index of the first bad curve of a stack


class TubeExit(ContactError):
    pass


class PreconditionError(ContactError):
    pass


# ---------------------------------------------------------------------------
# curves


class PolyCurve:
    """gamma(t) = sum_j t^j c_j with coefficient vectors c_j in R^n, through
    the chart point `chart` of gamma(0), if it lies on a submanifold.

    The coefficients may carry leading batch axes, shape (..., degree+1, n):
    then the curve is a stack of curves, turned into batched jets, and the
    chart point (..., m) broadcasts over it."""

    def __init__(self, coeffs, chart=None):
        # C order: the sum over the coefficients rounds by their layout
        self.coeffs = np.atleast_2d(np.ascontiguousarray(coeffs, dtype=float))
        self.chart = None if chart is None else np.asarray(chart, dtype=float)

    @property
    def degree(self) -> int:
        return self.coeffs.shape[-2] - 1

    @property
    def n(self) -> int:
        return self.coeffs.shape[-1]

    def __call__(self, t):
        """The points (..., *t.shape, n): every curve of the stack at every t."""
        t = np.asarray(t, dtype=float)
        powers = t[..., None, None] ** np.arange(self.degree + 1)[:, None]
        coeffs = np.expand_dims(self.coeffs, tuple(range(-2 - t.ndim, -2)))
        return np.sum(powers * coeffs, axis=-2)

    def velocity(self) -> "PolyCurve":
        if self.degree == 0:
            return PolyCurve(np.zeros_like(self.coeffs))
        j = np.arange(1, self.degree + 1)[:, None]
        return PolyCurve(j * self.coeffs[..., 1:, :])

    def jets(self, degree: int) -> np.ndarray:
        """The coordinates' jets, shape (..., n, degree+1)."""
        upto = min(self.degree, degree) + 1
        c = np.zeros(self.coeffs.shape[:-2] + (self.n, degree + 1))
        c[..., :upto] = np.swapaxes(self.coeffs[..., :upto, :], -1, -2)
        return c


class ExprCurve:
    """Curve of n expressions in t and the chart variables at the chart point
    `chart` (m,), or the stack of them at the points (N, m), whose jets carry
    the batch axis. Chart columns are bound as (1,)- or (N,)-arrays, as
    SweepFamily.frame_jets binds them: every subexpression free of t rounds
    as it does over a stack of points."""

    def __init__(self, exprs, chart_vars=(), chart=None):
        self.exprs = ex.as_exprs(exprs)
        self.chart_vars = tuple(chart_vars)
        self.chart = None if chart is None else np.asarray(chart, dtype=float)
        self.batch = () if self.chart is None else self.chart.shape[:-1]
        columns = () if self.chart is None else np.atleast_2d(self.chart).T
        self.bindings = dict(zip(self.chart_vars, columns))

    def __call__(self, t):
        """The points (*batch, *t.shape, n): every chart point's curve at every t."""
        t = np.asarray(t, dtype=float)
        env = {v: c.reshape(c.shape + (1,) * t.ndim) for v, c in self.bindings.items()}
        return ex.evaluate_many(self.exprs, {**env, ex.TIME_VAR: t}, self.batch + t.shape)

    def jets(self, degree: int) -> np.ndarray:
        """The coordinates' jets, shape (*batch, n, degree+1)."""
        env = {**self.bindings, ex.TIME_VAR: Jet.variable(degree)}
        return jet_eval_many(self.exprs, env, self.batch, degree)


# ---------------------------------------------------------------------------
# residual jets


def _rechart_residual(M: Submanifold, u0: np.ndarray, G: np.ndarray,
                      linearize: bool = False) -> tuple:
    """Residual (..., n-m, degree+1) of the curve jets G (..., n, degree+1)
    off the tangent rows of the largest |det| at u0, in increasing row order.
    Newton in the truncated series ring gains at least one valid order per
    sweep, so degree+2 sweeps reach the full degree bound; it stops sooner,
    after the first sweep whose correction is exactly zero, since u is then
    a root in the ring and every later sweep would leave it as it is (the
    stop rule of manifold.gauss_newton). Returned with its derivative P in G
    (see residual_jets) when `linearize`, else with None."""
    degree, batch = G.shape[-1] - 1, G.shape[:-2]
    J0 = M.jacobian_many(u0)
    tangent = np.zeros(J0.shape[:-1], dtype=bool)
    np.put_along_axis(tangent, max_minor_rows(J0), True, axis=-1)
    JT = J0[tangent].reshape(J0.shape[:-2] + (1, M.m, M.m))
    tangent = np.broadcast_to(tangent, G.shape[:-1])

    def components(u, marked):      # rows `marked` names for some curve, else 0
        rows, out = np.flatnonzero(np.any(marked.reshape(-1, M.n), axis=0)), np.zeros(G.shape)
        out[..., rows, :] = jet_eval_many([M.components[r] for r in rows],
                                          dict(zip(M.chart_vars, u)), batch, degree)
        return out

    u = [Jet.constant(u0[..., i], degree) for i in range(M.m)]
    for _ in range(degree + 2):
        F = (components(u, tangent) - G)[tangent].reshape(batch + (M.m, degree + 1))
        delta = solve(JT, np.swapaxes(F, -1, -2))            # per-order correction
        u = [u[i] - Jet(delta[..., i]) for i in range(M.m)]
        if not np.any(delta):
            break
    res = (G - components(u, ~tangent))[~tangent]
    res = res.reshape(batch + (M.n - M.m, degree + 1))
    if not linearize:
        return res, None
    # d res / d G = [-J_N J_T^-1 | I] at J = J(u); X = J_N J_T^-1 solves
    # X J_T = J_N order by order, each order against J_T(u0)
    Ju = jet_eval_many(M.jac_exprs, dict(zip(M.chart_vars, u)), batch, degree)
    Ju = Ju.reshape(G.shape[:-1] + (M.m, degree + 1))
    JTu = Ju[tangent].reshape(batch + (M.m, M.m, degree + 1))
    X = Ju[~tangent].reshape(batch + (M.n - M.m, M.m, degree + 1))
    for o in range(degree + 1):
        if o:
            X[..., o] -= np.einsum("...qab,...acb->...qc", X[..., o - 1::-1],
                                   JTu[..., 1:o + 1])
        X[..., o] = solve(np.swapaxes(JT, -1, -2), X[..., o])
    unit = np.broadcast_to(np.eye(M.n), tangent.shape + (M.n,))
    P = -np.einsum("...qao,...an->...qno", X,
                   unit[tangent].reshape(batch + (M.m, M.n)))
    P[..., 0] += unit[~tangent].reshape(batch + (M.n - M.m, M.n))
    return res, P


#: the largest contact order the jet route measures; residual_jets takes
#: degree MAX_JET_ORDER + 1 at most, the one extra coefficient that decides
#: that order, and raises ValueError above it. Memory grows about like the
#: cube of the degree: `osclab contact` on hyperbolic_paraboloid peaks at
#: 32 MB up to order 50, 34 MB at 64, 41 MB at 100, 62 MB at 150 and about
#: 100 MB at 200, and order 3000 asks for 25 GiB. The corpus needs 14 at
#: most (max_contact_order)
MAX_JET_ORDER = 64


def max_contact_order(k: int, m: int) -> int:
    """The largest contact order the pipeline measures by jets for class k
    on an m-manifold: the required order k (m + 1) plus 2."""
    return k * (m + 1) + 2


def residual_jets(M: Submanifold, curve, degree: int, tol=_TOL, linearize: bool = False):
    """Taylor coefficients (..., n-m, degree+1) of the residual of a curve,
    or of a stack of curves, against M; every base must lie in the box and
    on M, and NotOnManifold names the first curve that does not. A degree
    above MAX_JET_ORDER + 1 raises ValueError before any jet work.

    With `linearize`, the pair (residual, P): P (..., n-m, n, degree+1) is
    the residual's exact derivative in the curve's jets, a matrix of jets,
    so a change dgamma of the curve moves the residual by P dgamma in the
    truncated series ring. On a graph P is [-grad h(gamma_T) | I]."""
    if degree > MAX_JET_ORDER + 1:
        raise ValueError(f"jet degree {degree} exceeds MAX_JET_ORDER + 1 = {MAX_JET_ORDER + 1}")
    u0 = curve.chart
    if u0 is None:
        raise NotOnManifold("the curve carries no chart point of its base")
    outside = ~M.in_box_many(u0, tol=1e-9)
    if np.any(outside):
        row = int(np.flatnonzero(outside)[0])
        raise NotOnManifold(f"base chart point {u0.reshape(-1, M.m)[row].tolist()} "
                            "outside the box", row)
    G = curve.jets(degree)
    if M.kind == "graph":
        # a graph's inverse is its first m rows: u = gamma_tangent
        batch = G.shape[:-2]
        env = {v: Jet(G[..., i, :]) for i, v in enumerate(M.chart_vars)}
        res = G[..., M.m:, :] - jet_eval_many(M.components[M.m:], env, batch, degree)
        if linearize:
            # only the height partials are evaluated; the rest of P is 0 or I
            P = np.zeros(res.shape[:-1] + (M.n, degree + 1))
            dh = jet_eval_many(M.jac_exprs[M.m * M.m:], env, batch, degree)
            P[..., :M.m, :] = -dh.reshape(res.shape[:-1] + (M.m, degree + 1))
            normal = np.arange(M.n - M.m)
            P[..., normal, M.m + normal, 0] = 1.0
    else:
        res, P = _rechart_residual(M, u0, G, linearize)
    off = np.max(np.abs(res[..., 0]), axis=-1)
    scale = 1.0 + np.linalg.norm(G[..., 0], axis=-1)
    bad = ~(off <= tol.on_manifold * scale)
    if np.any(bad):
        row = int(np.flatnonzero(bad)[0])
        raise NotOnManifold(f"curve base point is {off.ravel()[row]:.3e} "
                            "off the manifold", row)
    return (res, P) if linearize else res


# ---------------------------------------------------------------------------
# contact order, jet route


class ContactOrder(NamedTuple):
    order: int
    saturated: bool
    max_order: int
    coeffs: np.ndarray
    scale: float

    def meets(self, required: int) -> bool:
        return self.saturated or self.order >= required

    def __str__(self):
        return f">={self.max_order}" if self.saturated else str(self.order)


def _order_from_coeffs(coeffs: np.ndarray, max_order: int, coeff_tol: float) -> ContactOrder:
    scale = max(1.0, float(np.max(np.abs(coeffs))))
    tol = coeff_tol * scale
    vanishes = np.all(np.abs(coeffs) <= tol, axis=0)
    nonzero = np.nonzero(~vanishes)[0]
    if nonzero.size == 0:
        return ContactOrder(max_order, True, max_order, coeffs, scale)
    order = min(max(int(nonzero[0]) - 1, 0), max_order)
    return ContactOrder(order, False, max_order, coeffs, scale)


def contact_order_jet_recharted(curve, M: Submanifold, max_order: int, tol=_TOL):
    """Jet contact order of a curve that carries its chart point, for any
    chart kind (the re-chart of residual_jets); a stack of N curves gives a
    list of N orders from one residual_jets call. A max_order above
    MAX_JET_ORDER raises residual_jets' ValueError."""
    coeffs = residual_jets(M, curve, max_order + 1, tol)
    if coeffs.ndim == 2:
        return _order_from_coeffs(coeffs, max_order, tol.contact_coeff)
    return [_order_from_coeffs(c, max_order, tol.contact_coeff) for c in coeffs]


# ---------------------------------------------------------------------------
# contact order, metric route


class MetricOrder(NamedTuple):
    slope: float | None
    order: int | None
    contained: bool
    ts: np.ndarray
    distances: np.ndarray


def contact_order_metric(curve, M: Submanifold, t_grid=None, tol=_TOL) -> MetricOrder:
    """Log-log slope of the curve's distance to M over the t-grid; contained
    when fewer than two distances exceed dist_zero. The distances are
    M.distances settled at dist_zero, followed from curve.chart."""
    ts = np.asarray(geometric_grid() if t_grid is None else t_grid, dtype=float)
    ds, _ = M.distances(curve(ts), tol.dist_zero, curve.chart)
    live = ds > tol.dist_zero
    if np.count_nonzero(live) < 2:
        return MetricOrder(None, None, True, ts, ds)
    slope, _ = np.polyfit(np.log(ts[live]), np.log(ds[live]), 1)
    order = max(int(np.floor(slope - 0.5)), 0)
    return MetricOrder(float(slope), order, False, ts, ds)


# ---------------------------------------------------------------------------
# uniform decay of d(phi_t(x), M) / t^k


class DecayReport(NamedTuple):
    k: int
    ts: np.ndarray
    ratios: np.ndarray
    contained: bool
    hypothesis_met: bool
    passed: bool
    message: str


def uniform_decay_check(family, k: int, tol=_TOL) -> DecayReport:
    """Check max over a compact sample set of d(phi(x,t), M)/t^k decays to 0.

    Failure is a negative report, not an error; the per-t max-ratio table is
    always returned, and the report records whether the sampled curves reach
    jet contact order k (the hypothesis that guarantees decay). The
    distances are M.distances settled at the underflow floor dist_zero,
    each point followed from its sample, and those below it count as exact
    containment.
    """
    M = family.M
    ts = geometric_grid()
    X = M.grid(4, margin=0.15)
    max_order = max(k, 1)
    hypothesis_met = all(order.meets(k) for order in contact_order_jet_recharted(
        family.curve_at(X), M, max_order, tol))
    starts = np.tile(X, (len(ts), 1))
    pts = family.point_many(starts, np.repeat(ts, len(X)))
    ds = M.distances(pts, tol.dist_zero, starts)[0].reshape(len(ts), len(X))
    ratios = np.max(np.where(ds < tol.dist_zero, 0.0, ds), axis=1) / ts**k
    contained = bool(np.all(ratios < tol.decay_floor))
    passed = contained or ratios[-1] < 0.1 * ratios[0]
    message = (
        "numerically contained" if contained
        else "decays" if passed
        else "does not decay"
    )
    return DecayReport(k, ts, ratios, contained, hypothesis_met, passed, message)


# ---------------------------------------------------------------------------
# monotone window (nearest-point displacement coordinates)


def _side_monotone(vals: np.ndarray, tol_abs: float) -> bool:
    # vals: (samples, n); each coordinate must not change the sign of its
    # finite differences; identically tiny coordinates count as monotone
    for i in range(vals.shape[1]):
        col = vals[:, i]
        if np.max(np.abs(col)) < 1e-12:
            continue
        d = np.diff(col)
        if np.any(d > tol_abs) and np.any(d < -tol_abs):
            return False
    return True


def monotone_window(curve, M: Submanifold, eps_max: float = 0.5) -> float:
    """Largest grid-certified eps such that every coordinate of the nearest
    point of gamma(t) minus gamma(t) is monotone on (0,eps) and (-eps,0),
    certified on 64 samples per side."""
    eps, samples = float(eps_max), 64
    for _ in range(13):
        ts = eps * np.arange(1, samples + 1) / samples
        ts = np.concatenate([-ts[::-1], ts])
        pts = curve(ts)
        b = M.project_batch(pts)
        if np.all(b.converged & ~b.ambiguous):
            f = b.point - pts
            scale = max(1.0, float(np.max(np.abs(f))))
            ok_neg = _side_monotone(f[:samples][::-1], 1e-12 * scale)
            ok_pos = _side_monotone(f[samples:], 1e-12 * scale)
            if ok_neg and ok_pos:
                return eps
        eps *= 0.5
    raise TubeExit(f"no certified monotone window at or below eps={eps:.3e}")


# ---------------------------------------------------------------------------
# length bound for coordinate-monotone curves


class LengthBound(NamedTuple):
    length: float
    bound: float
    holds: bool


def _adaptive_length(curve, a: float, b: float) -> float:
    velocity, prev = curve.velocity(), None
    for level in range(3, 13):
        ts, w = composite_gauss(a, b, 2**level, 10)
        total = float(np.dot(w, np.linalg.norm(velocity(ts), axis=-1)))
        if prev is not None and abs(total - prev) <= 1e-10 * (1.0 + abs(total)):
            return total
        prev = total
    return prev


def length_bound_check(curve, a: float, b: float) -> LengthBound:
    ts = np.linspace(a, b, 257)
    vals = curve(ts)
    for i in range(vals.shape[1]):
        col = vals[:, i]
        tol_abs = 1e-12 * max(1.0, float(np.max(np.abs(col))))
        d = np.diff(col)
        if np.any(d > tol_abs) and np.any(d < -tol_abs):
            raise PreconditionError(f"coordinate {i} is not monotone on [{a}, {b}]")
    length = _adaptive_length(curve, a, b)
    n = vals.shape[1]
    bound = n * float(np.linalg.norm(vals[-1] - vals[0]))
    holds = length <= bound + 1e-9 * (1.0 + bound)
    return LengthBound(length, bound, holds)
