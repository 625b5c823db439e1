"""Contact order between curves and submanifolds, plus the decay,
monotonicity and length bounds that the verdict pipeline leans on.

Two independent routes measure contact order:

* jet route: for a graph z = h(x), the contact order of a curve gamma with
  gamma(0) on M is the vanishing order of the normal residual
  g(t) = gamma_normal(t) - h(gamma_tangent(t)) minus one. Residual Taylor
  coefficients come from exact jet arithmetic, never finite differences.
  Parametric charts are re-charted locally as a graph over the m ambient
  coordinates that maximize the tangent-frame minor; the chart inverse is
  expanded as a jet by Newton iteration in the series ring.

* metric route: slope of log d(gamma(t), M) against log t on a geometric
  grid. For analytic data d ~ t^(order+1), so the integer estimate is
  floor(slope - 0.5), clamped at 0.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from . import expr as ex
from .config import Tolerances, composite_gauss, geometric_grid
from .exterior import max_minor_rows
from .jets import Jet, jet_eval_expr
from .manifold import Submanifold

_TOL = Tolerances()


class ContactError(Exception):
    pass


class NotOnManifold(ContactError):
    pass


class NonGraphChart(ContactError):
    """contact_order_jet needs a graph chart; use the recharted variant."""


class TubeExit(ContactError):
    pass


class PreconditionError(ContactError):
    pass


# ---------------------------------------------------------------------------
# curves


class PolyCurve:
    """gamma(t) = sum_j t^j c_j with coefficient vectors c_j in R^n.

    The coefficients may carry leading batch axes, shape (..., degree+1, n):
    then the curve is a stack of curves, evaluated at a scalar t and turned
    into batched jets."""

    def __init__(self, coeffs):
        self.coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))

    @property
    def degree(self) -> int:
        return self.coeffs.shape[-2] - 1

    @property
    def n(self) -> int:
        return self.coeffs.shape[-1]

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        powers = t[..., None, None] ** np.arange(self.degree + 1)[:, None]
        return np.sum(powers * self.coeffs, axis=-2)

    def velocity(self) -> "PolyCurve":
        if self.degree == 0:
            return PolyCurve(np.zeros_like(self.coeffs))
        j = np.arange(1, self.degree + 1)[:, None]
        return PolyCurve(j * self.coeffs[..., 1:, :])

    def reparametrized(self, lam: float) -> "PolyCurve":
        scale = lam ** np.arange(self.degree + 1)
        return PolyCurve(scale[:, None] * self.coeffs)

    def jets(self, degree: int) -> list[Jet]:
        upto = min(self.degree, degree) + 1
        c = np.zeros(self.coeffs.shape[:-2] + (self.n, degree + 1))
        c[..., :upto] = np.swapaxes(self.coeffs[..., :upto, :], -1, -2)
        return [Jet(c[..., i, :]) for i in range(self.n)]


class ExprCurve:
    """Curve given by n expressions in the time variable (chart values bound)."""

    def __init__(self, exprs, bindings=None):
        self.exprs = [ex.parse(e) if isinstance(e, str) else e for e in exprs]
        self.bindings = dict(bindings or {})

    @property
    def n(self) -> int:
        return len(self.exprs)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return ex.evaluate_many(self.exprs, {**self.bindings, ex.TIME_VAR: t}, t.shape)

    def velocity(self) -> "ExprCurve":
        return ExprCurve([ex.diff(e, ex.TIME_VAR) for e in self.exprs], self.bindings)

    def jets(self, degree: int) -> list[Jet]:
        env = {name: Jet.constant(v, degree) for name, v in self.bindings.items()}
        env[ex.TIME_VAR] = Jet.variable(degree)
        return [jet_eval_expr(e, env, degree) for e in self.exprs]


def curve_point(curve, t):
    return np.asarray(curve(np.asarray(t, dtype=float)), dtype=float)


# ---------------------------------------------------------------------------
# residual jets


def _graph_residual_jets(M: Submanifold, curve, degree: int, tol=_TOL):
    """Residual coefficients (..., n-m, degree+1) of a curve or a stack of
    PolyCurves; the box and on-graph checks must hold for every curve."""
    base = curve_point(curve, 0.0)
    m = M.m
    inside = M.in_box_many(base[..., :m], tol=1e-9)
    if not np.all(inside):
        bad = base[..., :m][~inside][0]
        raise NotOnManifold(f"base chart point {bad.tolist()} outside the box")
    gj = curve.jets(degree)
    env = {name: gj[i] for i, name in enumerate(M.chart_vars)}
    res = []
    for i, h in enumerate(M.components[m:]):
        res.append(gj[m + i] - jet_eval_expr(h, env, degree))
    coeffs = np.stack([r.coeffs for r in res], axis=-2)  # (..., n-m, degree+1)
    off = np.max(np.abs(coeffs[..., 0]), axis=-1)
    scale = 1.0 + np.linalg.norm(base, axis=-1)
    if np.any(off > tol.on_manifold * scale):
        raise NotOnManifold(f"curve base point is {np.max(off):.3e} off the graph")
    return coeffs, base[..., :m]


def _parametric_residual_jets(M: Submanifold, curve, degree: int, tol=_TOL):
    base = curve_point(curve, 0.0)
    proj = M.nearest_point(base)
    scale = 1.0 + float(np.linalg.norm(base))
    if proj.distance > tol.on_manifold * scale:
        raise NotOnManifold(f"curve base point is {proj.distance:.3e} off the chart")
    u0 = proj.chart
    J0 = M.jacobian(u0)
    # re-chart as a graph over the m ambient coordinates whose tangent rows
    # have the largest |det|
    t_rows = list(max_minor_rows(J0))
    n_rows = [i for i in range(M.n) if i not in t_rows]
    JT = J0[t_rows, :]

    gj = curve.jets(degree)
    gT = [gj[i] for i in t_rows]
    u = [Jet.constant(u0[i], degree) for i in range(M.m)]
    # Newton in the truncated series ring; each sweep gains at least one
    # valid order, so degree+2 sweeps reach the full degree bound.
    for _ in range(degree + 2):
        env = dict(zip(M.chart_vars, u))
        F = [jet_eval_expr(M.components[r], env, degree) - gT[i]
             for i, r in enumerate(t_rows)]
        Fc = np.stack([f.coeffs for f in F])          # (m, degree+1)
        delta = np.linalg.solve(JT, Fc)               # per-order correction
        u = [u[i] - Jet(delta[i]) for i in range(M.m)]
    env = dict(zip(M.chart_vars, u))
    res = [gj[r] - jet_eval_expr(M.components[r], env, degree) for r in n_rows]
    coeffs = np.stack([r.coeffs for r in res])
    return coeffs, u0


def residual_jets(M: Submanifold, curve, degree: int, tol=_TOL):
    """Taylor coefficients of the normal residual of `curve` against M."""
    if M.kind == "graph":
        return _graph_residual_jets(M, curve, degree, tol)
    return _parametric_residual_jets(M, curve, degree, tol)


# ---------------------------------------------------------------------------
# contact order, jet route


@dataclass(frozen=True)
class ContactOrder:
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


def contact_order_jet(curve, M: Submanifold, max_order: int, tol=_TOL) -> ContactOrder:
    """Jet contact order of a curve with a graph submanifold at t=0."""
    if M.kind != "graph":
        raise NonGraphChart("manifold is not a graph; re-chart first")
    coeffs, _ = _graph_residual_jets(M, curve, max_order + 1, tol)
    return _order_from_coeffs(coeffs, max_order, tol.contact_coeff)


def contact_order_jet_recharted(curve, M: Submanifold, max_order: int, tol=_TOL) -> ContactOrder:
    """Jet contact order for any chart kind (local graph re-chart if needed)."""
    coeffs, _ = residual_jets(M, curve, max_order + 1, tol)
    return _order_from_coeffs(coeffs, max_order, tol.contact_coeff)


# ---------------------------------------------------------------------------
# contact order, metric route


@dataclass(frozen=True)
class MetricOrder:
    slope: float | None
    order: int | None
    contained: bool
    ts: np.ndarray
    distances: np.ndarray

    def agrees_with(self, jet: ContactOrder, slope_window: float = 0.2) -> bool:
        if self.contained:
            return jet.saturated
        return abs(self.slope - (jet.order + 1)) <= slope_window


def contact_order_metric(curve, M: Submanifold, t_grid=None, tol=_TOL) -> MetricOrder:
    ts = np.asarray(geometric_grid() if t_grid is None else t_grid, dtype=float)
    pts = curve_point(curve, ts)
    ds = M.distance_many(pts)
    live = ds > tol.dist_zero
    if np.count_nonzero(live) < 2:
        return MetricOrder(None, None, True, ts, ds)
    slope, _ = np.polyfit(np.log(ts[live]), np.log(ds[live]), 1)
    order = max(int(np.floor(slope - 0.5)), 0)
    return MetricOrder(float(slope), order, False, ts, ds)


# ---------------------------------------------------------------------------
# uniform decay of d(phi_t(x), M) / t^k


@dataclass(frozen=True)
class DecayReport:
    k: int
    ts: np.ndarray
    ratios: np.ndarray
    contained: bool
    hypothesis_met: bool
    passed: bool
    message: str


def uniform_decay_check(family, k: int, sub_box=None, t_grid=None,
                        samples_per_axis: int = 4, tol=_TOL) -> DecayReport:
    """Check max over a compact sample set of d(phi(x,t), M)/t^k decays to 0.

    Failure is a negative report, not an error; the per-t max-ratio table is
    always returned, and the report records whether the sampled curves reach
    jet contact order k (the hypothesis that guarantees decay). Distances
    below the underflow floor count as exact containment.
    """
    M = family.M
    ts = np.asarray(geometric_grid() if t_grid is None else t_grid, dtype=float)
    shrink = 0.15 if sub_box is None else sub_box
    X = M.grid(samples_per_axis, margin=shrink)
    max_order = max(k, 1)
    hypothesis_met = all(
        contact_order_jet_recharted(family.curve_at(x), M, max_order, tol).meets(k)
        for x in X
    )
    ratios = np.empty_like(ts)
    for i, t in enumerate(ts):
        pts = family.point_many(X, np.full(X.shape[0], t))
        ds = M.distance_many(pts)
        ds = np.where(ds < tol.dist_zero, 0.0, ds)
        ratios[i] = np.max(ds) / t**k
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


def monotone_window(curve, M: Submanifold, eps_max: float = 0.5,
                    samples: int = 64, tol=_TOL) -> float:
    """Largest grid-certified eps such that every coordinate of
    nearest_point(gamma(t)) - gamma(t) is monotone on (0,eps) and (-eps,0)."""
    eps = float(eps_max)
    for _ in range(13):
        ts = eps * np.arange(1, samples + 1) / samples
        ts = np.concatenate([-ts[::-1], ts])
        pts = curve_point(curve, ts)
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


@dataclass(frozen=True)
class LengthBound:
    length: float
    bound: float
    holds: bool


def _speed(curve, ts: np.ndarray) -> np.ndarray:
    vel = curve.velocity()
    return np.linalg.norm(curve_point(vel, ts), axis=-1)


def _adaptive_length(curve, a: float, b: float, rtol: float = 1e-10) -> float:
    prev = None
    for level in range(3, 13):
        ts, w = composite_gauss(a, b, 2**level, 10)
        total = float(np.dot(w, _speed(curve, ts)))
        if prev is not None and abs(total - prev) <= rtol * (1.0 + abs(total)):
            return total
        prev = total
    return prev


def length_bound_check(curve, a: float, b: float, check_samples: int = 257) -> LengthBound:
    ts = np.linspace(a, b, check_samples)
    vals = curve_point(curve, ts)
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
