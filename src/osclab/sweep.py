"""Sweep families phi(x,t) = x + sum_j t^j v_j(x), swept volume, the
t-polynomial coefficients of the volume element, growth exponents, and the
flow-based containment check.

Every family is held as its map. k fields v_j give the components
alpha + t v_1 + ... + t^k v_k of the chart map alpha; a general smooth
motion that is not polynomial in t (e.g. a rigid rotation of a circle) gives
its components directly. A cutoff chi gives alpha + chi (t v_1 + ... + t^k
v_k), chi and its chart partials d_i chi being leaves that _env binds. The
frame (d1 phi .. dm phi, dt phi) is the map's symbolic partials, by the chain
rule through chi, which points, frames, curves and frame jets in t all read.

The volume of a sweep restricted to box x (-t, t) is the tensor-product
Gauss-Legendre integral of the norm of the wedge of the frame. For field
families the frame is a polynomial in t of degree at most k, so every
maximal minor is a polynomial in t of degree at most k(m+1)-1. The minors'
t-coefficients have one route, exact jet arithmetic over stacks of chart
points (_minor_jets): the vanishing verdict reads it once over its sample
grid, and the growth step once per quadrature mesh, MESH_CHUNK mesh points
at a time, so that each t sample then evaluates one polynomial per minor,
with no determinant. Those polynomials are evaluated at every t sample by
one matrix product per block of mesh rows, blocks of at most QUAD_BLOCK
minor values, so that each block stays in cache while it is summed. Map
families evaluate the frame and its minors at every t
sample, and meet the degree bound only where the guard of
extract_t_polynomials finds it, as they do whenever their volume element
vanishes identically. An independent Vandermonde sampling route is kept
alongside as a cross-check oracle.

Before any quadrature, volume_series asks frame_minors_vanish for an exact
certificate: the frame evaluated over expr.EXACT, with the chart variables,
t and a cutoff's leaves as free generators and sin, cos and exp as atoms,
and its minors taken by the same wedge_ring. When every minor is the zero
polynomial the volume element is zero at every (x, t) and for every chi, so
every sample is an exact 0.0 with error 0.0. A nonzero minor, or a frame the
ring cannot hold (a sqrt, a quotient by a non-constant) leaves the series to
the quadrature of swept_volume, which itself never reads the certificate.

The flow check finds the chart path u(t) with phi_t(u(t)) = phi_0(x), the
flow of -Y_t wherever D(phi_t) has rank m, as a root at each of
FLOW_CHECKPOINTS checkpoints per time direction. Every start runs in both
directions as one batch, and every checkpoint of the batch is predicted
along the path's tangent at its last accepted root and corrected by one
stacked manifold.gauss_newton call; the roots that the corrector brings to
its rounding floor are accepted in order, and the rest are predicted again
from the last of them. At t = 0 and at each checkpoint a rank
certificate reads the distance of dt phi_t to the span of D(phi_t), a
ratio of two frame_norms, against RANK_FLOOR |dt phi_t|; the drift and
the box exit are read at the checkpoints. A start outside the
box, a failed certificate or an exit from the box ends only that
trajectory and is returned in its FlowReport.error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from . import expr as ex
from .config import QuadConfig, Tolerances, composite_gauss, geometric_grid
from .contact import ExprCurve, PolyCurve
from .exterior import RANK_FLOOR, frame_norm, frame_ratio, index_combinations, wedge_ring
from .jets import Jet, jet_eval_many
from .manifold import OutOfDomain, Submanifold, _where_defined, gauss_newton, gauss_newton_step

_TOL = Tolerances()


class SweepError(ex.NumericalError):
    pass


class CoefficientDegreeError(SweepError):
    """A coefficient above the critical degree k(m+1)-1 failed to vanish.
    For a field family this signals an implementation bug; for a map family
    it is a property of the input, whose volume element is then not a
    polynomial in t of that degree."""


class FlowRankError(SweepError):
    """A rank test of the flow failed: phi_t is not an embedding on the
    check grid, or at a start or checkpoint dt(phi_t) lies farther than
    RANK_FLOOR |dt(phi_t)| from the span of D(phi_t), so the frame has rank
    m+1 there."""


class FlowExitError(SweepError):
    pass


class DegenerateReparam(SweepError):
    pass


# ---------------------------------------------------------------------------
# cutoff


@dataclass(frozen=True)
class Cutoff:
    """Smooth bump in the radial chart coordinate: 1 inside `inner`,
    exp(1 - 1/(1-s^2)) across the band, 0 outside `outer`."""

    inner: float
    outer: float
    center: np.ndarray

    def __post_init__(self):
        if not (0.0 < self.inner < self.outer):
            raise ValueError("cutoff radii must satisfy 0 < inner < outer")

    def value_and_grad(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        R = X - self.center
        rho = np.linalg.norm(R, axis=-1)
        width = self.outer - self.inner
        s = (rho - self.inner) / width
        # the band is s < 1, not rho < outer: s rounds to 1 at some rho just
        # inside outer, where 1 - s^2 = 0 would make the gradient 0 * inf
        chi = np.where(s < 1.0, 1.0, 0.0)
        grad = np.zeros_like(R)
        band = (rho > self.inner) & (s < 1.0)
        if np.any(band):
            s = s[band]
            with np.errstate(under="ignore"):
                bump = np.exp(1.0 - 1.0 / (1.0 - s * s))
            chi[band] = bump
            dbds = bump * (-2.0 * s / (1.0 - s * s) ** 2)
            grad[band] = (dbds / (width * rho[band]))[:, None] * R[band]
        return chi, grad


# ---------------------------------------------------------------------------
# sweep family

#: a cutoff's leaf chi in its family's map, whose chart partial in v is the
#: leaf d(v)chi(); no parsed name holds "(", so no scene variable shadows them
CHI = "chi()"


class SweepFamily:
    """Base manifold plus either k polynomial vector fields (with optional
    cutoff) or a general map given by component expressions in chart + t;
    either way it is held as its map, map_exprs, and that map's frame."""

    def __init__(self, M: Submanifold, k: int, fields=None, map_exprs=None,
                 cutoff: Cutoff | None = None):
        if (fields is None) == (map_exprs is None):
            raise ValueError("provide exactly one of fields / map_exprs")
        if k < 1:
            raise ValueError("family degree k must be >= 1")
        self.M = M
        self.k = int(k)
        self.cutoff = cutoff
        if fields is not None:
            if len(fields) != k:
                raise ValueError("field count must equal k")
            self.fields = [ex.as_exprs(f) for f in fields]
            for f in self.fields:
                if len(f) != M.n:
                    raise ValueError("each field needs one expression per "
                                     "ambient coordinate")
                ex.check_declared(f, M.chart_vars, "sweep field")
            t = ex.var(ex.TIME_VAR)
            self.map_exprs = []
            for c, alpha in enumerate(M.components):
                terms = [ex.mul(ex.power(t, j), f[c]) for j, f in enumerate(self.fields, 1)]
                self.map_exprs.append(
                    reduce(ex.add, terms, alpha) if cutoff is None
                    else ex.add(alpha, ex.mul(ex.var(CHI), reduce(ex.add, terms))))
        else:
            if cutoff is not None:
                raise ValueError("cutoff applies to polynomial field families")
            self.map_exprs = ex.as_exprs(map_exprs)
            if len(self.map_exprs) != M.n:
                raise ValueError("map needs one expression per ambient coordinate")
            ex.check_declared(self.map_exprs, (*M.chart_vars, ex.TIME_VAR), "sweep map")
            self.fields = None
        # the map's variables besides the chart's and t: a cutoff's chi and
        # d_v chi, whose values _env binds
        self.leaves = () if cutoff is None else (
            CHI, *(f"d({v}){CHI}" for v in M.chart_vars))
        # frame entries (d1 phi_c .. dm phi_c, dt phi_c) row-major, (c, i) at c (m+1) + i;
        # under a cutoff a chart entry adds the chain rule's (d phi_c/d chi) d_v chi
        dchi = dict(zip(M.chart_vars, self.leaves[1:]))
        self.map_frame = [ex.diff(c, v) if v not in dchi else
                          ex.add(ex.diff(c, v), ex.mul(ex.diff(c, CHI), ex.var(dchi[v])))
                          for c in self.map_exprs for v in (*M.chart_vars, ex.TIME_VAR)]
        if self.fields is None:
            self._check_identity_at_zero()
        self._cache: dict = {}

    @property
    def polynomial(self) -> bool:
        return self.fields is not None

    def _check_identity_at_zero(self):
        X = self.M.grid(5)
        gap = np.max(np.linalg.norm(
            self.point_many(X, np.zeros(X.shape[0])) - self.M.embed_many(X), axis=1))
        if gap > 1e-9:
            raise ValueError(f"map family must satisfy phi(x,0)=x; gap {gap:.3e}")

    def _env(self, X: np.ndarray, T) -> dict:
        env = {**self.M._env(X), ex.TIME_VAR: T}
        if self.cutoff is not None:
            chi, dchi = self.cutoff.value_and_grad(X)
            env.update(zip(self.leaves, (chi, *np.moveaxis(dchi, -1, 0))))
        return env

    # -- float evaluation ---------------------------------------------------

    def point_many(self, X, T) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        T = np.asarray(T, dtype=float)
        return ex.evaluate_many(self.map_exprs, self._env(X, T), X.shape[:-1])

    def frame_many(self, X, T) -> np.ndarray:
        """Frame (d1 phi .. dm phi, dt phi) at paired nodes; (q, n, m+1)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        T = np.asarray(T, dtype=float)
        shape = X.shape[:-1]
        return ex.evaluate_many(self.map_frame, self._env(X, T), shape).reshape(
            *shape, self.M.n, self.M.m + 1)

    # -- jets in t ----------------------------------------------------------

    def curve_at(self, x):
        """The curve Gamma_x: t -> phi(x, t) through the chart point x (m,),
        or the stack of them through the chart points x (N, m): a PolyCurve
        of degree k for a field family, else an ExprCurve of the map."""
        x = np.asarray(x, dtype=float)
        if not self.polynomial:
            return ExprCurve(self.map_exprs, self.M.chart_vars, x)
        X = np.atleast_2d(x)
        coeffs = jet_eval_many(self.map_exprs, self._env(X, Jet.variable(self.k)),
                               X.shape[:-1], self.k)
        coeffs = np.swapaxes(coeffs, -1, -2)
        return PolyCurve(coeffs.reshape(x.shape[:-1] + coeffs.shape[1:]), x)

    def frame_jets(self, X, degree: int) -> np.ndarray:
        """The frame's entries as jets in t at a stack of chart points X
        (N, m), shape (N, n, m+1, degree+1). The chart values stay arrays,
        so the subexpressions free of t evaluate in floats."""
        X = np.asarray(X, dtype=float)
        jets = jet_eval_many(self.map_frame, self._env(X, Jet.variable(degree)),
                             X.shape[:-1], degree)
        return jets.reshape(X.shape[:-1] + (self.M.n, self.M.m + 1, degree + 1))


# ---------------------------------------------------------------------------
# quadrature


def _chart_mesh(M: Submanifold, quad: QuadConfig):
    axes = [composite_gauss(a, b, quad.cells, quad.order) for a, b in M.box]
    grids = np.meshgrid(*[ax[0] for ax in axes], indexing="ij")
    X = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*[ax[1] for ax in axes], indexing="ij")
    w = np.prod(np.stack([g.ravel() for g in wgrids], axis=0), axis=0)
    return X, w


# mesh points per batch of minor jets: bounds the growth step's working
# memory, whose peak is then the (N, C(n, m+1), d+1) tensor it caches
MESH_CHUNK = 2048

# doubles of minors per block of the growth quadrature, rows x C(n, m+1)
# x t nodes: a cache bound, 256 KB, that keeps each block's product and
# norm in cache while it is summed
QUAD_BLOCK = 2**15

# largest quadrature mesh (quad_order*quad_cells)^m a scene may ask for
# (scene.make_params): chunks bound the growth step's memory, not its time,
# and the default m = 3 mesh of 2^21 nodes already takes several seconds
MAX_MESH_NODES = 2**22


def _minor_jets(family: SweepFamily, X: np.ndarray, degree: int) -> np.ndarray:
    """t-coefficients of every maximal minor of the frame at chart points
    X (N, m), by jet arithmetic: shape (N, C(n, m+1), degree+1), minors in
    combination order."""
    F = family.frame_jets(X, degree)
    columns = [[Jet(F[:, r, i]) for r in range(family.M.n)] for i in range(family.M.m + 1)]
    return np.stack([c.coeffs for c in wedge_ring(columns)], axis=-2)


class VolumeSample(NamedTuple):
    t: float
    value: float
    error: float


def _integrate(family: SweepFamily, t: float, quad: QuadConfig) -> float:
    key = ("mesh", quad.order, quad.cells)
    if key not in family._cache:
        family._cache[key] = _chart_mesh(family.M, quad)
    X, wx = family._cache[key]
    tn, wt = composite_gauss(-t, t, quad.t_cells, quad.order)
    if family.polynomial:
        akey = ("minorcoeffs", quad.order, quad.cells)
        if akey not in family._cache:
            d = critical_degree(family)
            family._cache[akey] = np.concatenate(
                [_minor_jets(family, X[i : i + MESH_CHUNK], d)
                 for i in range(0, X.shape[0], MESH_CHUNK)])
        A = family._cache[akey]
        N, L, D = A.shape
        # every t node's minors of a block of mesh rows come from one
        # (rows L, D) @ (D, T) product, blocks sized to QUAD_BLOCK; a lone
        # minor's norm is its absolute value, which is sqrt(x*x) wherever
        # x*x neither underflows nor overflows, and exact where it does
        powers = tn ** np.arange(D)[:, None]
        rows = max(1, QUAD_BLOCK // (L * len(tn)))
        acc = np.zeros(len(tn))
        for i in range(0, N, rows):
            block = A[i : i + rows]
            with np.errstate(under="ignore"):
                minors = block.reshape(-1, D) @ powers
                if L == 1:
                    vol = np.abs(minors, out=minors)
                else:
                    minors = minors.reshape(len(block), L, -1)
                    vol = np.einsum("qrt,qrt->qt", minors, minors)
                    np.sqrt(vol, out=vol)
            acc += wx[i : i + rows] @ vol
        return float(wt @ acc)
    total = 0.0
    for s, w in zip(tn, wt):
        frame = family.frame_many(X, np.full(X.shape[0], s))
        total += w * float(np.dot(wx, frame_norm(frame)))
    return total


def swept_volume(family: SweepFamily, t: float,
                 quad: QuadConfig | None = None) -> VolumeSample:
    """Vol(phi | box x (-t,t)) with a halved-order error estimate. Its mesh
    and minor tensor stay in family._cache; volume_series clears them."""
    if t <= 0:
        raise ValueError("swept_volume needs t > 0")
    quad = quad or QuadConfig()
    value = _integrate(family, t, quad)
    err = abs(value - _integrate(family, t, quad.halved()))
    return VolumeSample(t=float(t), value=value, error=err)


def frame_minors_vanish(family: SweepFamily) -> bool:
    """Certificate that the family sweeps no volume at any t: True when
    every maximal minor of the frame, taken by wedge_ring over exact
    polynomials (expr.EXACT) in the chart variables, t, the family's leaves
    (a cutoff's chi and d_i chi) and the atoms of sin, cos and exp, is the
    zero polynomial. Its minors then vanish at every (x, t) whatever values
    the leaves and atoms take, so the volume element is exactly zero. False
    proves nothing: a frame the ring cannot hold (a sqrt, a quotient by a
    non-constant, an inf constant) and a nonzero minor both give it, and a
    nonzero minor in chi may still vanish wherever chi does."""
    env = {v: ex.Poly.generator(v)
           for v in (*family.M.chart_vars, ex.TIME_VAR, *family.leaves)}
    try:
        frame = [ex.evaluate_with(d, env, ex.EXACT) for d in family.map_frame]
    except ex.DomainError:
        return False
    columns = [frame[i :: family.M.m + 1] for i in range(family.M.m + 1)]
    return all(minor.is_zero() for minor in wedge_ring(columns))


def volume_series(family: SweepFamily, t_grid=None,
                  quad: QuadConfig | None = None) -> list[VolumeSample]:
    """The swept volume at each t of t_grid (geometric_grid() by default).
    Where frame_minors_vanish certifies the volume element zero, every
    sample is an exact 0.0 with error 0.0 and no quadrature runs; otherwise
    each sample is one swept_volume."""
    ts = [float(t) for t in (geometric_grid() if t_grid is None else t_grid)]
    if frame_minors_vanish(family):
        if any(t <= 0 for t in ts):
            raise ValueError("swept_volume needs t > 0")
        return [VolumeSample(t=t, value=0.0, error=0.0) for t in ts]
    try:
        return [swept_volume(family, t, quad) for t in ts]
    finally:
        # the meshes and minor tensors serve this series only; a 3-fold's
        # would otherwise stay alive through the steps that follow growth
        family._cache.clear()


# ---------------------------------------------------------------------------
# reparametrization invariance


class ReparamResult(NamedTuple):
    vol: float
    vol_composed: float
    gap: float


def random_reparam(M: Submanifold, t_extent: float, rng,
                   flip_axis: int | None = None) -> list[ex.Expr]:
    """Random separable diffeomorphism of box x (-T, T) onto itself,
    as one expression per output coordinate."""

    def axis_warp(name: str, a: float, b: float, lam: float, flip: bool) -> ex.Expr:
        u = ex.var(name)
        s = ex.div(ex.sub(u, ex.const(a)), ex.const(b - a))
        if flip:
            s = ex.sub(ex.const(1.0), s)
        smooth = ex.sub(ex.mul(ex.const(3.0), ex.power(s, 2)),
                        ex.mul(ex.const(2.0), ex.power(s, 3)))
        g = ex.add(ex.mul(ex.const(1.0 - lam), s), ex.mul(ex.const(lam), smooth))
        return ex.add(ex.const(a), ex.mul(ex.const(b - a), g))

    out = []
    for i, name in enumerate(M.chart_vars):
        a, b = M.box[i]
        out.append(axis_warp(name, a, b, float(rng.uniform(0.2, 0.8)),
                             flip_axis == i))
    out.append(axis_warp(ex.TIME_VAR, -t_extent, t_extent,
                         float(rng.uniform(0.2, 0.8)),
                         flip_axis == M.m))
    return out


def reparam_invariance_test(family: SweepFamily, psi_exprs, t_extent: float,
                            quad: QuadConfig | None = None) -> ReparamResult:
    quad = quad or QuadConfig()
    M = family.M
    psi = ex.as_exprs(psi_exprs)
    if len(psi) != M.m + 1:
        raise ValueError("reparametrization needs m+1 component expressions")
    dpsi = [ex.diff(c, v) for c in psi for v in (*M.chart_vars, ex.TIME_VAR)]

    # nonvanishing Jacobian determinant, checked by sampling
    Xs = M.grid(5)
    for s in np.linspace(-t_extent, t_extent, 9):
        env = family._env(Xs, np.full(Xs.shape[0], s))
        Dv = ex.evaluate_many(dpsi, env, Xs.shape[:-1]).reshape(-1, M.m + 1, M.m + 1)
        if np.min(frame_ratio(Dv)) <= RANK_FLOOR:
            raise DegenerateReparam("Jacobian determinant vanishes on a sample")

    try:
        vol = _integrate(family, t_extent, quad)
    finally:
        family._cache.clear()    # its mesh and minor tensor serve this call only

    X, wx = _chart_mesh(M, quad)
    tn, wt = composite_gauss(-t_extent, t_extent, quad.t_cells, quad.order)
    total = 0.0
    q = X.shape[0]
    for s, w in zip(tn, wt):
        env = family._env(X, np.full(q, s))
        vals = ex.evaluate_many(psi, env, (q,))
        Dpsi = ex.evaluate_many(dpsi, env, (q,)).reshape(q, M.m + 1, M.m + 1)
        frame = family.frame_many(vals[:, : M.m], vals[:, M.m])
        composed = frame @ Dpsi
        total += w * float(np.dot(wx, frame_norm(composed)))

    big = max(abs(vol), abs(total))
    gap = 0.0 if big < 1e-13 else abs(vol - total) / big
    return ReparamResult(vol=vol, vol_composed=total, gap=gap)


# ---------------------------------------------------------------------------
# t-polynomial coefficients of the volume-element components


class CoefficientTable(NamedTuple):
    x: np.ndarray       # (m,), or (N, m) for a stack of samples
    degree: int
    coeffs: np.ndarray  # (C(n, m+1), degree+1), or (N, C(n, m+1), degree+1)
    guard_max: float


def critical_degree(family: SweepFamily) -> int:
    return family.k * (family.M.m + 1) - 1


def extract_t_polynomials(family: SweepFamily, x, tol=_TOL) -> CoefficientTable:
    """Exact coefficients in t of every wedge component at the chart point
    x (m,), or at each of the points x (N, m) from one jet evaluation, by
    jet arithmetic to degree d + 3, three guard degrees past the critical
    degree d = k(m+1)-1.

    Coefficients above d must vanish; the
    first point that breaks the bound raises CoefficientDegreeError, whose
    message names that point and says which kind of family broke it.
    """
    d = critical_degree(family)
    x = np.asarray(x, dtype=float)
    X = np.atleast_2d(x)
    coeffs = _minor_jets(family, X, d + 3)
    guard = np.max(np.abs(coeffs[..., d + 1:]), axis=(-2, -1))
    broken = np.flatnonzero(guard > tol.degree_guard)
    if broken.size:
        i = broken[0]
        why = ("a class-k field family must meet it: this is a bug" if family.polynomial
               else "the map's volume element is not a polynomial in t of degree <= k(m+1)-1")
        raise CoefficientDegreeError(f"coefficient of degree > {d} reached {guard[i]:.3e} "
                                     f"at x={X[i].tolist()}; {why}")
    coeffs = coeffs.reshape(x.shape[:-1] + coeffs.shape[1:])
    return CoefficientTable(x=x, degree=d, coeffs=coeffs[..., : d + 1],
                            guard_max=float(np.max(guard)))


def extract_t_polynomials_sampled(family: SweepFamily, x) -> CoefficientTable:
    """Independent cross-check: sample the wedge components at t nodes and
    solve the Vandermonde least-squares system for the coefficients."""
    d = critical_degree(family)
    dfit = d + 2
    count = 2 * (dfit + 1)
    tau = np.linspace(-0.5, 0.5, count)
    x = np.asarray(x, dtype=float)
    frames = family.frame_many(np.tile(x, (count, 1)), tau)
    n, cols = frames.shape[-2], frames.shape[-1]
    samples = np.stack(
        [np.linalg.det(frames[:, list(rows), :])
         for rows in index_combinations(n, cols)], axis=-1)  # (count, ell)
    V = np.vander(tau, N=dfit + 1, increasing=True)
    fit, *_ = np.linalg.lstsq(V, samples, rcond=None)
    fit = fit.T  # (ell, dfit+1)
    guard = float(np.max(np.abs(fit[:, d + 1:])))
    return CoefficientTable(x=x, degree=d, coeffs=fit[:, : d + 1], guard_max=guard)


# ---------------------------------------------------------------------------
# growth exponent


class GrowthFit(NamedTuple):
    slope: float | None
    intercept: float | None
    residual: float | None
    identically_zero: bool


def growth_exponent(samples: list[VolumeSample], tol=_TOL) -> GrowthFit:
    if len(samples) < 5:
        raise ValueError("growth fit needs at least 5 volume samples")
    ts = np.array([s.t for s in samples])
    vols = np.array([s.value for s in samples])
    if np.any(vols <= tol.vol_zero):
        return GrowthFit(None, None, None, True)
    slope, intercept = np.polyfit(np.log(ts), np.log(vols), 1)
    resid = np.log(vols) - (slope * np.log(ts) + intercept)
    return GrowthFit(float(slope), float(intercept),
                     float(np.sqrt(np.mean(resid**2))), False)


# ---------------------------------------------------------------------------
# vanishing verdict


class VanishingWitness(NamedTuple):
    x: np.ndarray
    component: int  # 1-based lexicographic index
    index: int
    value: float


class VanishingVerdict(NamedTuple):
    vanishes: bool
    scale: float
    max_coeff: float
    min_index: int | None  # smallest surviving coefficient index b
    witness: VanishingWitness | None
    table: CoefficientTable  # every sample of the grid, stacked

    @property
    def label(self) -> str:
        return "VANISHES" if self.vanishes else "NONZERO"


def vanishing_verdict(family: SweepFamily, samples_per_axis: int = 3,
                      margin: float = 0.15, tol=_TOL) -> VanishingVerdict:
    """VANISHES iff every coefficient of every component is below
    tol.vanish relative to the transverse degree-0 normalization (the
    largest tangent frame norm over the sample grid). The witness is the
    largest coefficient, the first in sample, component, index order, and
    min_index the lowest index above the threshold at any sample."""
    M = family.M
    X = M.grid(samples_per_axis, margin=margin)
    J = M.jacobian_many(X)
    scale = max(float(np.max(frame_norm(J))), np.finfo(float).tiny)
    table = extract_t_polynomials(family, X, tol=tol)
    threshold = tol.vanish * scale
    mags = np.abs(table.coeffs)
    sample, comp, idx = np.unravel_index(int(np.argmax(mags)), mags.shape)
    max_coeff = float(mags[sample, comp, idx])
    if max_coeff <= threshold:
        return VanishingVerdict(True, scale, max_coeff, None, None, table)
    witness = VanishingWitness(x=X[sample], component=int(comp) + 1, index=int(idx),
                               value=float(table.coeffs[sample, comp, idx]))
    min_index = int(np.flatnonzero(np.any(mags > threshold, axis=(0, 1)))[0])
    return VanishingVerdict(False, scale, max_coeff, min_index, witness, table)


# ---------------------------------------------------------------------------
# flow-based containment (tangency transport)


class FlowReport(NamedTuple):
    start: np.ndarray
    t_span: float
    steps: int              # checkpoints reached
    max_drift: float        # largest |phi_t(u) - phi_0(x)| at a checkpoint
    max_residual: float     # largest dist(dt phi_t, span D phi_t) certified
    error_estimate: float   # largest |D phi_t delta| of a next step at a checkpoint
    passed: bool
    error: SweepError | OutOfDomain | None = None


#: checkpoints per time direction: the path is found at t = +-j t_span / this
FLOW_CHECKPOINTS = 8
#: a stacked checkpoint continues its path only where the corrector brought
#: its residual to the rounding floor: at most this share of |phi_0(x)| +
#: |t dt(phi_t)|, the size of the terms that the residual cancels
FLOW_ROOT_FLOOR = 16 * np.finfo(float).eps


def tangency_flow_check(family: SweepFamily, starts, t_span: float,
                        tol=_TOL) -> list[FlowReport]:
    """Follow the chart path u(t) with phi_t(u(t)) = phi_0(x) from each start
    x in each time direction, and track the drift of phi_t along it. Where
    D(phi_t) has rank m that path is the flow of -Y_t (D(phi_t) Y_t =
    dt(phi_t)), by the implicit function theorem, so it is found as a root
    at each checkpoint t_j = +-j t_span / FLOW_CHECKPOINTS, with no
    integration between checkpoints.

    The roots are found in rounds of prediction and correction (Allgower
    and Georg, "Numerical Continuation Methods"), each round one
    gauss_newton call over every checkpoint still to find of every live
    trajectory. From its last accepted root u_a at t_a (at first the start,
    at t = 0), a trajectory predicts each u_j as u_a - (t_j - t_a) Y, Y =
    gauss_newton_step of the frame at u_a (u_a where that is not finite),
    and the corrector keeps its best iterate from there. A row where the
    chart is undefined is evaluated at NaN, so that it ends at most its own
    trajectory. A round accepts each trajectory's first checkpoint, whose
    prediction is one Euler step, then each next one while the corrector
    brought it to a root: a residual of at most FLOW_ROOT_FLOOR of |phi_0(x)|
    + |t_j dt(phi_t)|. The next round restacks from the last accepted root.
    On a straight chart path one round accepts every checkpoint, and a path
    that the predictions miss is followed one Euler step a round, as a
    corrector per checkpoint follows it.

    All starts, shape (L, m), and both directions run as one batch. The rank
    certificate is read at t = 0 and at every checkpoint: the distance of
    dt(phi_t) to the span of D(phi_t), frame_norm of the whole frame over
    frame_norm of its chart columns, must be at most RANK_FLOOR |dt(phi_t)|
    (0 <= 0 where dt(phi_t) = 0), and a D(phi_t) of rank below m fails it.
    Each accepted checkpoint, in order, checks the box exit, then the drift
    |phi_(t_j)(u_j) - phi_0(x)| and the certificate, both read from the
    corrector's evaluation at u_j; the first exit or failure ends the
    trajectory, and no checkpoint after it is read.

    FlowReport.steps is the larger count of checkpoints reached in the two
    directions, max_residual the largest distance certified, and
    error_estimate the largest |D phi_t delta|, delta the step the corrector
    would take next from u_j; passed needs max_drift + error_estimate
    <= tol.flow_drift. A start outside the box, a failed rank certificate
    (FlowRankError) or an exit from the box (FlowExitError) ends only its
    own trajectory and is returned as that start's FlowReport.error, the +t
    error first; a non-embedding phi_t raises FlowRankError for the whole
    call.
    """
    if t_span <= 0:
        raise ValueError("tangency_flow_check needs t_span > 0")
    M, m, K = family.M, family.M.m, FLOW_CHECKPOINTS
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    L = starts.shape[0]

    # embedding precondition: Submanifold.parametric's rank test of the
    # chart frame of phi_t on a grid, at 9 values of t
    Xg = M.grid(5, margin=0.05)
    ts = np.repeat(np.linspace(-t_span, t_span, 9), Xg.shape[0])
    ratio = frame_ratio(family.frame_many(np.tile(Xg, (9, 1)), ts)[:, :, :m])
    if np.min(ratio) <= RANK_FLOOR:
        raise FlowRankError(f"phi_t is not an embedding at t={ts[np.argmin(ratio)]:.4g}")

    # trajectory r < L runs start r forward in t, trajectory L + r backward;
    # U[r] is its last accepted root, and -Y[r] the path's tangent there
    U = np.concatenate([starts, starts])
    Y = np.zeros_like(U)
    T_end = np.repeat([t_span, -t_span], L)
    anchor = np.tile(family.point_many(starts, np.zeros(L)), (2, 1))
    drift, resid, estimate = np.zeros(2 * L), np.zeros(2 * L), np.zeros(2 * L)
    reached = np.zeros(2 * L, dtype=int)
    errors: list = [None] * (2 * L)
    inside = M.in_box_many(starts)
    for r in np.nonzero(~inside)[0]:
        errors[r] = OutOfDomain(f"flow start {starts[r].tolist()} outside the chart box")

    def certificate(frame):
        """The rank certificate's residual at each frame, and where it fails."""
        with np.errstate(divide="ignore", invalid="ignore"):
            res = frame_norm(frame) / frame_norm(frame[:, :, :m])
        return res, ~(res <= RANK_FLOOR * np.linalg.norm(frame[:, :, m], axis=1))

    def rank_error(res, t):
        return FlowRankError(f"rank certificate failed: least-squares "
                             f"residual {res:.3e} at t={t:.4g}")

    live = np.nonzero(np.tile(inside, 2))[0]
    F = family.frame_many(U[live], np.zeros(live.size))
    resid[live], bad = certificate(F)
    for r, d in zip(live[bad], resid[live[bad]]):
        errors[r] = rank_error(d, 0.0)
    Y[live] = gauss_newton_step(F[:, :, :m], F[:, :, m])
    j = np.arange(1, K + 1)
    while True:
        live = live[[errors[r] is None and reached[r] < K for r in live]]
        if not live.size:
            break
        # one row per checkpoint still to find, trajectory by trajectory
        i, c = np.nonzero(j > reached[live, None])
        traj, jc = live[i], j[c]
        t = T_end[traj] * jc / K
        guess = U[traj] - (T_end[traj] * (jc - reached[traj]) / K)[:, None] * Y[traj]
        guess = np.where(np.isfinite(guess).all(axis=1, keepdims=True), guess, U[traj])

        def evaluate(V, rows):
            VT = np.column_stack([V, t[rows]])
            return (_where_defined(lambda Z: family.point_many(Z[:, :m], Z[:, m]), VT),
                    _where_defined(lambda Z: family.frame_many(Z[:, :m], Z[:, m]), VT))

        V, C, F, gap = gauss_newton(evaluate, guess, anchor[traj])
        J = F[:, :, :m]
        with np.errstate(invalid="ignore", over="ignore"):
            # the corrector's next step from each root, and the path's Y there
            delta, Yv = gauss_newton_step(J, np.stack([anchor[traj] - C, F[:, :, m]]))
            size = np.linalg.norm(np.einsum("qnm,qm->qn", J, delta), axis=1)
        # the first row of a trajectory is one Euler step, and a later one
        # is accepted where the corrector brought it to a root
        scale = (np.linalg.norm(anchor[traj], axis=1)
                 + np.abs(t) * np.linalg.norm(F[:, :, m], axis=1))
        accepted = (jc == reached[traj] + 1) | (gap <= FLOW_ROOT_FLOOR * scale)
        exited = ~M.in_box_many(V, tol=1e-9)
        res, bad = certificate(F)
        # a row is read when every row of its trajectory up to it is
        # accepted and none before it exited or failed its certificate
        ok, ends = np.ones((live.size, K), dtype=bool), np.zeros((live.size, K), dtype=bool)
        ok[i, c], ends[i, c] = accepted, exited | bad
        read = (np.logical_and.accumulate(ok, axis=1)
                & (np.cumsum(ends, axis=1) - ends == 0))[i, c]
        kept = read & ~exited
        np.maximum.at(reached, traj[read], jc[read])
        with np.errstate(invalid="ignore"):   # a NaN is kept, as np.maximum keeps it
            np.maximum.at(estimate, traj[read], size[read])
            np.maximum.at(drift, traj[kept], gap[kept])
            np.maximum.at(resid, traj[kept], res[kept])
        for k in np.flatnonzero(read & (exited | bad)):
            errors[traj[k]] = (FlowExitError(f"flow left the chart box at t={t[k]:.4g}")
                               if exited[k] else rank_error(res[k], t[k]))
        last = read & (jc == reached[traj])
        U[traj[last]], Y[traj[last]] = V[last], Yv[last]

    reports = []
    for r in range(L):
        error = errors[r] if errors[r] is not None else errors[L + r]
        max_drift = float(max(drift[r], drift[L + r]))
        error_estimate = float(max(estimate[r], estimate[L + r]))
        reports.append(FlowReport(
            start=starts[r].copy(), t_span=float(t_span),
            steps=int(max(reached[r], reached[L + r])), max_drift=max_drift,
            max_residual=float(max(resid[r], resid[L + r])),
            error_estimate=error_estimate,
            passed=error is None and max_drift + error_estimate <= tol.flow_drift,
            error=error))
    return reports


# ---------------------------------------------------------------------------
# CSV emission (17 significant digits, '.' decimal separator, '\n' endings)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def volume_csv(samples: list[VolumeSample]) -> str:
    lines = ["t,vol,err"]
    for s in samples:
        lines.append(f"{_fmt(s.t)},{_fmt(s.value)},{_fmt(s.error)}")
    return "\n".join(lines) + "\n"


def coefficients_csv(table: CoefficientTable, m: int) -> str:
    header = ",".join([f"x{i+1}" for i in range(m)] + ["component", "i", "a_i"])
    lines = [header]
    coeffs = table.coeffs.reshape((-1,) + table.coeffs.shape[-2:])
    for x, sample in zip(table.x.reshape(-1, m), coeffs):
        xs = ",".join(_fmt(v) for v in x)
        for comp, row in enumerate(sample, start=1):
            for i, a in enumerate(row):
                lines.append(f"{xs},{comp},{i},{_fmt(a)}")
    return "\n".join(lines) + "\n"
