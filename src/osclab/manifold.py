"""Concrete submanifolds of R^n: charts, nearest-point projection, distance.

A Submanifold is an m-dimensional piece of R^n given either as a graph
x -> (x, h(x)) or as a parametric chart x -> alpha(x) over a box domain.
Projection onto the manifold runs a multistart, box-projected Gauss-Newton
on the squared-distance stationarity system: a coarse grid of 9^m cell
centers seeds the iteration, steps are damped by halving, and convergence
is declared at 1e-12 projected-gradient norm. Each row takes the first
step size, of up to 14 halvings, that lowers its stationarity residual;
a halving re-evaluates only the rows that have not yet improved, so one
row that keeps searching does not cost the whole batch an evaluation
per halving. Disagreeing global minima
(same distance, different feet) are reported as AmbiguousProjection: the
query point has left the tubular neighbourhood where the nearest point is
unique.

The box is a truncation of the ideally boundaryless manifold, so feet on
the box edge are flagged and callers near the boundary are expected to
shrink their working region.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import expr as ex
from .exterior import frame_norm

#: a parametric chart whose tangent blade norm falls to this is not an immersion
IMMERSION_FLOOR = 1e-8
#: projection: converged at this projected-gradient norm (relative to 1 + |p|),
#: after at most PROJECT_MAX_ITER Newton steps per seed
PROJECT_GRAD_TOL = 1e-12
PROJECT_MAX_ITER = 50
#: seeds within this relative distance of the best one are its ties, and ties
#: whose feet lie further apart than this make the projection ambiguous
PROJECT_DIST_TOL = 1e-9
PROJECT_FOOT_TOL = 1e-6
#: random normal probes per dyadic step of the tube-radius search
TUBE_PROBES = 200


class ManifoldError(Exception):
    pass


class OutOfDomain(ManifoldError):
    pass


class ImmersionError(ManifoldError):
    pass


class AmbiguousProjection(ManifoldError):
    """Multistart minima agree in distance but disagree in foot location."""


class NoConvergence(ManifoldError):
    pass


@dataclass(frozen=True)
class ProjectionResult:
    chart: np.ndarray
    point: np.ndarray
    distance: float
    on_boundary: bool


@dataclass(frozen=True)
class BatchProjection:
    chart: np.ndarray      # (q, m)
    point: np.ndarray      # (q, n)
    distance: np.ndarray   # (q,)
    converged: np.ndarray  # (q,) bool
    ambiguous: np.ndarray  # (q,) bool
    on_boundary: np.ndarray  # (q,) bool


def _as_exprs(items) -> list[ex.Expr]:
    return [ex.parse(e) if isinstance(e, str) else e for e in items]


class Submanifold:
    """Graph or parametric chart over a box; immutable after construction."""

    def __init__(self, kind, chart_vars, box, components, ambient_dim):
        self.kind = kind
        self.chart_vars = tuple(chart_vars)
        self.box = np.asarray(box, dtype=float)
        self.components = list(components)
        self.n = int(ambient_dim)
        if len(set(self.chart_vars)) != len(self.chart_vars):
            raise ValueError("chart variable names must be unique")
        if ex.TIME_VAR in self.chart_vars:
            raise ValueError(f"{ex.TIME_VAR!r} is reserved for the time variable")
        if self.box.shape != (self.m, 2) or np.any(self.box[:, 0] >= self.box[:, 1]):
            raise ValueError("domain box must be m nonempty intervals")
        if len(self.components) != self.n:
            raise ValueError("component count must equal the ambient dimension")
        allowed = set(self.chart_vars)
        for c in self.components:
            extra = ex.variables(c) - allowed
            if extra:
                raise ValueError(f"undeclared variables {sorted(extra)} in chart map")
        self.jac_exprs = [
            [ex.diff(c, v) for v in self.chart_vars] for c in self.components
        ]
        self.hess_exprs = [
            [[ex.diff(d, v) for v in self.chart_vars] for d in row]
            for row in self.jac_exprs
        ]
        self._tube_cache: dict = {}

    @property
    def m(self) -> int:
        return len(self.chart_vars)

    @classmethod
    def graph(cls, chart_vars, box, heights, ambient_dim=None):
        heights = _as_exprs(heights)
        chart_vars = tuple(chart_vars)
        n = len(chart_vars) + len(heights)
        if ambient_dim is not None and ambient_dim != n:
            raise ValueError("graph ambient dimension must be m + #heights")
        comps = [ex.Var(v) for v in chart_vars] + heights
        return cls("graph", chart_vars, box, comps, n)

    @classmethod
    def parametric(cls, chart_vars, box, maps, ambient_dim):
        maps = _as_exprs(maps)
        M = cls("parametric", chart_vars, box, maps, ambient_dim)
        worst = M._min_frame_norm()
        if worst <= IMMERSION_FLOOR:
            raise ImmersionError(
                f"chart fails the immersion check: min frame norm {worst:.3e}"
            )
        return M

    # -- evaluation -------------------------------------------------------

    def _env(self, X: np.ndarray) -> dict:
        return {name: X[..., i] for i, name in enumerate(self.chart_vars)}

    def embed_many(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return ex.evaluate_many(self.components, self._env(X), X.shape[:-1])

    def jacobian_many(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        flat = [d for row in self.jac_exprs for d in row]
        vals = ex.evaluate_many(flat, self._env(X), X.shape[:-1])
        return vals.reshape(*X.shape[:-1], self.n, self.m)

    def hessian_many(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        flat = [d for row in self.hess_exprs for col in row for d in col]
        vals = ex.evaluate_many(flat, self._env(X), X.shape[:-1])
        return vals.reshape(*X.shape[:-1], self.n, self.m, self.m)

    def embed(self, x) -> np.ndarray:
        return self.embed_many(np.asarray(x, dtype=float)[None, :])[0]

    def jacobian(self, x) -> np.ndarray:
        return self.jacobian_many(np.asarray(x, dtype=float)[None, :])[0]

    def in_box_many(self, X, tol=1e-12) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        side = self.box[:, 1] - self.box[:, 0]
        return np.all((X >= self.box[:, 0] - tol * side)
                      & (X <= self.box[:, 1] + tol * side), axis=-1)

    def in_box(self, x, tol=1e-12) -> bool:
        return bool(self.in_box_many(x, tol))

    def chart_eval(self, x) -> np.ndarray:
        if not self.in_box(x):
            raise OutOfDomain(f"chart coordinates {x} outside the domain box")
        return self.embed(x)

    def grid(self, per_axis: int, margin: float = 0.0) -> np.ndarray:
        axes = []
        for a, b in self.box:
            lo = a + margin * (b - a)
            hi = b - margin * (b - a)
            axes.append(np.linspace(lo, hi, per_axis))
        return np.array(list(product(*axes)), dtype=float)

    def _min_frame_norm(self, per_axis: int | None = None) -> float:
        per_axis = per_axis or (17 if self.m <= 2 else 7)
        J = self.jacobian_many(self.grid(per_axis))
        return min(frame_norm(list(J[i].T)) for i in range(J.shape[0]))

    def normal_basis(self, x) -> np.ndarray:
        """Orthonormal basis of the (n-m)-dimensional normal space, columns."""
        q, _ = np.linalg.qr(self.jacobian(x), mode="complete")
        return q[:, self.m :]

    # -- projection -------------------------------------------------------

    def _seed_grid(self, per_axis: int = 9) -> np.ndarray:
        axes = []
        for a, b in self.box:
            h = (b - a) / per_axis
            axes.append(a + h * (np.arange(per_axis) + 0.5))
        return np.array(list(product(*axes)), dtype=float)

    def project_batch(self, P) -> BatchProjection:
        P = np.atleast_2d(np.asarray(P, dtype=float))
        q = P.shape[0]
        seeds = self._seed_grid()
        S = seeds.shape[0]
        m = self.m
        lo, hi = self.box[:, 0], self.box[:, 1]
        side = hi - lo
        cap = float(np.linalg.norm(side))

        # flat layout: row r = (query r // S, seed r % S)
        Pf = np.repeat(P, S, axis=0)
        Xf = np.tile(seeds, (q, 1))
        scale_f = 1.0 + np.linalg.norm(Pf, axis=1)

        def stationarity(Xc, Pc):
            A = self.embed_many(Xc)
            R = Pc - A
            J = self.jacobian_many(Xc)
            G = np.einsum("rnm,rn->rm", J, R)  # J^T R = -grad/2
            return A, R, J, G

        def kkt(Xc, G):
            g = -2.0 * G  # gradient of the squared distance
            at_lo = Xc <= lo + 1e-12 * side
            at_hi = Xc >= hi - 1e-12 * side
            pg = np.where(at_lo, np.minimum(g, 0.0), g)
            pg = np.where(at_hi, np.maximum(pg, 0.0), pg)
            return np.linalg.norm(pg, axis=-1)

        def newton_step(DG, G):
            if m == 1:
                den = DG[:, 0, 0]
                den = np.where(np.abs(den) < 1e-300, 1e-300, den)
                return -(G[:, 0] / den)[:, None]
            if m == 2:
                a, b = DG[:, 0, 0], DG[:, 0, 1]
                c, e = DG[:, 1, 0], DG[:, 1, 1]
                det = a * e - b * c
                det = np.where(np.abs(det) < 1e-300, 1e-300, det)
                return -np.stack(
                    [(e * G[:, 0] - b * G[:, 1]) / det,
                     (a * G[:, 1] - c * G[:, 0]) / det], axis=-1)
            ridge = 1e-12 * (1.0 + np.abs(np.trace(DG, axis1=-2, axis2=-1)))
            sys = DG + ridge[:, None, None] * np.eye(m)
            return -np.linalg.solve(sys, G[:, :, None])[:, :, 0]

        conv = np.zeros(q * S, dtype=bool)
        active = np.arange(q * S)
        _, _, _, G0 = stationarity(Xf, Pf)
        conv = kkt(Xf, G0) <= PROJECT_GRAD_TOL * scale_f
        active = active[~conv]
        for _ in range(PROJECT_MAX_ITER):
            if active.size == 0:
                break
            Xa, Pa = Xf[active], Pf[active]
            A, R, J, G = stationarity(Xa, Pa)
            # damped Newton on the stationarity system G(x) = J^T (p - c(x));
            # its Jacobian DG = (p - c) . d2c - J^T J keeps the curvature term
            JTJ = np.einsum("rni,rnj->rij", J, J)
            H = self.hessian_many(Xa)
            DG = np.einsum("rnij,rn->rij", H, R) - JTJ
            delta = np.clip(newton_step(DG, G), -1e12, 1e12)
            dn = np.linalg.norm(delta, axis=-1, keepdims=True)
            delta *= np.minimum(1.0, cap / np.maximum(dn, 1e-30))

            # backtracking: each halving evaluates only the rows still searching
            phi = np.einsum("rm,rm->r", G, G)
            got = np.zeros(active.size, dtype=bool)
            Xbest = Xa.copy()
            Gbest = G.copy()
            searching = np.arange(active.size)
            step = 1.0
            for _ in range(14):
                Xn = np.clip(Xa[searching] + step * delta[searching], lo, hi)
                _, _, _, Gn = stationarity(Xn, Pa[searching])
                improved = np.einsum("rm,rm->r", Gn, Gn) < phi[searching]
                hit = searching[improved]
                Xbest[hit] = Xn[improved]
                Gbest[hit] = Gn[improved]
                got[hit] = True
                searching = searching[~improved]
                if searching.size == 0:
                    break
                step *= 0.5
            Xf[active] = Xbest
            conv_a = kkt(Xbest, Gbest) <= PROJECT_GRAD_TOL * scale_f[active]
            conv[active[conv_a]] = True
            active = active[got & ~conv_a]

        A = self.embed_many(Xf)
        R = Pf - A
        d = np.linalg.norm(R, axis=-1)
        X = Xf.reshape(q, S, m)
        A = A.reshape(q, S, self.n)
        d = d.reshape(q, S)
        conv = conv.reshape(q, S)
        # per query: best distance among converged seeds (fall back to all)
        d_conv = np.where(conv, d, np.inf)
        any_conv = np.any(conv, axis=1)
        d_best = np.where(any_conv, np.min(d_conv, axis=1), np.min(d, axis=1))
        tie = d <= (d_best + PROJECT_DIST_TOL * (1.0 + d_best))[:, None]
        cluster = (conv | ~any_conv[:, None]) & tie
        masked_hi = np.where(cluster[..., None], A, -np.inf)
        masked_lo = np.where(cluster[..., None], A, np.inf)
        spread = np.linalg.norm(
            np.max(masked_hi, axis=1) - np.min(masked_lo, axis=1), axis=-1
        )
        ambiguous = any_conv & (spread > PROJECT_FOOT_TOL)

        pick = np.argmin(np.where(cluster, d, np.inf), axis=1)
        rows = np.arange(q)
        chart = X[rows, pick]
        point = A[rows, pick]
        at_edge = (chart <= lo + 1e-9 * side) | (chart >= hi - 1e-9 * side)
        return BatchProjection(
            chart=chart,
            point=point,
            distance=d_best,
            converged=any_conv,
            ambiguous=ambiguous,
            on_boundary=np.any(at_edge, axis=1),
        )

    def nearest_point(self, p) -> ProjectionResult:
        b = self.project_batch(np.asarray(p, dtype=float)[None, :])
        if not b.converged[0]:
            raise NoConvergence("projection did not converge from any start")
        if b.ambiguous[0]:
            raise AmbiguousProjection(
                f"projection of {np.asarray(p).tolist()} has multiple feet at "
                f"distance {b.distance[0]:.6g}; point is outside the tube"
            )
        return ProjectionResult(
            chart=b.chart[0],
            point=b.point[0],
            distance=float(b.distance[0]),
            on_boundary=bool(b.on_boundary[0]),
        )

    def distance(self, p) -> float:
        return float(self.project_batch(np.asarray(p, dtype=float)[None, :]).distance[0])

    def distance_many(self, P) -> np.ndarray:
        return self.project_batch(P).distance

    # -- tube radius ------------------------------------------------------

    def tube_radius(self, *, rho_max: float | None = None, seed: int = 0) -> float:
        """Largest dyadic rho such that random probes at distance rho all
        project back to their source point unambiguously."""
        if rho_max is None:
            rho_max = 0.5 * float(np.min(self.box[:, 1] - self.box[:, 0]))
        key = (rho_max, seed)
        if key in self._tube_cache:
            return self._tube_cache[key]
        rng = np.random.default_rng(seed)
        X = rng.uniform(self.box[:, 0], self.box[:, 1], size=(TUBE_PROBES, self.m))
        A = self.embed_many(X)
        J = self.jacobian_many(X)
        Q, _ = np.linalg.qr(J, mode="complete")
        basis = Q[:, :, self.m:]                      # (probes, n, n-m)
        coeff = rng.normal(size=(TUBE_PROBES, self.n - self.m))
        coeff /= np.linalg.norm(coeff, axis=1, keepdims=True)
        nu = np.einsum("pnk,pk->pn", basis, coeff)
        scale = 1.0 + np.linalg.norm(A, axis=1)
        rho = float(rho_max)
        for _ in range(24):
            b = self.project_batch(A + rho * nu)
            ok = (
                b.converged
                & ~b.ambiguous
                & (np.linalg.norm(b.point - A, axis=1) <= 1e-6 * scale)
            )
            if np.all(ok):
                self._tube_cache[key] = rho
                return rho
            rho *= 0.5
        raise NoConvergence("no certified tube radius found by dyadic search")
