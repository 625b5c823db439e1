"""Concrete submanifolds of R^n: charts, nearest-point projection, distance.

A Submanifold is an m-dimensional piece of R^n given either as a graph
x -> (x, h(x)) or as a parametric chart x -> alpha(x) over a box domain.
Projection onto the manifold runs a multistart projected Newton method
(Bertsekas 1982) on the squared distance f(x) = |p - c(x)|^2 over the box,
seeded at the centres of a grid of 9^m cells. On the first projection each
cell i gets two lower bounds on the distance from a query p to its points
(SeedScreen); r_i bounds the distance from its centre x_i to any point of
the cell, and every chart bound is an outward-rounded interval evaluation
over the cell (expr.IntervalArithmetic):
- first order: |p - c_i| - L_i r_i, with L_i the Frobenius norm of the
  bound on the chart Jacobian, so that the chart moves at most L_i per
  unit of chart distance;
- second order: with J_i the Jacobian at the centre and w = Q_i^T (p - c_i)
  split into its parts w_T along range(J_i) and w_N normal to it,
  sqrt(|w_N|^2 + max(0, |w_T| - |J_i|_F r_i)^2) - K_i r_i^2 / 2, with K_i
  the Frobenius norm of the bound on the chart Hessians. On the convex
  cell c(x) = c_i + J_i d + R with |R| <= K_i |d|^2 / 2 (Taylor with
  integral remainder) and |d| <= r_i, and the normal and tangent parts of
  p - c_i - J_i d are orthogonal. A centre where J_i is undefined, or a
  cell whose Hessian bound is not finite, gets no second-order bound.
A cell's bound is the larger of the two; the second is evaluated only on
the (query, cell) pairs that the first keeps. The distance d0 to a point of M
bounds the minimum from above: the nearer of the nearest centre and the
image of that centre's tangent-plane foot x_i + (J_i^T J_i)^-1 J_i^T
(p - c_i), clipped to the box. A cell whose lower bound exceeds d0 by more
than two tie slacks (PROJECT_DIST_TOL) holds no foot that ties a best
found within one of d0, and its seed is dropped; a cell whose Jacobian
bound divides by an interval containing 0 or takes sqrt below 0 has
infinite slack and is always kept. Newton runs from the kept seeds. A
query whose kept seeds all fail, or whose best converged distance exceeds
d0 by more than one tie slack (Newton has missed the minimum, which is at
most d0), runs its dropped seeds as well and so sees the full grid.

Each Newton iteration splits the coordinates into an active set, those on
a bound whose descent direction -grad f points out of the box, which stay
fixed, and the free rest, which take the Newton step of the stationarity
system J^T (p - c) = 0 restricted to them. The step is clipped to the box
and halved, up to 13 times, until it cuts the merit |pg|^2 by an Armijo
fraction (PROJECT_ARMIJO), where pg, the projected gradient, is grad f with
the active components zeroed. The 14 steps run in blocks of 1, 2, 4 and 7,
and a block evaluates only the rows that have not yet improved: a row that
keeps searching costs 4 evaluation calls per iteration instead of 14, and
a row that has improved is not evaluated again. A row takes the first step
that improves, as one halving after another would. A block is narrowed
where it would hold more rows than the descent's first evaluation, so the
blocks add no memory to that evaluation's. Each point is evaluated once: a
row carries its embedding, Jacobian and gradient from the trial point it
accepts into the next iteration, and its final embedding out of the
descent, so only the Hessian is evaluated anew per iteration. A row
converges when |pg| falls to PROJECT_GRAD_TOL (1 + |p|). Inside the box
pg is the gradient; at a minimum on the box edge, where the gradient
itself is not 0, pg is 0, so edge minima converge like interior ones. A
trial point at which the chart leaves its domain (a Jacobian undefined on
the edge) counts as no improvement. Disagreeing global minima (same
distance, different feet) are reported as AmbiguousProjection: the query
point has left the tubular neighbourhood where the nearest point is
unique.

The box is a truncation of the ideally boundaryless manifold, so feet on
the box edge are flagged and callers near the boundary are expected to
shrink their working region.

Two radii bound the tube in which projection has a unique foot.
reach_bound is a certificate for graph charts: 1/K, with K an interval
bound on the height Hessians over the box, a lower bound on the reach by
Federer's criterion (the argument is in its docstring), edges included;
a parametric chart gets 0. tube_radius is a search: the largest dyadic
radius at which random normal probes project back to their source, which
raises NoConvergence when no level passes. A level at which the screen
puts some probe nearer M (d0, see above) than any foot close to its source
could be is refuted without a projection; every other level runs
project_batch once. The ruledness step (osculate.ruledness_record) counts
certified and projected samples within the certified bound or the ruled
tolerance and runs the search only when a sample lies beyond both, so that
NoConvergence is raised only when the radius is needed.

A point p near M mostly needs no projection: distances follows the chart
from the caller's chart point (predictor-corrector continuation, Allgower
& Georg 1990), with u = p_T and no iteration on a graph, whose residual is
the vertical distance |p_N - h(p_T)|, and gauss_newton, the corrector the
flow step shares, on c(u) = p on a parametric chart. A graph point the
follower leaves beyond its threshold
runs one projected-Newton descent from its vertical foot; a foot found
nearer than reach_bound is the unique nearest point (Federer 1959, Thm
4.8(12)), so the point reads its distance with no seed grid. Only the
points neither route decides are projected. The ruledness step and the
metric contact order and decay checks of contact.py read their distances
from it.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

import numpy as np

from . import expr as ex
from .exterior import RANK_FLOOR, frame_ratio, solve

#: projection: converged at this projected-gradient norm (relative to 1 + |p|),
#: after at most PROJECT_MAX_ITER Newton steps per seed
PROJECT_GRAD_TOL = 1e-12
PROJECT_MAX_ITER = 50
#: projection line search: the fraction s of a Newton step is taken when it
#: cuts the merit |pg|^2 by at least 2 s PROJECT_ARMIJO of its value, this
#: share of the cut the linear model predicts (Armijo). The textbook 1e-4
#: still takes the creeping steps of a row stuck at a fold of the
#: stationarity system, where the merit has a local minimum above 0
PROJECT_ARMIJO = 1e-3
#: seeds within this relative distance of the best one are its ties, and ties
#: whose feet lie further apart than this make the projection ambiguous
PROJECT_DIST_TOL = 1e-9
PROJECT_FOOT_TOL = 1e-6
#: projection seeds: the centres of a grid of this many cells per chart axis
SEEDS_PER_AXIS = 9
#: project_batch takes its queries in chunks of at most this many (query,
#: seed) rows, as sweep.MESH_CHUNK bounds the mesh: its working memory is
#: then bounded whatever the query count. No m <= 2 call of the corpus is
#: split; at m = 3 a chunk is 179 queries of 729 seeds
PROJECT_CHUNK_ROWS = 2**17
#: gauss_newton takes at most this many steps per row
GAUSS_NEWTON_MAX_ITER = 4
#: Submanifold.distances certifies a descended graph foot as the nearest
#: point when its distance lies below reach_bound less this relative margin,
#: a few ulps for the plain-float norms and reciprocal around the bound's
#: interval evaluation and for the distance itself
REACH_MARGIN = 16 * np.finfo(float).eps
#: random normal probes per dyadic step of the tube-radius search
TUBE_PROBES = 200
#: a tube probe projects back to its source A when its foot lies within this
#: distance of A, relative to 1 + |A|
TUBE_FOOT_TOL = 1e-6


class ManifoldError(ex.NumericalError):
    pass


class OutOfDomain(ManifoldError):
    pass


class ImmersionError(ManifoldError):
    pass


class AmbiguousProjection(ManifoldError):
    """Multistart minima agree in distance but disagree in foot location."""


class NoConvergence(ManifoldError):
    pass


class BatchProjection(NamedTuple):
    chart: np.ndarray      # (q, m)
    point: np.ndarray      # (q, n)
    distance: np.ndarray   # (q,)
    converged: np.ndarray  # (q,) bool
    ambiguous: np.ndarray  # (q,) bool
    on_boundary: np.ndarray  # (q,) bool


class SeedScreen(NamedTuple):
    """The SEEDS_PER_AXIS^m seed cells and the terms of their distance
    bounds (see the module docstring), indexed by cell."""
    seeds: np.ndarray    # (S, m) cell centres x_i in the chart
    centres: np.ndarray  # (S, n) their embeddings c_i
    slack: np.ndarray    # (S,) L_i r_i; inf where the Jacobian is unbounded
    jac: np.ndarray      # (S, n, m) J_i at the centres; NaN where undefined
    basis: np.ndarray    # (S, n, n) Q_i, range(J_i) within its first m columns
    tslack: np.ndarray   # (S,) |J_i|_F r_i
    curv: np.ndarray     # (S,) K_i r_i^2 / 2; inf where there is no bound


def _interval_norm(exprs, env) -> np.ndarray:
    """The Frobenius norm of the entrywise magnitudes of exprs evaluated
    over the intervals of env (expr.INTERVALS): inf where an entry is
    unbounded."""
    mags = [ex.evaluate_with(d, env, ex.INTERVALS).magnitude() for d in exprs]
    with np.errstate(over="ignore"):
        return np.sqrt(sum(np.square(g) for g in mags))


def _tie(d):
    """d plus one tie slack: distances up to this tie with d."""
    return d + PROJECT_DIST_TOL * (1.0 + d)


def gauss_newton_step(J, r) -> np.ndarray:
    """The step delta (..., m) with J delta nearest r, for J (..., n, m) and
    r (..., n): one exterior.solve of J^T J delta = J^T r. A rank-deficient
    J gives a zero, huge or infinite step (solve's guard), no error."""
    return solve(np.einsum("...ni,...nj->...ij", J, J), np.einsum("...nm,...n->...m", J, r))


def gauss_newton(evaluate, U, target) -> tuple:
    """(U, C, F, residual): Gauss-Newton on c(u) = target (q, n) from the
    rows of U (q, m), where evaluate(V, rows) gives c(V) and a frame F whose
    first m columns are Dc(V) at the points V of those rows. A row takes
    gauss_newton_step while its residual |target - c(u)| halves, at most
    GAUSS_NEWTON_MAX_ITER times, and stops at 0 or a residual that is not
    finite. It keeps its best iterate, with c, F and the residual there: a
    start at a root is evaluated once, and a row whose step cuts nothing
    (Dc of rank below m, a chart at NaN) keeps its start."""
    U = np.array(U, dtype=float)
    m = U.shape[1]
    with np.errstate(invalid="ignore", over="ignore"):
        C, F = evaluate(U, np.arange(len(U)))
        residual = np.linalg.norm(target - C, axis=1)
        live = np.flatnonzero(np.isfinite(residual) & (residual > 0))
        for _ in range(GAUSS_NEWTON_MAX_ITER):
            if live.size == 0:
                break
            Un = U[live] + gauss_newton_step(F[live, :, :m], target[live] - C[live])
            Cn, Fn = evaluate(Un, live)
            rn = np.linalg.norm(target[live] - Cn, axis=1)
            better = rn < residual[live]
            halved = (rn <= 0.5 * residual[live]) & (rn > 0)
            kept = live[better]
            U[kept], C[kept], F[kept] = Un[better], Cn[better], Fn[better]
            residual[kept] = rn[better]
            live = live[halved]
    return U, C, F, residual


def _where_defined(fn, X):
    """fn(X), bisecting the batch where the chart leaves its domain (say a
    point clipped onto an edge where the chart is not differentiable): such
    rows are evaluated at NaN, which no merit test or bound accepts."""
    try:
        return fn(X)
    except ex.DomainError:
        if len(X) == 1:
            return fn(np.full_like(X, np.nan))
        half = len(X) // 2
        return np.concatenate([_where_defined(fn, X[:half]), _where_defined(fn, X[half:])])


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
        if SEEDS_PER_AXIS ** self.m > PROJECT_CHUNK_ROWS:
            # projection seeds every query at all 9^m cells in one chunk
            raise ValueError(
                f"a {self.m}-dimensional chart has {SEEDS_PER_AXIS ** self.m} projection "
                f"seeds, more than PROJECT_CHUNK_ROWS = {PROJECT_CHUNK_ROWS}")
        ex.check_declared(self.components, self.chart_vars, "chart map")
        # row-major: d_i c_r at index r m + i, d_j d_i c_r at (r m + i) m + j
        self.jac_exprs = [ex.diff(c, v) for c in self.components for v in self.chart_vars]
        self.hess_exprs = [ex.diff(d, v) for d in self.jac_exprs for v in self.chart_vars]
        self._screen: SeedScreen | None = None
        self._reach: float | None = None

    @property
    def m(self) -> int:
        return len(self.chart_vars)

    @classmethod
    def graph(cls, chart_vars, box, heights, ambient_dim=None):
        heights = ex.as_exprs(heights)
        chart_vars = tuple(chart_vars)
        n = len(chart_vars) + len(heights)
        if ambient_dim is not None and ambient_dim != n:
            raise ValueError("graph ambient dimension must be m + #heights")
        comps = [ex.Var(v) for v in chart_vars] + heights
        return cls("graph", chart_vars, box, comps, n)

    @classmethod
    def parametric(cls, chart_vars, box, maps, ambient_dim):
        maps = ex.as_exprs(maps)
        M = cls("parametric", chart_vars, box, maps, ambient_dim)
        J = M.jacobian_many(M.grid(17 if M.m <= 2 else 7))
        worst = float(np.min(frame_ratio(J)))
        if worst <= RANK_FLOOR:
            raise ImmersionError(
                f"chart fails the immersion check: min frame ratio {worst:.3e}"
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
        vals = ex.evaluate_many(self.jac_exprs, self._env(X), X.shape[:-1])
        return vals.reshape(*X.shape[:-1], self.n, self.m)

    def hessian_many(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        vals = ex.evaluate_many(self.hess_exprs, self._env(X), X.shape[:-1])
        return vals.reshape(*X.shape[:-1], self.n, self.m, self.m)

    def in_box_many(self, X, tol=1e-12) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        side = self.box[:, 1] - self.box[:, 0]
        return np.all((X >= self.box[:, 0] - tol * side)
                      & (X <= self.box[:, 1] + tol * side), axis=-1)

    def chart_eval(self, x) -> np.ndarray:
        """The embedding of the one chart point x (m,), box-checked."""
        if not self.in_box_many(x):
            raise OutOfDomain(f"chart coordinates {x} outside the domain box")
        return self.embed_many(np.asarray(x, dtype=float)[None, :])[0]

    def grid(self, per_axis: int, margin: float = 0.0) -> np.ndarray:
        """per_axis^m points evenly over the box shrunk by margin * side on
        each end; one point per axis is the box centre."""
        axes = []
        for a, b in self.box:
            lo = a + margin * (b - a)
            hi = b - margin * (b - a)
            axes.append(np.linspace(lo, hi, per_axis) if per_axis != 1
                        else [0.5 * (a + b)])
        return np.array(list(product(*axes)), dtype=float)

    def _on_edge(self, X) -> np.ndarray:
        """Whether each chart point of X (..., m) lies within 1e-9 of a side
        of an edge of the box, or beyond it: the feet project_batch flags
        on_boundary, and the followed chart points at which distances
        counts no point eligible."""
        lo, hi = self.box[:, 0], self.box[:, 1]
        side = hi - lo
        return np.any((X <= lo + 1e-9 * side) | (X >= hi - 1e-9 * side), axis=-1)

    # -- projection -------------------------------------------------------

    def _seed_screen(self) -> SeedScreen:
        """The SeedScreen of the SEEDS_PER_AXIS^m seed cells, computed on
        the first projection and kept. The Jacobian and Hessian bounds are
        rigorous; the centre Jacobians, their QR split and the norms around
        the bounds are plain floats, whose relative error (~1e-16) sits far
        inside the PROJECT_DIST_TOL tie slack."""
        if self._screen is not None:
            return self._screen
        axes, cells = [], []
        for a, b in self.box:
            h = (b - a) / SEEDS_PER_AXIS
            axes.append(a + h * (np.arange(SEEDS_PER_AXIS) + 0.5))
            edges = a + h * np.arange(SEEDS_PER_AXIS + 1)
            edges[0], edges[-1] = a, b  # the cells cover the box exactly
            cells.append(np.stack([edges[:-1], edges[1:]], axis=-1))
        seeds = np.array(list(product(*axes)), dtype=float)
        lo = np.array(list(product(*(c[:, 0] for c in cells))), dtype=float)
        hi = np.array(list(product(*(c[:, 1] for c in cells))), dtype=float)
        reach = np.linalg.norm(np.maximum(seeds - lo, hi - seeds), axis=1)
        env = {v: ex.Interval(lo[:, i], hi[:, i]) for i, v in enumerate(self.chart_vars)}
        # one bound for every cell where the entries are constant
        L, K = (np.broadcast_to(_interval_norm(e, env), (len(seeds),))
                for e in (self.jac_exprs, self.hess_exprs))
        J = _where_defined(self.jacobian_many, seeds)
        defined = np.all(np.isfinite(J), axis=(1, 2))
        J0 = np.where(defined[:, None, None], J, 0.0)
        Q, _ = np.linalg.qr(J0, mode="complete")
        with np.errstate(over="ignore"):
            curv = np.where(defined & np.isfinite(K), 0.5 * K * reach**2, np.inf)
        self._screen = SeedScreen(
            seeds=seeds, centres=self.embed_many(seeds), slack=L * reach, jac=J,
            basis=Q, tslack=np.linalg.norm(J0, axis=(1, 2)) * reach, curv=curv)
        return self._screen

    def _descend(self, X, P):
        """Projected Newton (Bertsekas 1982) from the rows of X towards
        stationary points of f(x) = |P - c(x)|^2 in the box; returns the
        final X, a converged mask and the embedding c(X).

        Each iteration fixes the coordinates that sit on a bound and whose
        descent direction -grad f points out of the box, and takes the
        Newton step of the stationarity system J^T (p - c) = 0 on the free
        ones: the fixed coordinates get an identity row and a zero
        right-hand side in the one exterior.solve. The trial point is
        clipped to the box, and the step halves, up to 13 times, until the
        merit |pg|^2 falls by the Armijo fraction, where pg, the projected
        gradient, is grad f with the fixed components zeroed. The 14 steps
        are tried in blocks of 1, 2, 4 and 7, each one evaluation of the
        rows still searching, narrowed to hold no more rows than the first
        evaluation; a row takes the first step that improves, as one
        halving after another would. At an interior point pg is the whole
        gradient; at a minimum on the box edge, where grad f itself is not
        0, pg is 0, so edge minima converge too. A row has
        converged when |pg| is at most PROJECT_GRAD_TOL (1 + |p|); a row no
        halving improves stops there, unconverged. A trial point at which
        the chart leaves its domain does not improve.

        Each point is evaluated once: every row carries c, J and J^T (p - c)
        from its start, or from the trial point it last accepted, into the
        next iteration and out as the returned embedding; only the Hessian
        is evaluated afresh, once per iteration. The rows still descending
        are kept compact, and a row writes its point and embedding back
        when it stops."""
        X = np.array(X, dtype=float)
        lo, hi = self.box[:, 0], self.box[:, 1]
        side = hi - lo
        cap = float(np.linalg.norm(side))
        scale = 1.0 + np.linalg.norm(P, axis=1)
        eye = np.eye(self.m)

        def stationarity(Xc, Pc):
            # a point where the chart leaves its domain is evaluated at NaN,
            # so its row counts as not improved
            C = _where_defined(self.embed_many, Xc)
            J = _where_defined(self.jacobian_many, Xc)
            G = np.einsum("rnm,rn->rm", J, Pc - C)  # J^T (p - c) = -grad f / 2
            return C, J, G

        def projected_gradient(Xc, G):
            g = -2.0 * G
            fixed = (((Xc <= lo + 1e-12 * side) & (g > 0.0))
                     | ((Xc >= hi - 1e-12 * side) & (g < 0.0)))
            return np.where(fixed, 0.0, g), fixed

        def merit(pg):
            return np.einsum("rm,rm->r", pg, pg)

        C, J, G = stationarity(X, P)
        pg0, _ = projected_gradient(X, G)
        conv = np.linalg.norm(pg0, axis=-1) <= PROJECT_GRAD_TOL * scale
        active = np.flatnonzero(~conv)
        Xa, Pa, Ca, Ja, Ga = (A.take(active, axis=0) for A in (X, P, C, J, G))
        for _ in range(PROJECT_MAX_ITER):
            if active.size == 0:
                break
            pg, fixed = projected_gradient(Xa, Ga)
            # the Jacobian of G(x) = J^T (p - c(x)) is (p - c) . d2c - J^T J,
            # curvature term included
            JTJ = np.einsum("rni,rnj->rij", Ja, Ja)
            H = _where_defined(self.hessian_many, Xa)
            DG = np.where(fixed[..., None], eye,
                          np.einsum("rnij,rn->rij", H, Pa - Ca) - JTJ)
            delta = np.clip(-solve(DG, np.where(fixed, 0.0, Ga)), -1e12, 1e12)
            dn = np.linalg.norm(delta, axis=-1, keepdims=True)
            delta *= np.minimum(1.0, cap / np.maximum(dn, 1e-30))

            # backtracking: the steps 1, 1/2, ..., 2^-13 in blocks of 1, 2,
            # 4, ... steps, each one evaluation of the rows still searching,
            # narrowed so that it never holds more rows than the descent's
            # first evaluation; a row takes the first step that improves, as
            # one halving after another would. `taken` keeps the evaluations
            # of the steps taken, and `source` where each row's step is in it
            phi = merit(pg)
            got = np.zeros(active.size, dtype=bool)
            pgbest = pg.copy()
            taken, size = [], 0
            source = np.zeros(active.size, dtype=int)
            searching = np.arange(active.size)
            tried, width = 0, 1
            while searching.size and tried < 14:
                w = min(width, 14 - tried, max(1, len(X) // searching.size))
                steps = 0.5 ** np.arange(tried, tried + w)
                Xn = np.clip(Xa.take(searching, axis=0)[:, None]
                             + steps[:, None] * delta.take(searching, axis=0)[:, None],
                             lo, hi).reshape(-1, self.m)
                Pn = np.repeat(Pa.take(searching, axis=0), w, axis=0)
                Cn, Jn, Gn = stationarity(Xn, Pn)
                pgn, _ = projected_gradient(Xn, Gn)
                improved = (merit(pgn).reshape(-1, w)
                            < (1.0 - 2.0 * PROJECT_ARMIJO * steps) * phi[searching, None])
                took = np.any(improved, axis=1)
                pick = np.flatnonzero(took) * w + np.argmax(improved[took], axis=1)
                hit = searching[took]
                source[hit] = size + np.arange(hit.size)
                size += hit.size
                taken.append(tuple(A.take(pick, axis=0) for A in (Xn, Cn, Jn, Gn)))
                pgbest[hit] = pgn.take(pick, axis=0)
                got[hit] = True
                searching = searching[~took]
                tried, width = tried + w, 2 * width
            conv_a = np.linalg.norm(pgbest, axis=-1) <= PROJECT_GRAD_TOL * scale[active]
            conv[active[conv_a]] = True
            # a row that took no step stops where it is, one that converged
            # stops at its step, and the rest go on from their steps
            X[active[~got]], C[active[~got]] = Xa[~got], Ca[~got]
            Xs, Cs, Js, Gs = (np.concatenate(A) for A in zip(*taken))
            stop = got & conv_a
            X[active[stop]] = Xs.take(source[stop], axis=0)
            C[active[stop]] = Cs.take(source[stop], axis=0)
            go = np.flatnonzero(got & ~conv_a)
            Xa, Ca, Ja, Ga = (A.take(source[go], axis=0) for A in (Xs, Cs, Js, Gs))
            Pa, active = Pa.take(go, axis=0), active[go]
        X[active], C[active] = Xa, Ca
        return X, conv, C

    def project_batch(self, P) -> BatchProjection:
        """Nearest points of the queries P (q, n), PROJECT_CHUNK_ROWS seed
        rows at a time. Every result is per query, so the chunks change no
        bit of it."""
        P = np.atleast_2d(np.asarray(P, dtype=float))
        step = max(1, PROJECT_CHUNK_ROWS // SEEDS_PER_AXIS ** self.m)
        # no query still makes one (empty) chunk
        parts = [self._project_chunk(P[i : i + step])
                 for i in range(0, max(len(P), 1), step)]
        return BatchProjection(*map(np.concatenate, zip(*parts)))

    def _near(self, P) -> tuple:
        """(d_centre, near) for the queries P (q, n): the distances (q, S)
        to the seed cell centres, and near (q,), the largest best converged
        distance that stands, d0 plus a tie slack.

        d0 bounds the minimum from above: it is the distance to the nearest
        centre c_i or to c(x), x the tangent-plane foot
        x_i + (J_i^T J_i)^-1 J_i^T (p - c_i) clipped to the box, whichever
        is nearer (a foot where J_i or c(x) is undefined is skipped)."""
        screen = self._seed_screen()
        d_centre = np.linalg.norm(P[:, None, :] - screen.centres[None], axis=-1)
        i = np.argmin(d_centre, axis=1)
        x = np.clip(screen.seeds[i] + gauss_newton_step(screen.jac[i], P - screen.centres[i]),
                    self.box[:, 0], self.box[:, 1])
        with np.errstate(invalid="ignore", over="ignore"):
            d_foot = np.linalg.norm(P - _where_defined(self.embed_many, x), axis=1)
        d0 = np.fmin(d_centre[np.arange(len(P)), i], d_foot)  # a NaN foot is skipped
        return d_centre, _tie(d0)

    def _screen_cells(self, P) -> tuple:
        """(keep, near) for the queries P (q, n): keep (q, S) marks the seed
        cells that may hold a foot that ties the best, and near is that of
        _near. The ties of a best within near reach no further than near
        plus a tie slack, so a cell whose lower bound exceeds that is
        dropped. The second-order bound runs only on the pairs the
        first-order one keeps, gathered by index."""
        screen, m = self._seed_screen(), self.m
        d_centre, near = self._near(P)
        reach = _tie(near)
        keep = d_centre - screen.slack <= reach[:, None]
        rows, cols = np.nonzero(keep)
        # w = Q_i^T v one row of Q_i at a time, so that no pair holds an
        # n x n copy of Q_i: every temporary is (pairs, n)
        v = P[rows] - screen.centres[cols]
        w = np.zeros_like(v)
        for row in range(self.n):
            w += v[:, row, None] * screen.basis[cols, row]
        tangent = np.maximum(0.0, np.linalg.norm(w[:, :m], axis=1) - screen.tslack[cols])
        keep[rows, cols] = (np.hypot(np.linalg.norm(w[:, m:], axis=1), tangent)
                            - screen.curv[cols] <= reach[rows])
        return keep, near

    def _project_chunk(self, P) -> BatchProjection:
        q = P.shape[0]
        seeds = self._seed_screen().seeds
        S, m = seeds.shape
        keep, near = self._screen_cells(P)

        # (q, S) layout; seeds that never run stay at distance inf
        X = np.broadcast_to(seeds, (q, S, m)).copy()
        A = np.zeros((q, S, self.n))
        d = np.full((q, S), np.inf)
        conv = np.zeros((q, S), dtype=bool)

        def run(rows, cols):
            if rows.size == 0:
                return
            X[rows, cols], conv[rows, cols], A[rows, cols] = self._descend(
                X[rows, cols], P[rows])
            d[rows, cols] = np.linalg.norm(P[rows] - A[rows, cols], axis=-1)

        run(*np.nonzero(keep))
        # expansion: a query whose kept seeds all failed (best = inf), or
        # whose best converged distance exceeds `near` (the minimum is at
        # most d0, so Newton missed it), runs its dropped seeds too and so
        # sees the full grid
        best = np.min(np.where(conv, d, np.inf), axis=1)
        run(*np.nonzero((best > near)[:, None] & ~keep))

        # per query: best distance among converged seeds (fall back to all)
        d_conv = np.where(conv, d, np.inf)
        any_conv = np.any(conv, axis=1)
        d_best = np.where(any_conv, np.min(d_conv, axis=1), np.min(d, axis=1))
        tie = d <= _tie(d_best)[:, None]
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
        # a best converged distance still beyond `near` after the expansion
        # is a stationary point that is not the nearest: the screen holds a
        # point of M within d0, so the row is not converged
        return BatchProjection(
            chart=chart,
            point=point,
            distance=d_best,
            converged=any_conv & (d_best <= near),
            ambiguous=ambiguous,
            on_boundary=self._on_edge(chart),
        )

    def distances(self, P, settle: float, start=None) -> tuple:
        """(distance, eligible), both (q,), for the points P (q, n), with
        `start` the chart points (m,) or (q, m) that a parametric chart
        follows from, or None.

        Each point p is followed to a chart point u: p_T on a graph, whose
        residual |p - c(u)| is the vertical distance, and gauss_newton from
        `start` on a parametric chart (NaN with no start). Where the residual
        is at most `settle` and u lies in the box off the edge band that
        project_batch flags on_boundary (`_on_edge`), the point reads the
        residual, its distance to the point c(u) of M, and is eligible: an
        upper bound needs no unique foot. A graph point within `settle`
        whose p_T is off the box or in the band reads its residual and is
        not eligible: a graph chart is injective, so the curve has left the
        chart.

        A graph point beyond `settle` with finite coordinates, on a chart
        with a positive reach_bound R, runs one projected-Newton row
        (_descend) from clip(p_T) to the box. Where it converges at x* with
        |p - c(x*)| below R less REACH_MARGIN, p - c(x*) lies in the normal
        cone of M at c(x*), and a point nearer M than its reach along such
        a normal has c(x*) as its unique nearest point (Federer 1959, Thm
        4.8(12)), edges included: the point reads that distance, and is
        eligible unless x* lies in the edge band. It is never ambiguous.

        The other points go to one project_batch call, read their projected
        distance, and are eligible where it converged unambiguously to a
        foot off the box edge: a graph's points whose descent does not
        converge or ends at or beyond R, or whose coordinates are not
        finite, every such point of a graph with R = 0, and a parametric
        chart's unsettled points, its points that converge off the box
        among them, since such a chart may wrap (a circle's angle)."""
        P = np.atleast_2d(np.asarray(P, dtype=float))
        if self.kind == "graph":
            U = P[:, :self.m]
            with np.errstate(invalid="ignore", over="ignore"):
                distance = np.linalg.norm(P - _where_defined(self.embed_many, U), axis=1)
        elif start is None:
            U, distance = np.full((len(P), self.m), np.nan), np.full(len(P), np.nan)
        else:
            U, _, _, distance = gauss_newton(
                lambda V, rows: (_where_defined(self.embed_many, V),
                                 _where_defined(self.jacobian_many, V)),
                np.broadcast_to(start, (len(P), self.m)), P)
        settled = distance <= settle  # NaN settles no row
        eligible = settled & ~self._on_edge(U)
        rest = np.flatnonzero(~settled if self.kind == "graph" else ~eligible)
        reach = self.reach_bound()  # 0 on a parametric chart
        live = rest[np.all(np.isfinite(P[rest]), axis=1) & (reach > 0.0)]
        if live.size:
            X, conv, C = self._descend(np.clip(U[live], self.box[:, 0], self.box[:, 1]),
                                       P[live])
            d = np.linalg.norm(P[live] - C, axis=1)
            sure = conv & (d < reach * (1.0 - REACH_MARGIN))
            distance[live[sure]] = d[sure]
            eligible[live[sure]] = ~self._on_edge(X[sure])
            rest = np.setdiff1d(rest, live[sure], assume_unique=True)
        if rest.size:
            b = self.project_batch(P[rest])
            distance[rest] = b.distance
            eligible[rest] = b.converged & ~b.ambiguous & ~b.on_boundary
        return distance, eligible

    def nearest_point(self, p) -> BatchProjection:
        """The projection of the one point p (n,), row 0 of project_batch;
        raises NoConvergence or AmbiguousProjection where that row did not
        converge or is ambiguous."""
        b = self.project_batch(np.asarray(p, dtype=float)[None, :])
        if not b.converged[0]:
            raise NoConvergence("projection did not converge from any start")
        if b.ambiguous[0]:
            raise AmbiguousProjection(
                f"projection of {np.asarray(p).tolist()} has multiple feet at "
                f"distance {b.distance[0]:.6g}; point is outside the tube"
            )
        return BatchProjection(*(field[0] for field in b))

    # -- tube radius ------------------------------------------------------

    @property
    def half_side(self) -> float:
        """Half the shortest box side, the default rho_max of tube_radius."""
        return 0.5 * float(np.min(self.box[:, 1] - self.box[:, 0]))

    def reach_bound(self) -> float:
        """A certified lower bound on the reach of a graph over its box, 1/K
        (inf for K = 0); 0 for a parametric chart.

        K is the Frobenius norm of the entrywise magnitudes of the height
        Hessians D^2 h over the whole box, one outward-rounded interval
        evaluation (expr.INTERVALS) of the height rows of hess_exprs. For a
        graph c(x) = (x, h(x)) take a, y in the box, d = y - a and
        A = c(a). Then |c(y) - A| >= |d|, since the first m coordinates of
        c(y) - A are d. The box is convex, so the segment from a to y stays
        in it and Taylor's theorem with integral remainder gives
        c(y) - A - Dc(a) d = (0, r) with |r_k| <= 1/2 |D^2 h_k|_F |d|^2 for
        each height, so |r| <= 1/2 K |d|^2. Dc(a) d lies in the tangent
        cone of M at A, the whole tangent plane inside the box and at its
        edge the image of the box's own cone, which contains d. So
        dist(c(y) - A, Tan(M, A)) <= K |c(y) - A|^2 / 2, and Federer's
        criterion (Federer 1959, "Curvature measures", Thm 4.18; see also
        Aamari et al. 2019, "Estimating the reach of a manifold") gives
        reach >= 1/K, with the box edges included. Every point nearer M
        than this has a unique nearest point.

        The interval bound is rigorous; the norm and reciprocal around it
        are plain floats, off by a few ulps. Interval bounds are total:
        where a Hessian entry leaves its domain somewhere in the box (a
        quotient by an interval holding 0, a sqrt reaching below 0) its
        bound is the entire line, so K = inf and the bound is 0, as it is
        when a bound overflows. A parametric chart gets no bound: a
        curvature bound alone would not rule out distant sheets of the
        chart coming close (a circle's chart meets itself), so it returns
        0 and callers fall back to the probed tube_radius.

        The bound is evaluated on the first call and kept."""
        if self._reach is None:
            K = np.inf
            if self.kind == "graph":
                env = {v: ex.Interval(lo, hi)
                       for v, (lo, hi) in zip(self.chart_vars, self.box)}
                K = float(_interval_norm(self.hess_exprs[self.m ** 3:], env))  # the height rows
            self._reach = np.inf if K == 0.0 else 1.0 / K
        return self._reach

    def tube_radius(self, *, rho_max: float | None = None, seed: int = 0) -> float:
        """Largest dyadic rho, from rho_max (default half_side) down, such
        that random probes at distance rho along the normals of random
        chart points all project back to their source point unambiguously,
        to within TUBE_FOOT_TOL (1 + |A|).

        A search, not a certificate: it runs project_batch once per level
        it cannot refute and raises NoConvergence when no level passes. A
        probe p = A + rho nu passes only with a foot F within
        TUBE_FOOT_TOL (1 + |A|) of its source A, so at a distance of at
        least |p - A| - TUBE_FOOT_TOL (1 + |A|). When the `near` of
        _near (d0 plus a tie slack) lies below that, project_batch
        would flag such a foot converged = False, as it lies farther than
        near, so the level fails without a projection. reach_bound is the
        certified (and much cheaper) bound; osculate.ruledness_record runs
        this search only when a sample lies beyond it and beyond the ruled
        tolerance."""
        if rho_max is None:
            rho_max = self.half_side
        rng = np.random.default_rng(seed)
        X = rng.uniform(self.box[:, 0], self.box[:, 1], size=(TUBE_PROBES, self.m))
        A = self.embed_many(X)
        J = self.jacobian_many(X)
        Q, _ = np.linalg.qr(J, mode="complete")
        basis = Q[:, :, self.m:]                      # (probes, n, n-m)
        coeff = rng.normal(size=(TUBE_PROBES, self.n - self.m))
        coeff /= np.linalg.norm(coeff, axis=1, keepdims=True)
        nu = np.einsum("pnk,pk->pn", basis, coeff)
        foot_tol = TUBE_FOOT_TOL * (1.0 + np.linalg.norm(A, axis=1))
        rho = float(rho_max)
        for _ in range(24):
            P = A + rho * nu
            _, near = self._near(P)
            if not np.any(near < np.linalg.norm(P - A, axis=1) - foot_tol):
                b = self.project_batch(P)
                ok = (
                    b.converged
                    & ~b.ambiguous
                    & (np.linalg.norm(b.point - A, axis=1) <= foot_tol)
                )
                if np.all(ok):
                    return rho
            rho *= 0.5
        raise NoConvergence("no probed tube radius found by dyadic search")
