"""Independent oracles for the test suite.

Everything here deliberately avoids the library's own computation paths:
Taylor coefficients come from repeated symbolic differentiation, distances
from brute-force grid minimization, lengths from composite Simpson, frame
volumes from Gram determinants, maximal minors from the Leibniz permutation
sum. The class-k fit oracle is an exception: it uses the library's
residual jets, but none of the fit's own machinery (central differences
for the exact Jacobian, its own lstsq for the batched pinv, one start and
one line-search candidate at a time for the fit's schedule, start 0 alone
and then the rest in lockstep), so it checks both the fit's linearization
and its schedule. The tube-radius oracle is
another: it projects every dyadic level with the library's project_batch,
so it checks the levels that Submanifold.tube_radius refutes unprojected.
The ruledness and decay oracles are two more: they project every curve
point with project_batch, so they check the points that
osculate.ruledness_check and contact.uniform_decay_check settle by
following the chart (Submanifold.distances) instead, and the route checks
compare the distances it certifies by the reach bound with project_batch's
row by row. The flow oracle integrates the ODE that
sweep.tangency_flow_check finds as roots: classical RK4 with fixed steps,
its field taken point by point by np.linalg.lstsq, no solve of the library.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from osclab import expr as ex
from osclab.config import geometric_grid
from osclab.contact import PolyCurve, residual_jets
from osclab.osculate import RULED_PARAMS, RuledVerdict, RuledWitness


def substitute(e: ex.Expr, mapping: dict[str, ex.Expr]) -> ex.Expr:
    """Symbolic substitution by tree rebuild."""
    if isinstance(e, ex.Const):
        return e
    if isinstance(e, ex.Var):
        return mapping.get(e.name, e)
    if isinstance(e, ex.Add):
        return ex.Add(substitute(e.left, mapping), substitute(e.right, mapping))
    if isinstance(e, ex.Mul):
        return ex.Mul(substitute(e.left, mapping), substitute(e.right, mapping))
    if isinstance(e, ex.Div):
        return ex.Div(substitute(e.num, mapping), substitute(e.den, mapping))
    if isinstance(e, ex.Pow):
        return ex.Pow(substitute(e.base, mapping), e.exponent)
    if isinstance(e, ex.Neg):
        return ex.Neg(substitute(e.arg, mapping))
    if isinstance(e, ex.Call):
        return ex.Call(e.func, substitute(e.arg, mapping))
    raise TypeError(e)


def taylor_by_diff(e: ex.Expr, var: str, at: float, orders: int) -> list[float]:
    """Coefficients c_j = f^(j)(at)/j! via repeated symbolic differentiation."""
    out = []
    current = e
    for j in range(orders + 1):
        out.append(ex.evaluate(current, {var: at}) / math.factorial(j))
        current = ex.diff(current, var)
    return out


def grid_min_1d(fn, a: float, b: float, step: float):
    """Brute-force 1-d minimization; returns (argmins, minimum)."""
    xs = np.arange(a, b + step, step)
    vals = fn(xs)
    vmin = float(np.min(vals))
    near = xs[vals <= vmin + 1e-12 * (1.0 + abs(vmin))]
    # cluster near-minimal points into distinct argmins
    argmins = []
    for x in near:
        if not argmins or abs(x - argmins[-1]) > 10 * step:
            argmins.append(float(x))
    return argmins, vmin


def grid_min_2d(fn, box, step: float) -> float:
    xs = np.arange(box[0][0], box[0][1] + step, step)
    ys = np.arange(box[1][0], box[1][1] + step, step)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return float(np.min(fn(X, Y)))


def gram_volume(vectors) -> float:
    V = np.stack([np.asarray(v, dtype=float) for v in vectors], axis=1)
    return float(np.sqrt(max(np.linalg.det(V.T @ V), 0.0)))


def leibniz_minors(vectors) -> list:
    """Every maximal minor of the m vectors (each n ring elements: floats,
    arrays or jets), row combinations in lexicographic order, each as the
    signed sum over all m! permutations: no expansion order at all."""
    m, n = len(vectors), len(vectors[0])
    out = []
    for rows in itertools.combinations(range(n), m):
        total = 0.0
        for perm in itertools.permutations(range(m)):
            term = vectors[0][rows[perm[0]]]
            for c in range(1, m):
                term = term * vectors[c][rows[perm[c]]]
            inversions = sum(perm[a] > perm[b]
                             for a in range(m) for b in range(a + 1, m))
            total = total - term if inversions % 2 else total + term
        out.append(total)
    return out


def sphere_distance(p) -> float:
    return abs(float(np.linalg.norm(p)) - 1.0)


def annulus_area(t: float) -> float:
    return math.pi * ((1.0 + t) ** 2 - (1.0 - t) ** 2)


def simpson_length(point_fn, a: float, b: float, panels: int = 4096) -> float:
    """Arc length by composite Simpson on a central-difference speed."""
    ts = np.linspace(a, b, 2 * panels + 1)
    h = 1e-7 * (1.0 + abs(b - a))
    speed = np.linalg.norm(
        (point_fn(ts + h) - point_fn(ts - h)) / (2 * h), axis=-1)
    w = np.ones_like(ts)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((ts[1] - ts[0]) / 3.0 * np.dot(w, speed))


def dense_distance_min(embed_many, box, P, per_axis: int):
    """Brute-force distance from each row of P to the chart image of a
    dense grid over the box. Returns the grid minimum, whether its argmin
    lies on the box edge, and the grid's Lipschitz slack: twice the
    largest secant norm between neighbouring grid points times half the
    diagonal of a grid cell, so the true minimum over the box is at least
    the grid minimum minus the slack."""
    box = np.asarray(box, dtype=float)
    axes = [np.linspace(a, b, per_axis) for a, b in box]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    C = embed_many(mesh)                       # (per_axis,)*m + (n,)
    steps = np.array([ax[1] - ax[0] for ax in axes])
    secant_sq = 0.0
    for k in range(len(box)):
        d = np.diff(C, axis=k) / steps[k]
        secant_sq = secant_sq + np.max(np.sum(d * d, axis=-1))
    slack = 2.0 * np.sqrt(secant_sq) * 0.5 * float(np.linalg.norm(steps))
    X = mesh.reshape(-1, len(box))
    edge = np.any((X == box[:, 0]) | (X == box[:, 1]), axis=1)
    C = C.reshape(-1, C.shape[-1])
    P = np.atleast_2d(np.asarray(P, dtype=float))
    # nearest grid point by the expanded square, then its distance directly
    arg = np.argmin(np.sum(C * C, axis=1) - 2.0 * P @ C.T, axis=1)
    return np.linalg.norm(P - C[arg], axis=1), edge[arg], slack


def tube_probes(M, *, seed: int = 0, probes: int = 200, foot_tol: float = 1e-6):
    """The random normal probes of Submanifold.tube_radius: their sources
    A (probes, n) on M, unit normals nu (probes, n) and the foot tolerance
    foot_tol (1 + |A|) of each."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(M.box[:, 0], M.box[:, 1], size=(probes, M.m))
    A = M.embed_many(X)
    Q, _ = np.linalg.qr(M.jacobian_many(X), mode="complete")
    coeff = rng.normal(size=(probes, M.n - M.m))
    coeff /= np.linalg.norm(coeff, axis=1, keepdims=True)
    nu = np.einsum("pnk,pk->pn", Q[:, :, M.m:], coeff)
    return A, nu, foot_tol * (1.0 + np.linalg.norm(A, axis=1))


def tube_level_passes(b, A, tol) -> bool:
    """Whether every probe of a level, projected as b, converges
    unambiguously to a foot within tol of its source A."""
    return bool(np.all(b.converged & ~b.ambiguous
                       & (np.linalg.norm(b.point - A, axis=1) <= tol)))


def tube_radius_every_level(M, *, rho_max=None, seed: int = 0) -> float:
    """The dyadic tube search that projects every level: the tube_probes
    of Submanifold.tube_radius, and a level passes when every probe
    converges unambiguously to a foot within tolerance of its source.
    Raises AssertionError when no level of 24 passes."""
    rho = M.half_side if rho_max is None else float(rho_max)
    A, nu, tol = tube_probes(M, seed=seed)
    for _ in range(24):
        if tube_level_passes(M.project_batch(A + rho * nu), A, tol):
            return rho
        rho *= 0.5
    raise AssertionError("no level of the dyadic search passes")


def ruledness_by_projection(M, curve_provider, span: float, *, tube: float,
                            probe=None, samples_per_axis: int = 3,
                            margin: float = 0.15, tol) -> RuledVerdict:
    """osculate.ruledness_check with every curve sample projected: a sample
    counts when its projection converges unambiguously off the box edge at
    a distance within max(tube, tolerance), widened by probe() when some
    such sample lies beyond that."""
    X = M.grid(samples_per_axis, margin=margin)
    svals = np.linspace(-span, span, RULED_PARAMS)
    pts = np.concatenate([np.atleast_2d(curve_provider(x)(svals)) for x in X])
    scale = float(np.max(np.linalg.norm(M.embed_many(X), axis=1)))
    tolerance = tol.ruled * (1.0 + scale)
    b = M.project_batch(pts)
    eligible = b.converged & ~b.ambiguous & ~b.on_boundary
    radius = max(tube, tolerance)
    if probe is not None and np.any(eligible & (b.distance > radius)):
        radius = max(radius, probe())
    valid = eligible & (b.distance <= radius)
    counted = int(np.count_nonzero(valid))
    per_sample = [{"x": x.tolist(), "counted": int(np.count_nonzero(v)),
                   "max_distance": float(np.max(d[v])) if np.any(v) else None}
                  for x, v, d in zip(X, valid.reshape(len(X), -1),
                                     b.distance.reshape(len(X), -1))]
    if counted == 0:
        return RuledVerdict("UNDECIDED", None, tolerance, 0, valid.size, None, per_sample)
    i = int(np.argmax(np.where(valid, b.distance, -np.inf)))
    dmax = float(b.distance[i])
    witness = RuledWitness(X[i // RULED_PARAMS], float(svals[i % RULED_PARAMS]),
                           pts[i], dmax)
    verdict = "CONTAINED" if dmax <= tolerance else "NOT_CONTAINED"
    return RuledVerdict(verdict, dmax, tolerance, counted, valid.size - counted,
                        None if verdict == "CONTAINED" else witness, per_sample)


#: a distance that Submanifold.distances certifies lies within this many
#: ulps of (1 + |p|) of the one project_batch finds for the same point
CERTIFIED_ULPS = 4


def rows_in(P, queries) -> np.ndarray:
    """Whether each row of P (q, n) is a row of one of the arrays in
    `queries`, NaNs in the same place matching."""
    P = np.asarray(P, dtype=float)
    mask = np.zeros(len(P), dtype=bool)
    for Q in queries:
        same = (P[:, None] == Q[None]) | (np.isnan(P[:, None]) & np.isnan(Q[None]))
        mask |= np.all(same, axis=-1).any(axis=1)
    return mask


def assert_certified_like_projection(M, P, distance, eligible) -> None:
    """The rows P that Submanifold.distances certified, with their distance
    and eligibility, against project_batch: each distance within
    CERTIFIED_ULPS eps (1 + |p|) of the projected one, every projection
    converged and unambiguous, and eligible exactly where the projected
    foot lies off the box's edge band."""
    b = M.project_batch(P)
    slack = CERTIFIED_ULPS * np.finfo(float).eps * (1.0 + np.linalg.norm(P, axis=1))
    assert np.all(np.abs(distance - b.distance) <= slack)
    assert np.all(b.converged) and not np.any(b.ambiguous)
    assert np.array_equal(eligible, ~M._on_edge(b.chart))


def decay_ratios_by_projection(family, k: int, tol) -> np.ndarray:
    """The ratios of contact.uniform_decay_check, max_x d(phi(x, t), M) / t^k
    per t, with every point projected and distances below dist_zero read 0."""
    M, ts = family.M, geometric_grid()
    X = M.grid(4, margin=0.15)
    pts = family.point_many(np.tile(X, (len(ts), 1)), np.repeat(ts, len(X)))
    ds = M.project_batch(pts).distance.reshape(len(ts), len(X))
    return np.max(np.where(ds < tol.dist_zero, 0.0, ds), axis=1) / ts**k


def sequential_class_k_fit(M, p_chart, k: int, target_order: int, tol,
                           starts: int = 32, seed: int = 0, gtol: float = 1e-6):
    """osculate.fit_class_k_curve with one start at a time, kept independent
    of the fit's machinery: each start runs its damped Gauss-Newton to the
    end before the next is drawn, and the first that converges is returned.
    Its Jacobian is taken by central differences of residual_jets, one
    coefficient at a time, not from the residual's linearization. Each step
    is solved by its own np.linalg.lstsq, a solver independent of the
    library's batched pinv over the starts that step together; both give
    the minimum-norm least-squares step. The line search evaluates one
    candidate at a time: 2 delta first, taken only when it converges, then
    delta, delta/2, ... for the first that lowers |F|^2. A start ends as
    failed when its residual has cosine at most gtol with every Jacobian
    column. On the corpus the fit and this oracle agree on which samples
    have a curve, and their curves differ by about 1e-9."""
    p_chart = np.asarray(p_chart, dtype=float)
    p_amb = M.chart_eval(p_chart)
    n = M.n

    def system(flat: np.ndarray) -> np.ndarray:
        c = flat.reshape(k, n)
        curve = PolyCurve(np.vstack([p_amb, c]), p_chart)
        coeffs = residual_jets(M, curve, target_order, tol)
        res = coeffs[:, 1 : target_order + 1].ravel()
        return np.concatenate([res, [np.dot(c[0], c[0]) - 1.0]])

    def converged(F: np.ndarray) -> bool:
        return np.max(np.abs(F[:-1])) <= tol.contact_coeff and abs(F[-1]) <= 1e-9

    def jacobian(flat: np.ndarray) -> np.ndarray:
        cols = []
        for i in range(flat.size):
            h = 1e-7 * (1.0 + abs(flat[i]))
            up, dn = flat.copy(), flat.copy()
            up[i] += h
            dn[i] -= h
            cols.append((system(up) - system(dn)) / (2 * h))
        return np.stack(cols, axis=-1)

    rng = np.random.default_rng(seed)
    for _ in range(starts):
        flat = rng.standard_normal((k, n))
        flat[0] /= np.linalg.norm(flat[0])
        flat = flat.ravel()
        F = system(flat)
        f2 = float(np.dot(F, F))
        for _ in range(80):
            if converged(F):
                return PolyCurve(np.vstack([p_amb, flat.reshape(k, n)]), p_chart)
            J = jacobian(flat)
            if np.all(np.abs(F @ J) <= gtol * np.linalg.norm(J, axis=0) * math.sqrt(f2)):
                break
            delta, *_ = np.linalg.lstsq(J, -F, rcond=None)
            cand = flat + 2.0 * delta
            Fc = system(cand)
            if converged(Fc):
                flat, F, f2 = cand, Fc, float(np.dot(Fc, Fc))
                continue
            step = 1.0
            accepted = False
            for _ in range(25):
                cand = flat + step * delta
                Fc = system(cand)
                fc2 = float(np.dot(Fc, Fc))
                if fc2 < f2:
                    flat, F, f2 = cand, Fc, fc2
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                break
    return None


def rk4_flow(family, starts, t_span: float, checkpoints: int = 8,
             substeps: int = 32) -> np.ndarray:
    """The flow of -Y_t, D(phi_t) Y_t = dt(phi_t), from each chart point of
    starts (L, m), read at t = j t_span / checkpoints for j = 1..checkpoints:
    shape (checkpoints, L, m). Classical fixed-step RK4, substeps steps per
    checkpoint; each Y_t is the minimum-norm least-squares solution of one
    point's frame by np.linalg.lstsq. The starts share one frame_many call
    per stage."""
    m = family.M.m
    U = np.atleast_2d(np.asarray(starts, dtype=float)).copy()
    h = t_span / (checkpoints * substeps)

    def field(V, t):
        frames = family.frame_many(V, np.full(len(V), t))
        return -np.stack([np.linalg.lstsq(f[:, :m], f[:, m], rcond=None)[0]
                          for f in frames])

    out, t = [], 0.0
    for _ in range(checkpoints):
        for _ in range(substeps):
            k1 = field(U, t)
            k2 = field(U + 0.5 * h * k1, t + 0.5 * h)
            k3 = field(U + 0.5 * h * k2, t + 0.5 * h)
            k4 = field(U + h * k3, t + h)
            U = U + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
        out.append(U.copy())
    return np.array(out)
