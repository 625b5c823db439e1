"""Independent oracles for the test suite.

Everything here deliberately avoids the library's own computation paths:
Taylor coefficients come from repeated symbolic differentiation, distances
from brute-force grid minimization, lengths from composite Simpson, frame
volumes from Gram determinants. The class-k fit oracle is the exception: it
uses the library's residual jets but runs its starts one after another, so
it checks the lockstep schedule of osculate.fit_class_k_curve.
"""

from __future__ import annotations

import math

import numpy as np

from osclab import expr as ex
from osclab.contact import PolyCurve, residual_jets


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


def sequential_class_k_fit(M, p_chart, k: int, target_order: int, tol,
                           starts: int = 32, seed: int = 0):
    """osculate.fit_class_k_curve with one start at a time: each start runs
    its damped Gauss-Newton to the end before the next is drawn, and the
    first that converges with speed >= min_speed is returned."""
    p_chart = np.asarray(p_chart, dtype=float)
    p_amb = M.chart_eval(p_chart)
    n = M.n

    def system(flat: np.ndarray) -> np.ndarray:
        c = flat.reshape(k, n)
        curve = PolyCurve(np.vstack([p_amb, c]))
        coeffs, _ = residual_jets(M, curve, target_order, tol)
        res = coeffs[:, 1 : target_order + 1].ravel()
        return np.concatenate([res, [np.dot(c[0], c[0]) - 1.0]])

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
            if (np.max(np.abs(F[:-1])) <= tol.contact_coeff
                    and abs(F[-1]) <= 1e-9):
                c = flat.reshape(k, n)
                if np.linalg.norm(c[0]) >= tol.min_speed:
                    return PolyCurve(np.vstack([p_amb, c]))
                break
            J = jacobian(flat)
            delta, *_ = np.linalg.lstsq(J, -F, rcond=None)
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
