"""Osculating direction solving, class-k curve fitting, containment of
curve families, and the end-to-end ruled-submanifold verdict pipeline.

A tangent direction on a surface in R^3 osculates to order >= 3 exactly
when the quadratic and cubic terms of the normal residual along it both
vanish. Both forms are recovered by polarization from residual jets of
probe lines, so graphs and (re-charted) parametric surfaces run through
the same code path, and all points of a stack share two residual_jets calls:
one for their probe lines, and one for their kept direction lines. The
class-k fit reads its k = 1 lines on a surface in R^3 from these directions
in closed form; every other fit searches from seeded random starts.

The global containment conclusion of the underlying theorem relies on
analytic continuation, which numerics cannot perform: every verdict here
is a finite-window statement, containment over a finite parameter span
within the ruled tolerance of the manifold, and the reports say so
explicitly. A curve sample is first followed on the chart from its
sample's chart point (Submanifold.distances): a graph reads the vertical
distance |p_N - h(p_T)|, a parametric chart corrects by Gauss-Newton, and
a sample within the ruled tolerance in the box counts without a
projection. A graph's other samples read a nearest point that a descent
finds within the graph's certified reach bound, and the rest are
projected; either counts inside a tube around the manifold (the larger
of a graph's certified reach bound and the ruled tolerance, and the
probed tube radius only where a sample lies beyond both).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .config import RunParams, Tolerances
from .contact import (
    ContactOrder,
    NotOnManifold,
    PolyCurve,
    contact_order_jet_recharted,
    max_contact_order,
    residual_jets,
)
from .expr import NumericalError
from .manifold import Submanifold
from .scene import SceneError
from .sweep import (
    SweepFamily,
    growth_exponent,
    tangency_flow_check,
    vanishing_verdict,
    volume_series,
)

_TOL = Tolerances()

FINITE_WINDOW_NOTE = (
    "containment is verified on a finite parameter window: a curve sample "
    "counts within the ruled tolerance of M, by the vertical distance bound "
    "on a graph chart, else by its projected distance inside the tube; no "
    "analytic continuation is performed"
)


# ---------------------------------------------------------------------------
# osculating directions (order-3 lines on surfaces in R^3)


class OscDirection(NamedTuple):
    chart: np.ndarray     # coefficients in the tangent basis
    ambient: np.ndarray   # unit tangent vector in R^n
    cubic_residual: float
    jet_order: ContactOrder


def _lines(p_chart, p_amb, basis, V) -> PolyCurve:
    """The lines p + t (v1 b1 + v2 b2), one per direction v of V (..., 2), through
    the chart points p_chart with embeddings p_amb and tangent bases basis."""
    W = V[..., :1] * basis[..., 0] + V[..., 1:] * basis[..., 1]
    return PolyCurve(np.stack([np.broadcast_to(p_amb, W.shape), W], axis=-2), p_chart)


def _normalize_direction(v: np.ndarray) -> np.ndarray:
    v = v / np.linalg.norm(v)
    lead = v[np.nonzero(np.abs(v) > 1e-12)[0][0]]
    return -v if lead < 0 else v


def osculating_directions(M: Submanifold, p_chart, tol=_TOL) -> list:
    """Unit tangent directions with line contact order >= 3 at the chart point
    p_chart (2,), or [], or one such list per point of a stack (N, 2).

    A definite quadratic form yields the empty list; a degenerate (zero)
    quadratic passes every direction to the cubic stage, and if the cubic
    degenerates too the two basis representatives stand in for the whole
    projective line of solutions. All points share two residual_jets calls.
    """
    if M.m != 2 or M.n != 3:
        raise ValueError("osculating directions need a surface in R^3")
    p_chart = np.asarray(p_chart, dtype=float)
    X = p_chart.reshape(-1, 2)
    P, B = M.embed_many(X), M.jacobian_many(X)  # tangent bases: chart coordinates

    # both forms by polarization, from the residuals of four probe lines
    V = np.array([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0)])
    probes = residual_jets(M, _lines(X[:, None], P[:, None], B[:, None], V), 3, tol)
    kept: list[tuple[int, np.ndarray, float]] = []   # (point, direction, cubic residual)
    for i, probe in enumerate(probes[..., 0, :]):
        qa, qc, q11, _ = probe[:, 2].tolist()
        ka, kg, s1, s2 = probe[:, 3].tolist()
        qb = q11 - qa - qc
        ke = 0.5 * (s1 - s2) - kg
        kf = 0.5 * (s1 + s2) - ka
        ref = max(1.0, abs(qa), abs(qb), abs(qc), abs(ka), abs(ke), abs(kf), abs(kg))
        qtol = 1e-12 * ref

        roots: list[np.ndarray] = []
        if max(abs(qa), abs(qb), abs(qc)) <= qtol:
            # degenerate second fundamental form: cubic decides alone
            if max(abs(ka), abs(ke), abs(kf), abs(kg)) <= qtol:
                roots = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
            else:
                # each vanishing leading coefficient is a factor b: root (1, 0)
                cubic_coeffs = [ka, ke, kf, kg]
                while abs(cubic_coeffs[0]) <= qtol:
                    cubic_coeffs.pop(0)
                    roots.append(np.array([1.0, 0.0]))
                for r in np.roots(cubic_coeffs):
                    if abs(r.imag) <= 1e-8 * (1.0 + abs(r.real)):
                        roots.append(np.array([r.real, 1.0]))
        elif abs(qa) > qtol:
            disc = qb * qb - 4.0 * qa * qc
            if disc >= -1e-12 * ref * ref:
                sd = np.sqrt(max(disc, 0.0))
                roots.append(np.array([(-qb + sd) / (2 * qa), 1.0]))
                if sd > 1e-12 * ref:
                    roots.append(np.array([(-qb - sd) / (2 * qa), 1.0]))
        else:
            # qa ~ 0: Q = b (qb a + qc b)
            roots.append(np.array([1.0, 0.0]))
            if abs(qb) > qtol:
                roots.append(np.array([-qc / qb, 1.0]))

        for root in roots:
            v = _normalize_direction(root)
            if any(abs(float(np.dot(v, u))) >= 1.0 - 1e-9 for j, u, _ in kept if j == i):
                continue
            resid = abs(ka * v[0]**3 + ke * v[0]**2 * v[1]
                        + kf * v[0] * v[1]**2 + kg * v[1]**3)
            if resid > tol.cubic_residual * ref:
                continue
            kept.append((i, v, resid))
    kept.sort(key=lambda d: (d[0], round(d[1][0], 12), round(d[1][1], 12)))
    out: list[list[OscDirection]] = [[] for _ in X]
    if kept:
        at = [i for i, _, _ in kept]
        lines = _lines(X[at], P[at], B[at], np.array([v for _, v, _ in kept]))
        orders = contact_order_jet_recharted(lines, M, max_order=5, tol=tol)
        for (i, v, resid), w, order in zip(kept, lines.coeffs[:, 1], orders):
            out[i].append(OscDirection(chart=v, ambient=_normalize_direction(w),
                                       cubic_residual=resid, jet_order=order))
    return out if p_chart.ndim == 2 else out[0]


def _osculating_line(M: Submanifold, p_chart, directions: list) -> PolyCurve | None:
    """The line through the chart point p_chart (2,) along the first of its
    osculating directions whose line meets order 3, or None if none does."""
    line = next((d.ambient for d in directions if d.jet_order.meets(3)), None)
    return None if line is None else PolyCurve([M.chart_eval(p_chart), line], p_chart)


# ---------------------------------------------------------------------------
# class-k curve fitting

FIT_STARTS = 32        # random starts per fit, drawn from the seeded rng
FIT_GTOL = 1e-6        # a start whose residual is this near orthogonal to
                       # every Jacobian column sits at a minimum that is no root


def fit_class_k_curve(M: Submanifold, p_chart, k: int, target_order: int,
                      seed: int = 0, tol=_TOL):
    """Coefficients c_1..c_k with residual jet coefficients of orders
    1..target_order all vanishing, on any chart kind; returns a PolyCurve
    through p_chart with unit-normalized velocity, or None. A p_chart not of
    shape (m,), k < 1 or target_order < 1 is a ValueError.

    A line (k = 1) on a surface in R^3 at target_order 3 is read in closed
    form: the first direction of osculating_directions whose line meets
    order 3, or None if none does; seed is not read. Every other fit is a
    damped Gauss-Newton search from FIT_STARTS random starts drawn from
    seed; so is a line at order 2, whose asymptotic directions the cubic
    test would reject.

    Every start runs the same iteration it would run alone: an exact
    Jacobian, a minimum-norm least-squares step delta, and a line search
    over 2 delta, delta, delta/2, ..., delta/2^24. The Jacobian comes with
    the residual from residual_jets' linearization P: the column of c_{j,i}
    is column i of P shifted up j orders, and the speed row |c_1|^2 - 1 has
    2 c_1 there. The line search takes 2 delta only when that finishes the
    start (near a double root plain steps only halve the error), and
    otherwise the first halving that lowers |F|^2. A start ends as
    converged when every residual coefficient is within contact_coeff and
    |c_1|^2 - 1 within 1e-9. It ends as failed when its line search fails,
    after 80 steps, or by MINPACK's gtol test, |J_j^T F| <= FIT_GTOL |J_j| |F|
    for every Jacobian column J_j: a minimum of |F|^2 that is no root.

    One residual_jets call evaluates every start at its random point, and
    start 0 then iterates alone: where a curve exists it nearly always
    converges without help. Only where it ends without converging do
    starts 1.. iterate, together in lockstep as batched PolyCurves. Each
    step takes one pinv of the live starts' stacked Jacobians and one
    residual_jets call for all 26 line-search candidates of every live
    start. An accepted candidate carries its residual and Jacobian into the
    next step, so no point is evaluated twice. Every batched operation
    works row by row, so the schedule decides only which starts are
    evaluated, never their iterates. The result is the curve of the
    lowest-index start that converges, returned once every lower-index
    start has ended; higher-index starts are dropped as soon as one
    converges.
    """
    p_chart = np.asarray(p_chart, dtype=float)
    if p_chart.shape != (M.m,):
        raise ValueError(f"p_chart must have shape ({M.m},), got {p_chart.shape}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if target_order < 1:
        raise ValueError(f"target_order must be at least 1, got {target_order}")
    if (M.m, M.n, k, target_order) == (2, 3, 1, 3):
        return _osculating_line(M, p_chart, osculating_directions(M, p_chart, tol))
    p_amb = M.chart_eval(p_chart)
    n = M.n
    size = k * n
    rows = (n - M.m) * target_order + 1

    def system(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Residuals (..., rows) of coefficient vectors flat (..., k*n), and
        their Jacobians (..., rows, k*n)."""
        batch = flat.shape[:-1]
        c = flat.reshape(batch + (k, n))
        base = np.broadcast_to(p_amb, batch + (1, n))
        curves = PolyCurve(np.concatenate([base, c], axis=-2), p_chart)
        coeffs, P = residual_jets(M, curves, target_order, tol, linearize=True)
        F = np.empty(batch + (rows,))
        F[..., :-1] = coeffs[..., 1:].reshape(batch + (-1,))
        F[..., -1] = np.einsum("...i,...i->...", c[..., 0, :], c[..., 0, :]) - 1.0
        J = np.zeros(batch + (rows, size))
        block = J[..., :-1, :].reshape(batch + (n - M.m, target_order, k, n))  # a view
        for j in range(1, min(k, target_order) + 1):     # c_j moves orders >= j only
            block[..., j - 1:, j - 1, :] = np.swapaxes(P[..., :target_order - j + 1], -1, -2)
        J[..., -1, :n] = 2.0 * c[..., 0, :]
        return F, J

    def converged(F: np.ndarray) -> np.ndarray:
        # absolute, so never looser than the contact check's
        # contact_coeff * max(1 + |G_0|, max|c|): an accepted curve meets the order
        return ((np.max(np.abs(F[..., :-1]), axis=-1) <= tol.contact_coeff)
                & (np.abs(F[..., -1]) <= 1e-9))

    rng = np.random.default_rng(seed)
    flat = rng.standard_normal((FIT_STARTS, k, n))
    for c in flat:
        c[0] /= np.linalg.norm(c[0])
    flat = flat.reshape(FIT_STARTS, size)
    F, J = system(flat)
    f2 = np.einsum("ij,ij->i", F, F)
    steps = 0.5 ** np.arange(-1, 25)   # 2, 1, 1/2, ..., 2^-24 times delta
    winner = FIT_STARTS                # lowest-index start that converged, once one has
    for live in (np.arange(1), np.arange(1, FIT_STARTS)):   # start 0, then the rest
        for _ in range(80):            # a start ends failed after 80 steps
            done = converged(F[live])
            if done.any():
                winner = live[done][0]
            live = live[~done & (live < winner)]
            # gtol, squared: a start moves on while some column has
            # |J_j^T F| > FIT_GTOL |J_j| |F|; the others end as failed
            Jl = J[live]
            g = np.einsum("srj,sr->sj", Jl, F[live])
            cols = np.einsum("srj,srj->sj", Jl, Jl)
            moving = (g * g > FIT_GTOL ** 2 * cols * f2[live, None]).any(axis=1)
            live, Jl = live[moving], Jl[moving]
            if live.size == 0:
                break
            delta = -(np.linalg.pinv(Jl) @ F[live, :, None])[..., 0]
            cand = flat[live, None, :] + steps[:, None] * delta[:, None, :]
            Fc, Jc = system(cand)
            fc2 = np.einsum("sjr,sjr->sj", Fc, Fc)
            better = fc2 < f2[live, None]
            better[:, 0] = converged(Fc[:, 0])   # 2 delta only where it finishes the start
            hit = better.any(axis=1)
            live = live[hit]           # a start whose line search fails ends
            pick = np.flatnonzero(hit), np.argmax(better[hit], axis=1)
            flat[live], F[live], J[live], f2[live] = cand[pick], Fc[pick], Jc[pick], fc2[pick]
        if winner < FIT_STARTS:
            break
    if winner == FIT_STARTS:
        return None
    return PolyCurve(np.vstack([p_amb, flat[winner].reshape(k, n)]), p_chart)


# ---------------------------------------------------------------------------
# containment of a curve family


class RuledWitness(NamedTuple):
    chart: np.ndarray
    s: float
    point: np.ndarray
    distance: float


class RuledVerdict(NamedTuple):
    verdict: str  # CONTAINED | NOT_CONTAINED | UNDECIDED
    max_distance: float | None
    tolerance: float
    counted: int
    skipped: int
    witness: RuledWitness | None
    per_sample: list


RULED_PARAMS = 64      # curve parameters per sample, evenly over [-S, S]


def ruledness_points(M: Submanifold, curve_provider, span: float,
                     samples_per_axis: int = 3, margin: float = 0.15):
    """(X, svals, pts): the chart samples M.grid(samples_per_axis, margin),
    the RULED_PARAMS curve parameters evenly over [-span, span], and the
    points (len(X) * RULED_PARAMS, n) of each sample's curve at them, the
    rows that ruledness_check tests: curve_provider(X), a curve stack or one
    curve for every sample, evaluated at all of svals in one call."""
    X = M.grid(samples_per_axis, margin=margin)
    svals = np.linspace(-span, span, RULED_PARAMS)
    pts = np.broadcast_to(curve_provider(X)(svals), (len(X), RULED_PARAMS, M.n))
    return X, svals, pts.reshape(-1, M.n)


def ruledness_check(M: Submanifold, curve_provider, span: float, *, tube: float,
                    probe: Callable[[], float] | None = None,
                    samples_per_axis: int = 3, margin: float = 0.15,
                    tol=_TOL) -> RuledVerdict:
    """Max distance of the curves curve_provider(X) to M over [-span, span].

    The distances and their eligibility are M.distances settled at the
    ruled tolerance, each sample followed from its curve's chart point; a
    graph's sample beyond it reads a foot certified by M's reach bound, or
    else its projection. A settled residual, a certified foot and a
    projected foot are all distances to a point of M, so each bounds the
    sample's distance from above. An
    eligible sample counts within the larger of the tube radius `tube` and
    the tolerance, so a sample within the tolerance counts whatever the
    tube. Ineligible samples (ambiguous projections and feet on the box
    edge, truncation artifacts) and those beyond that radius are excluded;
    if every sample is excluded the verdict is UNDECIDED.

    With `probe`, a zero-argument callable that returns a probed tube radius
    (ruledness_record passes Submanifold.tube_radius), `tube` is a certified
    radius, and the probe runs only when some converged, unambiguous sample
    off the box edge lies beyond both; samples then count within the
    largest of the three. Whatever the probe raises (NoConvergence from the
    search) is raised only then.
    """
    X, svals, pts = ruledness_points(M, curve_provider, span, samples_per_axis, margin)
    scene_scale = float(np.max(np.linalg.norm(M.embed_many(X), axis=1)))
    tolerance = tol.ruled * (1.0 + scene_scale)
    distance, eligible = M.distances(pts, tolerance, np.repeat(X, RULED_PARAMS, axis=0))
    radius = max(tube, tolerance)
    if probe is not None and np.any(eligible & (distance > radius)):
        radius = max(radius, probe())
    valid = eligible & (distance <= radius)
    counted = int(np.count_nonzero(valid))
    skipped = int(valid.size - counted)
    per_sample = [{"x": x.tolist(), "counted": int(np.count_nonzero(v)),
                   "max_distance": float(np.max(d[v])) if np.any(v) else None}
                  for x, v, d in zip(X, valid.reshape(len(X), -1),
                                     distance.reshape(len(X), -1))]
    if counted == 0:
        return RuledVerdict("UNDECIDED", None, tolerance, 0, skipped, None, per_sample)
    dmax_idx = int(np.argmax(np.where(valid, distance, -np.inf)))
    dmax = float(distance[dmax_idx])
    witness = RuledWitness(
        chart=X[dmax_idx // RULED_PARAMS],
        s=float(svals[dmax_idx % RULED_PARAMS]),
        point=pts[dmax_idx],
        distance=dmax,
    )
    verdict = "CONTAINED" if dmax <= tolerance else "NOT_CONTAINED"
    return RuledVerdict(verdict, dmax, tolerance, counted, skipped,
                        None if verdict == "CONTAINED" else witness, per_sample)


# ---------------------------------------------------------------------------
# step records: the growth and ruledness entries of the report, which
# `osclab exponent` and `osclab ruled` print as well


def _growth_grid(params: RunParams) -> np.ndarray:
    """The run's t-grid, which the growth fit needs at least 5 values of."""
    ts = params.t_grid()
    if len(ts) < 5:
        raise SceneError("/params/t_steps",
                         f"the growth fit needs at least 5 t values, got {len(ts)}")
    return ts


def growth_record(family: SweepFamily, params: RunParams) -> dict:
    """Volume series over the run's t-grid and its log-log growth fit."""
    series = volume_series(family, _growth_grid(params), params.quad)
    fit = growth_exponent(series, params.tol)
    return {
        "t": [s.t for s in series],
        "vol": [s.value for s in series],
        "err": [s.error for s in series],
        "identically_zero": fit.identically_zero,
        "slope": fit.slope,
        "intercept": fit.intercept,
        "residual": fit.residual,
    }


def ruledness_record(M: Submanifold, family: SweepFamily,
                     params: RunParams) -> tuple[dict, RuledVerdict]:
    """Finite-window containment within the ruled tolerance of M.

    A sample that the chart follower settles within the ruled tolerance
    counts unprojected where its chart point lies in the box off the edge
    band, and a graph's sample settled off the box is excluded unprojected
    (see ruledness_check and Submanifold.distances). A graph's other
    samples descend from their vertical foot, and those whose foot lies
    within M.reach_bound() are certified, unprojected; the rest are
    projected. Both count inside a tube: r_cert = min(rho_max,
    M.reach_bound()), with rho_max the run's tube_rho_max (default
    M.half_side), the certified reach bound of a graph chart, evaluated
    once per manifold and shared with distances, and 0 for a parametric
    one. Certified and projected samples within max(r_cert, ruled
    tolerance) count. The probed tube_radius search runs only when such a
    sample that would otherwise count lies beyond both, and samples then
    count within the largest of the three, so a search that raises
    NoConvergence fails the step only when its radius is needed."""
    rho_max = M.half_side if params.tube_rho_max is None else params.tube_rho_max
    rv = ruledness_check(M, family.curve_at, params.span,
                         tube=min(rho_max, M.reach_bound()),
                         probe=lambda: M.tube_radius(rho_max=rho_max),
                         samples_per_axis=params.samples,
                         margin=params.margin, tol=params.tol)
    record = {
        "verdict": rv.verdict,
        "max_distance": rv.max_distance,
        "tolerance": rv.tolerance,
        "counted": rv.counted,
        "skipped": rv.skipped,
        "witness": None if rv.witness is None else {
            "x": rv.witness.chart.tolist(),
            "s": rv.witness.s,
            "distance": rv.witness.distance,
        },
    }
    return record, rv


# ---------------------------------------------------------------------------
# full pipeline


@dataclass
class VerdictReport:
    scene: str
    k: int
    m: int
    n: int
    required_order: int
    seed: int
    samples: list
    steps: dict = field(default_factory=dict)
    verdict: str = ""
    first_failure: dict | None = None
    note: str = FINITE_WINDOW_NOTE
    config: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """The fields by name; their values are plain data, shared uncopied."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def verify_theorem(scene, seed: int = 0) -> VerdictReport:
    """Pipeline: osculation hypothesis, growth bound, coefficient vanishing,
    tangency flow, finite-window containment.

    A scene without a family runs step 1 on fitted class-k curves; when
    they osculate, SceneError is raised, since steps 2-5 need the family.
    A NumericalError is recorded at the step, or the sample, that raises it.
    """
    M: Submanifold = scene.manifold
    family: SweepFamily | None = scene.family
    params: RunParams = scene.params
    tol = params.tol
    k = scene.k
    required = k * (M.m + 1)
    max_order = max_contact_order(k, M.m)
    X = M.grid(params.samples, margin=params.margin)
    if family is not None:
        _growth_grid(params)  # a grid too short for step 2 fails before step 1

    report = VerdictReport(
        scene=scene.name, k=k, m=M.m, n=M.n, required_order=required,
        seed=seed, samples=[x.tolist() for x in X],
        config=scene.config_dict(),
    )

    # step 1: osculation hypothesis at every sample. A surface in R^3 at
    # k = 1 takes the osculating directions of all samples from one stacked
    # call, before any fit, and a family-less one reads its lines from them;
    # its other fits run one per sample. The contact orders of all curves
    # come from one stacked call: a curve off M is recorded and the rest run
    # again without it, and any other numerical error fails them all.
    osc_records = [{"x": x.tolist()} for x in X]

    def fail(i, order, detail):
        osc_records[i].update({"order": order, "met": False, "detail": detail})

    lines_in_closed_form = (M.m, M.n, k) == (2, 3, 1)
    directions, direction_error = [None] * len(X), None
    if lines_in_closed_form:
        try:
            directions = osculating_directions(M, X, tol)
        except NumericalError as err:
            direction_error = str(err)
    fits = {}
    if family is None:
        for i, x in enumerate(X):
            if direction_error is not None:
                fail(i, "error", direction_error)
                continue
            try:
                fits[i] = (_osculating_line(M, x, directions[i]) if lines_in_closed_form
                           else fit_class_k_curve(M, x, k, required, seed=seed, tol=tol))
                if fits[i] is None:
                    fail(i, "none", "no class-k curve reached the target order")
            except NumericalError as err:
                fail(i, "error", str(err))
    rows = [i for i, rec in enumerate(osc_records) if "met" not in rec]
    while rows:
        try:
            curves = (family.curve_at(X[rows]) if family is not None else
                      PolyCurve(np.stack([fits[i].coeffs for i in rows]), X[rows]))
            orders = contact_order_jet_recharted(curves, M, max_order, tol)
        except NotOnManifold as err:
            fail(rows.pop(err.row), "error", str(err))
            continue
        except NumericalError as err:     # names no row: the whole stack fails
            for i in rows:
                fail(i, "error", str(err))
            break
        for i, order in zip(rows, orders):
            osc_records[i].update({"order": str(order), "met": order.meets(required)})
        break
    if lines_in_closed_form:
        for rec, dirs in zip(osc_records, directions):
            rec["osculating_directions"] = None if dirs is None else [
                {"chart": d.chart.tolist(), "ambient": d.ambient.tolist(),
                 "cubic_residual": d.cubic_residual, "jet_order": str(d.jet_order)}
                for d in dirs]
    first_bad = next((i for i, rec in enumerate(osc_records) if not rec["met"]), None)
    hypothesis_met = first_bad is None
    report.steps["osculation"] = {
        "required_order": required,
        "records": osc_records,
        "hypothesis_met": hypothesis_met,
    }
    if not hypothesis_met:
        report.verdict = "HYPOTHESIS_FAILS"
        report.first_failure = {
            "step": "osculation",
            "sample_index": first_bad,
            "sample": X[first_bad].tolist(),
            "detail": osc_records[first_bad],
        }
        return report
    if family is None:
        raise SceneError("/family", "steps 2-5 (growth, vanishing, flow, "
                         "ruledness) need a sweep family")

    # steps 2-5 each give (record, failure detail); the record says "passed"
    def growth():
        # growth exponent consistent with o(t^required)
        record = growth_record(family, params)
        record["passed"] = (record["identically_zero"]
                            or record["slope"] > required + 0.5)
        return record, f"slope {record['slope']} not above {required + 0.5}"

    def vanishing():
        vv = vanishing_verdict(family, params.samples, params.margin, tol)
        witness = None if vv.witness is None else {
            "x": vv.witness.x.tolist(),
            "component": vv.witness.component,
            "index": vv.witness.index,
            "value": vv.witness.value,
        }
        return {"verdict": vv.label, "scale": vv.scale, "max_coeff": vv.max_coeff,
                "min_index": vv.min_index, "witness": witness,
                "passed": vv.vanishes}, witness

    def flow():
        # tangency flow at three interior samples, run as one batch
        starts = X[sorted({0, X.shape[0] // 2, X.shape[0] - 1})]
        try:
            reports = tangency_flow_check(family, starts, params.tspan, tol=tol)
            errors = [fr.error for fr in reports]
        except NumericalError as err:
            reports, errors = [None] * len(starts), [err] * len(starts)
        records = []
        for x, fr, err in zip(starts, reports, errors):
            if err is None:
                records.append({"x": x.tolist(), "max_drift": fr.max_drift,
                                "max_residual": fr.max_residual,
                                "steps": fr.steps,
                                "error_estimate": fr.error_estimate,
                                "passed": fr.passed})
            else:
                records.append({"x": x.tolist(), "passed": False,
                                "error": str(err)})
        return {"records": records,
                "passed": all(r["passed"] for r in records)}, records

    def ruledness():
        record, rv = ruledness_record(M, family, params)
        record["passed"] = rv.verdict == "CONTAINED"
        return record, record

    for name, step in (("growth", growth), ("vanishing", vanishing),
                       ("flow", flow), ("ruledness", ruledness)):
        try:
            record, detail = step()
        except NumericalError as err:
            record, detail = {"passed": False, "error": str(err)}, str(err)
        report.steps[name] = record
        if not record["passed"]:
            report.verdict = "HYPOTHESIS_FAILS"
            report.first_failure = {"step": name, "detail": detail}
            return report

    report.verdict = "THEOREM_CONFIRMED"
    return report
