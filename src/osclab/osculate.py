"""Osculating direction solving, class-k curve fitting, containment of
curve families, and the end-to-end ruled-submanifold verdict pipeline.

A tangent direction on a surface in R^3 osculates to order >= 3 exactly
when the quadratic and cubic terms of the normal residual along it both
vanish. Both forms are recovered by polarization from residual jets of
probe lines, so graphs and (re-charted) parametric surfaces run through
the same code path.

The global containment conclusion of the underlying theorem relies on
analytic continuation, which numerics cannot perform: every verdict here
is a finite-window statement, containment over a finite parameter span
inside the certified tube radius, and the reports say so explicitly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .config import RunParams, Tolerances
from .contact import (
    ContactError,
    ContactOrder,
    PolyCurve,
    NonGraphChart,
    contact_order_jet_recharted,
    residual_jets,
)
from .manifold import ManifoldError, Submanifold
from .scene import SceneError
from .sweep import (
    SweepError,
    SweepFamily,
    growth_exponent,
    tangency_flow_check,
    vanishing_verdict,
    volume_series,
)

_TOL = Tolerances()

FINITE_WINDOW_NOTE = (
    "containment is verified on a finite parameter window inside the "
    "certified tube radius; no analytic continuation is performed"
)


# ---------------------------------------------------------------------------
# osculating directions (order-3 lines on surfaces in R^3)


@dataclass(frozen=True)
class OscDirection:
    chart: np.ndarray     # coefficients in the tangent basis
    ambient: np.ndarray   # unit tangent vector in R^n
    cubic_residual: float
    jet_order: ContactOrder


def _probe_residual(M: Submanifold, p_amb, basis, v, degree=3, tol=_TOL):
    w = v[0] * basis[:, 0] + v[1] * basis[:, 1]
    line = PolyCurve(np.stack([p_amb, w]))
    coeffs, _ = residual_jets(M, line, degree, tol)
    return float(coeffs[0, 2]), float(coeffs[0, 3])


def _normalize_direction(v: np.ndarray) -> np.ndarray:
    v = v / np.linalg.norm(v)
    lead = v[np.nonzero(np.abs(v) > 1e-12)[0][0]]
    return -v if lead < 0 else v


def osculating_directions(M: Submanifold, p_chart, tol=_TOL) -> list[OscDirection]:
    """Unit tangent directions at p with line contact order >= 3, or [].

    A definite quadratic form yields the empty list; a degenerate (zero)
    quadratic passes every direction to the cubic stage, and if the cubic
    degenerates too the two basis representatives stand in for the whole
    projective line of solutions.
    """
    if M.m != 2 or M.n != 3:
        raise ValueError("osculating directions need a surface in R^3")
    p_chart = np.asarray(p_chart, dtype=float)
    p_amb = M.chart_eval(p_chart)
    basis = M.jacobian(p_chart)  # tangent basis: chart coordinate directions

    c2 = {}
    c3 = {}
    for v in [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0)]:
        c2[v], c3[v] = _probe_residual(M, p_amb, basis, v, tol=tol)
    qa, qc = c2[(1.0, 0.0)], c2[(0.0, 1.0)]
    qb = c2[(1.0, 1.0)] - qa - qc
    ka, kg = c3[(1.0, 0.0)], c3[(0.0, 1.0)]
    s1, s2 = c3[(1.0, 1.0)], c3[(1.0, -1.0)]
    ke = 0.5 * (s1 - s2) - kg
    kf = 0.5 * (s1 + s2) - ka

    def cubic(a, b):
        return ka * a**3 + ke * a**2 * b + kf * a * b**2 + kg * b**3

    ref = max(1.0, abs(qa), abs(qb), abs(qc), abs(ka), abs(ke), abs(kf), abs(kg))
    qtol = 1e-12 * ref

    roots: list[np.ndarray] = []
    if max(abs(qa), abs(qb), abs(qc)) <= qtol:
        # degenerate second fundamental form: cubic decides alone
        if max(abs(ka), abs(ke), abs(kf), abs(kg)) <= qtol:
            roots = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        else:
            if abs(ka) > qtol:
                for r in np.roots([ka, ke, kf, kg]):
                    if abs(r.imag) <= 1e-8 * (1.0 + abs(r.real)):
                        roots.append(np.array([r.real, 1.0]))
            else:
                roots.append(np.array([1.0, 0.0]))
                for r in np.roots([ke, kf, kg]) if abs(ke) > qtol else []:
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

    out: list[OscDirection] = []
    for root in roots:
        v = _normalize_direction(root)
        if any(abs(float(np.dot(v, d.chart))) >= 1.0 - 1e-9 for d in out):
            continue
        resid = abs(cubic(v[0], v[1]))
        if resid > tol.cubic_residual * ref:
            continue
        ambient = _normalize_direction(v[0] * basis[:, 0] + v[1] * basis[:, 1])
        line = PolyCurve(np.stack([p_amb, v[0] * basis[:, 0] + v[1] * basis[:, 1]]))
        order = contact_order_jet_recharted(line, M, max_order=5, tol=tol)
        out.append(OscDirection(chart=v, ambient=ambient,
                                cubic_residual=resid, jet_order=order))
    out.sort(key=lambda d: (round(d.chart[0], 12), round(d.chart[1], 12)))
    return out


# ---------------------------------------------------------------------------
# class-k curve fitting


def fit_class_k_curve(M: Submanifold, p_chart, k: int, target_order: int,
                      starts: int = 32, seed: int = 0, tol=_TOL):
    """Damped Gauss-Newton for coefficients c_1..c_k with residual jet
    coefficients of orders 1..target_order all vanishing; returns a
    PolyCurve with unit-normalized velocity, or None.

    Every start runs the same iteration it would run alone: a
    central-difference Jacobian, a least-squares step, and a line search
    that takes the first of 25 halvings to lower |F|^2; a start ends when it
    converges, when its line search fails, or after 80 steps. The starts run
    in lockstep, so each step evaluates residual jets twice for all live
    starts at once (the Jacobian probes and the line-search candidates) as
    batched PolyCurves. The result is the curve of the lowest-index start
    that converges with speed >= min_speed, returned once every lower-index
    start has ended; higher-index starts are dropped as soon as one
    converges.
    """
    if M.kind != "graph":
        raise NonGraphChart("class-k fitting expects a graph chart")
    p_chart = np.asarray(p_chart, dtype=float)
    p_amb = M.chart_eval(p_chart)
    n = M.n
    size = k * n

    def system(flat: np.ndarray) -> np.ndarray:
        """Residuals (..., rows) of coefficient vectors flat (..., k*n)."""
        c = flat.reshape(flat.shape[:-1] + (k, n))
        base = np.broadcast_to(p_amb, c.shape[:-2] + (1, n))
        coeffs, _ = residual_jets(M, PolyCurve(np.concatenate([base, c], axis=-2)),
                                  target_order, tol)
        res = coeffs[..., 1 : target_order + 1].reshape(flat.shape[:-1] + (-1,))
        speed = np.einsum("...i,...i->...", c[..., 0, :], c[..., 0, :]) - 1.0
        return np.concatenate([res, speed[..., None]], axis=-1)

    def jacobians(flat: np.ndarray) -> np.ndarray:
        """Central-difference Jacobians (live, rows, k*n), all probes in one call."""
        h = 1e-7 * (1.0 + np.abs(flat))
        step = h[:, None, :] * np.eye(size)              # probe i moves coordinate i
        probes = flat[:, None, None, :] + np.stack([step, -step], axis=1)
        F = system(probes)                               # (live, 2, k*n, rows)
        return np.swapaxes((F[:, 0] - F[:, 1]) / (2 * h[:, :, None]), -1, -2)

    rng = np.random.default_rng(seed)
    flat = rng.standard_normal((starts, k, n))
    for c in flat:
        c[0] /= np.linalg.norm(c[0])
    flat = flat.reshape(starts, size)
    F = system(flat)
    f2 = np.einsum("ij,ij->i", F, F)
    halvings = 0.5 ** np.arange(25)
    live = np.arange(starts)       # starts still iterating, in index order
    winner = None                  # lowest-index start that converged
    for _ in range(80):
        # absolute, so never looser than the contact check's
        # contact_coeff * max(1, max|c|): an accepted curve meets the order
        done = ((np.max(np.abs(F[live, :-1]), axis=1) <= tol.contact_coeff)
                & (np.abs(F[live, -1]) <= 1e-9))
        found = done & (np.linalg.norm(flat[live, :n], axis=1) >= tol.min_speed)
        if found.any():
            winner = live[found][0]
        live = live[~done & (live < (starts if winner is None else winner))]
        if live.size == 0:
            break
        J = jacobians(flat[live])
        delta = np.stack([np.linalg.lstsq(J[i], -F[s], rcond=None)[0]
                          for i, s in enumerate(live)])
        cand = flat[live, None, :] + halvings[:, None] * delta[:, None, :]
        Fc = system(cand)                                # (live, 25, rows)
        fc2 = np.einsum("sjr,sjr->sj", Fc, Fc)
        better = fc2 < f2[live, None]
        moved = better.any(axis=1)       # a start whose line search fails ends
        hit, first = np.nonzero(moved)[0], np.argmax(better, axis=1)[moved]
        live = live[moved]
        flat[live], F[live], f2[live] = cand[hit, first], Fc[hit, first], fc2[hit, first]
    if winner is None:
        return None
    return PolyCurve(np.vstack([p_amb, flat[winner].reshape(k, n)]))


# ---------------------------------------------------------------------------
# containment of a curve family


@dataclass(frozen=True)
class RuledWitness:
    chart: np.ndarray
    s: float
    point: np.ndarray
    distance: float


@dataclass(frozen=True)
class RuledVerdict:
    verdict: str  # CONTAINED | NOT_CONTAINED | UNDECIDED
    max_distance: float | None
    tolerance: float
    counted: int
    skipped: int
    witness: RuledWitness | None
    per_sample: list


def ruledness_check(M: Submanifold, curve_provider, span: float,
                    samples_per_axis: int = 3, n_params: int = 64,
                    margin: float = 0.15, tube: float | None = None,
                    tol=_TOL) -> RuledVerdict:
    """Max distance of the curves Gamma_x to M over parameters in [-S, S].

    Curve samples outside the tube, with ambiguous projections, or whose
    feet land on the box edge (truncation artifacts) are excluded; if every
    sample is excluded the verdict is UNDECIDED.
    """
    X = M.grid(samples_per_axis, margin=margin)
    rho = M.tube_radius() if tube is None else tube
    scene_scale = float(np.max(np.linalg.norm(M.embed_many(X), axis=1)))
    svals = np.linspace(-span, span, n_params)
    pts = np.concatenate(
        [np.atleast_2d(curve_provider(x)(svals)) for x in X], axis=0)
    b = M.project_batch(pts)
    valid = b.converged & ~b.ambiguous & (b.distance <= rho) & ~b.on_boundary
    counted = int(np.count_nonzero(valid))
    skipped = int(valid.size - counted)
    per_sample = []
    for i in range(X.shape[0]):
        sl = valid[i * n_params : (i + 1) * n_params]
        dl = b.distance[i * n_params : (i + 1) * n_params]
        per_sample.append({
            "x": X[i].tolist(),
            "counted": int(np.count_nonzero(sl)),
            "max_distance": float(np.max(dl[sl])) if np.any(sl) else None,
        })
    if counted == 0:
        return RuledVerdict("UNDECIDED", None, tol.ruled * (1.0 + scene_scale),
                            0, skipped, None, per_sample)
    dmax_idx = int(np.argmax(np.where(valid, b.distance, -np.inf)))
    dmax = float(b.distance[dmax_idx])
    tolerance = tol.ruled * (1.0 + scene_scale)
    witness = RuledWitness(
        chart=X[dmax_idx // n_params],
        s=float(svals[dmax_idx % n_params]),
        point=pts[dmax_idx],
        distance=dmax,
    )
    verdict = "CONTAINED" if dmax <= tolerance else "NOT_CONTAINED"
    return RuledVerdict(verdict, dmax, tolerance, counted, skipped,
                        None if verdict == "CONTAINED" else witness, per_sample)


# ---------------------------------------------------------------------------
# step records: the growth and ruledness entries of the report, which
# `osclab exponent` and `osclab ruled` print as well


def growth_record(family: SweepFamily, params: RunParams) -> dict:
    """Volume series over the run's t-grid and its log-log growth fit."""
    ts = params.t_grid()
    if len(ts) < 5:
        raise SceneError("/params/t_steps",
                         f"the growth fit needs at least 5 t values, got {len(ts)}")
    series = volume_series(family, ts, params.quad)
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
    """Finite-window containment inside the certified tube radius."""
    tube = M.tube_radius(rho_max=params.tube_rho_max)
    rv = ruledness_check(M, family.curve_at, params.span,
                         samples_per_axis=params.samples,
                         margin=params.margin, tube=tube, tol=params.tol)
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
        return asdict(self)


def verify_theorem(scene, seed: int = 0) -> VerdictReport:
    """Pipeline: osculation hypothesis, growth bound, coefficient vanishing,
    tangency flow, finite-window containment.

    A scene without a family runs step 1 on fitted class-k curves; when
    they osculate, SceneError is raised, since steps 2-5 need the family.
    """
    M: Submanifold = scene.manifold
    family: SweepFamily | None = scene.family
    params: RunParams = scene.params
    tol = params.tol
    k = family.k if family is not None else scene.k
    required = k * (M.m + 1)
    max_order = required + 2
    X = M.grid(params.samples, margin=params.margin)

    report = VerdictReport(
        scene=scene.name, k=k, m=M.m, n=M.n, required_order=required,
        seed=seed, samples=[x.tolist() for x in X],
        config=scene.config_dict(),
    )

    # step 1: osculation hypothesis at every sample
    osc_records = []
    first_bad = None
    for i, x in enumerate(X):
        rec = {"x": x.tolist()}
        try:
            if family is not None:
                curve = family.curve_at(x)
            else:
                curve = fit_class_k_curve(M, x, k, required, seed=seed, tol=tol)
            if curve is None:
                rec.update({"order": "none", "met": False,
                            "detail": "no class-k curve reached the target order"})
            else:
                order = contact_order_jet_recharted(curve, M, max_order, tol)
                rec.update({"order": str(order), "met": order.meets(required)})
        except (ContactError, ManifoldError) as err:
            rec.update({"order": "error", "met": False, "detail": str(err)})
        if M.m == 2 and M.n == 3 and k == 1:
            try:
                dirs = osculating_directions(M, x, tol)
                rec["osculating_directions"] = [
                    {"chart": d.chart.tolist(), "ambient": d.ambient.tolist(),
                     "cubic_residual": d.cubic_residual,
                     "jet_order": str(d.jet_order)}
                    for d in dirs
                ]
            except (ContactError, ManifoldError, ValueError):
                rec["osculating_directions"] = None
        osc_records.append(rec)
        if not rec["met"] and first_bad is None:
            first_bad = i
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
    vv = None

    def growth():
        # growth exponent consistent with o(t^required)
        record = growth_record(family, params)
        record["passed"] = (record["identically_zero"]
                            or record["slope"] > required + 0.5)
        return record, f"slope {record['slope']} not above {required + 0.5}"

    def vanishing():
        nonlocal vv
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
            reports = tangency_flow_check(family, starts, params.tspan,
                                          verdict=vv, tol=tol)
            errors = [fr.error for fr in reports]
        except (SweepError, ManifoldError) as err:
            reports, errors = [None] * len(starts), [err] * len(starts)
        records = []
        for x, fr, err in zip(starts, reports, errors):
            if err is None:
                records.append({"x": x.tolist(), "max_drift": fr.max_drift,
                                "max_residual": fr.max_residual,
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
        except (SweepError, ManifoldError) as err:
            record, detail = {"passed": False, "error": str(err)}, str(err)
        report.steps[name] = record
        if not record["passed"]:
            report.verdict = "HYPOTHESIS_FAILS"
            report.first_failure = {"step": name, "detail": detail}
            return report

    report.verdict = "THEOREM_CONFIRMED"
    return report
