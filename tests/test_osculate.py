import dataclasses
import json

import numpy as np
import pytest

from osclab import cli, contact, corpus, manifold, osculate, sweep
from osclab import expr as ex
from osclab.contact import (
    PolyCurve,
    contact_order_jet_recharted,
    residual_jets,
)
from osclab.manifold import PROJECT_DIST_TOL, NoConvergence, Submanifold
from osclab.osculate import (
    FINITE_WINDOW_NOTE,
    RULED_PARAMS,
    fit_class_k_curve,
    osculating_directions,
    ruledness_check,
    ruledness_points,
)
from osclab.config import Tolerances, geometric_grid
from osclab.scene import SceneError, build_scene
from osclab.sweep import SweepFamily
from oracles import (
    CERTIFIED_ULPS,
    assert_certified_like_projection,
    rows_in,
    ruledness_by_projection,
    sequential_class_k_fit,
)


def _chart_set(dirs):
    return sorted(tuple(np.round(d.chart, 6)) for d in dirs)


def test_rulings_of_xy_graph():
    hp = corpus.load("hyperbolic_paraboloid")
    for p in ([0.0, 0.0], [0.3, -0.4], [-0.5, 0.2]):
        dirs = osculating_directions(hp.manifold, p)
        assert _chart_set(dirs) == [(0.0, 1.0), (1.0, 0.0)]
        assert all(d.jet_order.saturated for d in dirs)
        assert all(d.cubic_residual <= 1e-9 for d in dirs)


def test_sphere_has_no_osculating_directions():
    sphere = corpus.load("sphere")
    assert osculating_directions(sphere.manifold, [0.1, 0.1]) == []


@pytest.mark.parametrize("chart_vars, heights", [
    (["x"], ["x^2"]),                   # a curve in R^2
    (["x", "y"], ["x*y", "x + y^2"]),   # a surface in R^4
    (["x", "y", "z"], ["x*y + z"]),     # a 3-fold in R^4
])
def test_osculating_directions_need_a_surface_in_r3(chart_vars, heights):
    M = Submanifold.graph(chart_vars, [[-1, 1]] * len(chart_vars), heights)
    with pytest.raises(ValueError, match="^osculating directions need a surface in R\\^3$"):
        osculating_directions(M, np.zeros(M.m))


def test_saddle_diagonals():
    # binary quadratic 2a^2 - 2b^2 = 0 has the projective roots a = +-b
    saddle = corpus.load("saddle")
    dirs = osculating_directions(saddle.manifold, [0.0, 0.0])
    r = 1.0 / np.sqrt(2.0)
    assert _chart_set(dirs) == [(round(r, 6), round(-r, 6)),
                                (round(r, 6), round(r, 6))]


def test_cubic_graph_no_order_three_direction():
    cubic = corpus.load("cubic_graph")
    assert osculating_directions(cubic.manifold, [0.2, 0.5]) == []


@pytest.mark.parametrize("height, count", [("x*y^2", 2), ("y^3", 1), ("x^3 - 3*x*y^2", 3)])
def test_flat_point_directions_from_the_cubic_alone(height, count):
    """Zero second fundamental form at the origin: the cubic's real roots
    are the directions, here the lines through 0 in the surface, also when
    its leading coefficients vanish (x*y^2: both axes)."""
    M = Submanifold.graph(["x", "y"], [[-1, 1], [-1, 1]], [height])
    dirs = osculating_directions(M, [0.0, 0.0])
    assert len(dirs) == count
    assert all(d.jet_order.order >= 5 for d in dirs)


def test_directions_rotation_invariant():
    # same surface, ambient frame rotated: directions must match as
    # projective classes after rotation
    angle = 0.35
    c, s = np.cos(angle), np.sin(angle)
    R = np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])
    rows = []
    for i in range(3):
        rows.append(f"{float(R[i, 0])!r}*x + {float(R[i, 1])!r}*y"
                    f" + {float(R[i, 2])!r}*(x*y)")
    rotated = Submanifold.parametric(["x", "y"], [[-1, 1], [-1, 1]], rows, 3)
    hp = corpus.load("hyperbolic_paraboloid")

    base = osculating_directions(hp.manifold, [0.3, -0.4])
    rot = osculating_directions(rotated, [0.3, -0.4])
    assert len(rot) == len(base) == 2
    expected = [R @ d.ambient for d in base]
    for d in rot:
        best = max(abs(float(np.dot(d.ambient, e))) for e in expected)
        assert best >= 1.0 - 1e-8


def _direction_surfaces():
    """Every corpus surface in R^3 and the three flat-point graphs above."""
    out = [(name, corpus.load(name).manifold) for name in corpus.names()]
    out = [(name, M) for name, M in out if (M.m, M.n) == (2, 3)]
    return out + [(h, Submanifold.graph(["x", "y"], [[-1, 1], [-1, 1]], [h]))
                  for h in ("x*y^2", "y^3", "x^3 - 3*x*y^2")]


def test_stacked_directions_equal_per_point_calls():
    # a stack of points gives, bit for bit, what each point gives alone:
    # 250 samples, on a 3 x 3 grid inside the box and a 4 x 4 grid with
    # its edges, of surfaces with 0, 1, 2 and 3 directions per point
    count = 0
    for name, M in _direction_surfaces():
        for X in (M.grid(3, margin=0.15), M.grid(4)):
            stacked = osculating_directions(M, X)
            assert len(stacked) == len(X)
            for x, dirs in zip(X, stacked):
                alone = osculating_directions(M, x)
                assert len(dirs) == len(alone), (name, x)
                for d, e in zip(dirs, alone):
                    assert np.array_equal(d.chart, e.chart), (name, x)
                    assert np.array_equal(d.ambient, e.ambient), (name, x)
                    assert d.cubic_residual == e.cubic_residual, (name, x)
                    assert np.array_equal(d.jet_order.coeffs,
                                          e.jet_order.coeffs), (name, x)
                count += 1
    assert count == 250


def test_step_one_makes_two_residual_calls_per_scene(monkeypatch):
    # osculating_directions takes all samples of a scene in one call: one
    # stacked residual_jets call for the probe lines and one for the kept
    # lines. With the contact orders' one call per scene, a corpus pass
    # makes 20 calls.
    state, calls = {"scene": None, "inside": False}, []
    real_residual_jets = contact.residual_jets
    real_directions = osculate.osculating_directions

    def residual_spy(*args, **kwargs):
        calls.append((state["scene"], state["inside"]))
        return real_residual_jets(*args, **kwargs)

    def directions_spy(*args, **kwargs):
        state["inside"] = True
        try:
            return real_directions(*args, **kwargs)
        finally:
            state["inside"] = False

    monkeypatch.setattr(contact, "residual_jets", residual_spy)
    monkeypatch.setattr(osculate, "residual_jets", residual_spy)
    monkeypatch.setattr(osculate, "osculating_directions", directions_spy)
    for name in corpus.names():
        state["scene"] = name
        osculate.verify_theorem(corpus.load(name), seed=0)
    assert len(calls) == 20
    from_directions = [name for name, inside in calls if inside]
    assert from_directions
    assert max(from_directions.count(name) for name in corpus.names()) == 2


def test_direction_failure_records_none_and_keeps_the_verdict(monkeypatch, verify_report):
    # a ContactError from the stacked call leaves every sample's record
    # None; no verdict reads these records
    def off_manifold(*args, **kwargs):
        raise contact.NotOnManifold("curve base point is off the manifold", 0)

    want = verify_report("hyperbolic_paraboloid").as_dict()
    monkeypatch.setattr(osculate, "residual_jets", off_manifold)
    got = osculate.verify_theorem(corpus.load("hyperbolic_paraboloid"), seed=0).as_dict()
    assert got["verdict"] == want["verdict"] == "THEOREM_CONFIRMED"
    got_dirs = [r.pop("osculating_directions") for r in got["steps"]["osculation"]["records"]]
    want_dirs = [r.pop("osculating_directions") for r in want["steps"]["osculation"]["records"]]
    assert got_dirs == [None] * 9
    assert all(want_dirs)
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_family_less_direction_failure_fails_every_sample(monkeypatch):
    # a family-less surface reads its lines from the stacked directions
    # call, so a ContactError there is every sample's error: each record
    # holds its text, no record holds directions, and step 1 fails at the
    # first sample
    def off_manifold(*args, **kwargs):
        raise contact.NotOnManifold("curve base point is off the manifold", 0)

    scene = _without_family("hyperbolic_paraboloid")
    assert scene.k == 1
    monkeypatch.setattr(osculate, "residual_jets", off_manifold)
    rep = osculate.verify_theorem(scene, seed=0)
    records = rep.steps["osculation"]["records"]
    assert len(records) == 9
    for rec in records:
        assert (rec["order"], rec["met"]) == ("error", False), rec
        assert rec["detail"] == "curve base point is off the manifold"
        assert rec["osculating_directions"] is None
    assert rep.verdict == "HYPOTHESIS_FAILS"
    assert rep.first_failure["step"] == "osculation"
    assert rep.first_failure["sample_index"] == 0


def test_fit_recovers_ruling():
    hp = corpus.load("hyperbolic_paraboloid")
    x0, y0 = 0.3, -0.4
    curve = fit_class_k_curve(hp.manifold, [x0, y0], 1, 3, seed=0)
    assert curve is not None
    v = curve.coeffs[1] / np.linalg.norm(curve.coeffs[1])
    rulings = [np.array([1.0, 0.0, y0]), np.array([0.0, 1.0, x0])]
    match = max(abs(np.dot(v, r / np.linalg.norm(r))) for r in rulings)
    assert match >= 1.0 - 1e-6
    # the fitted line is contained: residual order saturates
    assert contact_order_jet_recharted(curve, hp.manifold, 6).saturated


def test_fit_sphere_lines_reach_order_one_only():
    sphere = corpus.load("sphere")
    assert fit_class_k_curve(sphere.manifold, [0.0, 0.0], 1, 2, seed=0) is None


def test_fit_class_two_parabola_on_paraboloid():
    par = corpus.load("paraboloid")
    curve = fit_class_k_curve(par.manifold, [0.0, 0.0], 2, 6, seed=0)
    assert curve is not None
    coeffs = residual_jets(par.manifold, curve, 6)
    assert np.max(np.abs(coeffs[:, 1:7])) <= 1e-9  # the fit's own contract
    # the exact parabola t -> (t, 0, t^2) achieves residual identically zero
    exact = PolyCurve([[0, 0, 0], [1, 0, 0], [0, 0, 1]], [0, 0])
    assert contact_order_jet_recharted(exact, par.manifold, 10).saturated


def test_fit_reaches_required_order_on_ruled_scenes():
    # the fit's acceptance must imply the contact check it feeds: every
    # verify sample of these family-less ruled scenes reaches k(m+1)
    for name in ("saddle", "hyperbolic_paraboloid", "paraboloid"):
        scene = corpus.load(name)
        M, k, p = scene.manifold, scene.family.k, scene.params
        required = k * (M.m + 1)
        for x in M.grid(p.samples, margin=p.margin):
            curve = fit_class_k_curve(M, x, k, required, seed=0)
            assert curve is not None, (name, x)
            order = contact_order_jet_recharted(curve, M, required + 2)
            assert order.meets(required), (name, x, str(order))


def test_fit_reaches_required_order_on_cylinder():
    # a parametric chart: the fit re-charts as a graph does and finds the
    # ruling (0, 0, 1) at every verify sample of the family-less cylinder
    cyl = corpus.load("cylinder")
    M, p = cyl.manifold, cyl.params
    for x in M.grid(p.samples, margin=p.margin):
        curve = fit_class_k_curve(M, x, 1, 3, seed=0, tol=p.tol)
        assert curve is not None, x
        assert np.array_equal(curve.chart, x)
        assert contact_order_jet_recharted(curve, M, 5, p.tol).meets(3), x
        v = curve.coeffs[1] / np.linalg.norm(curve.coeffs[1])
        assert abs(v[2]) >= 1.0 - 1e-9, (x, v)


def test_closed_form_lines_match_sequential_oracle():
    # a line on a surface in R^3 (k = 1, order 3) is read in closed form,
    # and the random-start oracle must find one at the same samples: every
    # verify sample of the scenes that hold lines, and one of each scene that
    # holds none, where the oracle runs out its 32 starts (about 3 s for
    # one off-centre sphere sample, 0.2 s at its centre)
    lineless = {"sphere": [4], "paraboloid": [3], "cubic_graph": [0]}
    surfaces = [name for name, _ in _direction_surfaces() if name in corpus.names()]
    assert set(lineless) < set(surfaces)
    for name in surfaces:
        scene = corpus.load(name)
        M, p = scene.manifold, scene.params
        X = M.grid(p.samples, margin=p.margin)
        for x in X[lineless.get(name, slice(None))]:
            got = fit_class_k_curve(M, x, 1, 3, seed=0, tol=p.tol)
            want = sequential_class_k_fit(M, x, 1, 3, p.tol, seed=0)
            assert (got is None) == (want is None) == (name in lineless), (name, x)
            if got is not None:
                assert abs(np.linalg.norm(got.coeffs[1]) - 1.0) <= 1e-12, (name, x)
                assert np.array_equal(got.chart, x), (name, x)
                assert contact_order_jet_recharted(got, M, 5, p.tol).meets(3), (name, x)


def _without_family(name):
    """The corpus scene with its family dropped, keeping the family's k."""
    data = json.loads(corpus.scene_path(name).read_text())
    data.setdefault("params", {})["k"] = data.pop("family")["k"]
    return build_scene(data, name=f"{name}-nofam")


@pytest.mark.parametrize("seed", [0, 2, 7])
def test_lockstep_fit_matches_sequential_oracle(seed):
    # the starts run in lockstep on exact Jacobians but must end as they
    # would one by one on central differences: the same samples without a
    # curve, and the same curve to 1e-8 where one exists. A line on a
    # surface in R^3 at order 3 is read in closed form, not searched, so
    # there only the samples without one must agree, and the line meets 3;
    # the random starts of k = 1 run at order 2 (asymptotic lines)
    for name, samples, target_order in (
            ("saddle", 9, 3), ("hyperbolic_paraboloid", 9, 3), ("paraboloid", 9, 6),
            ("cubic_graph", 2, 3), ("cylinder", 2, 3),
            ("cubic_graph", 2, 2), ("cylinder", 2, 2)):
        scene = _without_family(name)
        M, p = scene.manifold, scene.params
        for x in M.grid(p.samples, margin=p.margin)[:samples]:
            got = fit_class_k_curve(M, x, scene.k, target_order, seed=seed, tol=p.tol)
            want = sequential_class_k_fit(M, x, scene.k, target_order, p.tol, seed=seed)
            assert (got is None) == (want is None), (name, x)
            if want is None:
                continue
            if (scene.k, target_order) == (1, 3):
                assert contact_order_jet_recharted(got, M, 5, p.tol).meets(3), (name, x)
            else:
                assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-8, (name, x)


def test_fit_with_more_coefficients_than_orders():
    # c_j with j > target_order moves no residual order, so its Jacobian
    # columns are 0; the fit still runs and agrees with the oracle
    scene = corpus.load("hyperbolic_paraboloid")
    M, tol = scene.manifold, scene.params.tol
    for k, target_order in ((4, 2), (5, 3)):
        got = fit_class_k_curve(M, [0.3, -0.2], k, target_order, seed=1, tol=tol)
        want = sequential_class_k_fit(M, [0.3, -0.2], k, target_order, tol, seed=1)
        assert got is not None and want is not None
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-8


def _counting_residual_calls(monkeypatch):
    """The batch shapes of every residual_jets call, osculate's and those
    of the contact orders it reads."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1].coeffs.shape[:-2])
        return residual_jets(*args, **kwargs)

    monkeypatch.setattr(osculate, "residual_jets", counting)
    monkeypatch.setattr(contact, "residual_jets", counting)
    return calls


def _counting_pinv(monkeypatch):
    """The shapes of every np.linalg.pinv call."""
    solves, pinv = [], np.linalg.pinv

    def counting(A):
        solves.append(A.shape)
        return pinv(A)

    monkeypatch.setattr(np.linalg, "pinv", counting)
    return solves


def test_fit_reads_lines_in_closed_form(monkeypatch):
    # pins the call schedule of a line on a surface in R^3 at order 3: one
    # residual_jets call for the four probe lines of osculating_directions,
    # one for its two kept lines, and no Gauss-Newton step, so no pinv
    calls, solves = _counting_residual_calls(monkeypatch), _counting_pinv(monkeypatch)
    hp = corpus.load("hyperbolic_paraboloid")
    curve = fit_class_k_curve(hp.manifold, [0.3, -0.4], 1, 3, seed=0)
    assert curve is not None
    assert calls == [(1, 4), (2,)]
    assert solves == []


def test_fit_dispatch_boundary(monkeypatch):
    # the closed form answers (m, n, k, target_order) = (2, 3, 1, 3) alone:
    # order 2 keeps the random starts, which find the asymptotic lines that
    # the cubic test would reject, and so do k = 2 and a curve in R^2
    called, real = [], osculate.osculating_directions

    def spy(*args, **kwargs):
        called.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(osculate, "osculating_directions", spy)
    cubic = corpus.load("cubic_graph")
    M, tol = cubic.manifold, cubic.params.tol
    for x in M.grid(3, margin=0.15):
        got = fit_class_k_curve(M, x, 1, 2, seed=0, tol=tol)
        want = sequential_class_k_fit(M, x, 1, 2, tol, seed=0)
        assert got is not None and want is not None, x
    assert fit_class_k_curve(corpus.load("paraboloid").manifold, [0.0, 0.0], 2, 6) is not None
    circle = corpus.load("circle").manifold
    assert fit_class_k_curve(circle, [1.0], 1, 2) is None
    assert called == []
    assert fit_class_k_curve(M, [0.2, 0.5], 1, 3) is None
    assert len(called) == 1 and np.array_equal(called[0], [0.2, 0.5])


def test_family_less_verify_reads_lines_from_one_direction_call(monkeypatch):
    # a family-less surface in R^3 at k = 1 takes its fitted lines from the
    # one stacked osculating_directions call that also fills its records:
    # no per-sample fit runs, and each line is, bit for bit, the one
    # fit_class_k_curve reads at that sample alone. The ruled scenes
    # osculate, so verify stops there with a scene error
    real_directions, real_line = osculate.osculating_directions, osculate._osculating_line
    for name in ("hyperbolic_paraboloid", "saddle", "cubic_graph"):
        scene = _without_family(name)
        M, p = scene.manifold, scene.params
        want = [fit_class_k_curve(M, x, 1, 3, seed=0, tol=p.tol)
                for x in M.grid(p.samples, margin=p.margin)]
        directions, lines = [], []

        def directions_spy(*args, **kwargs):
            directions.append(args[1].shape)
            return real_directions(*args, **kwargs)

        def line_spy(*args):
            lines.append(real_line(*args))
            return lines[-1]

        def no_fit(*args, **kwargs):
            raise AssertionError("a per-sample fit ran")

        monkeypatch.setattr(osculate, "osculating_directions", directions_spy)
        monkeypatch.setattr(osculate, "_osculating_line", line_spy)
        monkeypatch.setattr(osculate, "fit_class_k_curve", no_fit)
        if name == "cubic_graph":
            rep = osculate.verify_theorem(scene, seed=0)
            assert rep.first_failure["step"] == "osculation"
        else:
            with pytest.raises(SceneError, match="need a sweep family"):
                osculate.verify_theorem(scene, seed=0)
        assert directions == [(len(want), 2)], name
        assert len(lines) == len(want), name
        for got, fit in zip(lines, want):
            assert (got is None) == (fit is None), name
            if fit is not None:
                assert np.array_equal(got.coeffs, fit.coeffs), name
                assert np.array_equal(got.chart, fit.chart), name
        monkeypatch.undo()


def test_fit_evaluates_all_starts_together(monkeypatch):
    # pins the call schedule, not a bound: one call evaluates the 32 starts
    # at their random points, then start 0 steps alone, one call for its
    # first four line-search candidates (2 delta, delta, delta/2, delta/4)
    # per step. Its 4th step needs the other 22 (delta/8, ..., delta/2^24),
    # so the 31 others join it and all step in lockstep, with one call for
    # the 22 of only the starts that none of the four settles. The
    # Jacobians come with the residuals, so no call probes. The paraboloid
    # is convex: no line meets it to order 2, so every start ends failed
    # (the lockstep phase is the 25 steps and 21 searches of all 32 starts
    # run together from the first)
    calls = _counting_residual_calls(monkeypatch)
    par = corpus.load("paraboloid")
    assert fit_class_k_curve(par.manifold, [0.2, 0.5], 1, 2, seed=0) is None
    assert calls[:6] == [(32,), (1, 4), (1, 4), (1, 4), (1, 22), (32, 4)]
    heads = [i for i, shape in enumerate(calls) if shape[1:] == (4,)]
    assert len(heads) == 3 + 25
    assert sum(shape[1:] == (22,) for shape in calls) == 1 + 21
    for i, end in zip(heads, heads[1:] + [len(calls)]):
        searches = calls[i + 1:end]                     # at most one, on no more starts
        assert len(searches) <= 1
        assert all(s[1:] == (22,) and s[0] <= calls[i][0] for s in searches)
    live = [calls[i][0] for i in heads[3:]]
    assert live == sorted(live, reverse=True) and live[0] == 32


def test_fit_gtol_changes_no_outcome(monkeypatch):
    # the gtol test ends only starts that would fail anyway, so switching
    # it off returns the same curves, bit for bit, and the same Nones. The
    # k = 1 fits run at order 2, on the random starts; the sphere's centre
    # has no asymptotic line, and there gtol ends every start
    def fits():
        out = []
        for name, rows, target_order in (
                ("saddle", slice(9), 2), ("hyperbolic_paraboloid", slice(9), 2),
                ("paraboloid", slice(9), 6), ("cubic_graph", slice(9), 2),
                ("cylinder", slice(2), 2), ("sphere", slice(4, 5), 2)):
            scene = _without_family(name)
            M, p = scene.manifold, scene.params
            for seed in range(5):
                for x in M.grid(p.samples, margin=p.margin)[rows]:
                    out.append(fit_class_k_curve(M, x, scene.k, target_order,
                                                 seed=seed, tol=p.tol))
        return out

    want = fits()
    monkeypatch.setattr(osculate, "FIT_GTOL", 0.0)
    got = fits()
    assert [c is None for c in got] == [c is None for c in want]
    assert any(c is None for c in want) and any(c is not None for c in want)
    assert all(np.array_equal(g.coeffs, w.coeffs)
               for g, w in zip(got, want) if w is not None)


@pytest.mark.parametrize("name, x, k, target_order, seed, lone, joined, searches, found", [
    # a double root: |F| falls 4x per plain step. Start 0 converges alone
    # on plain and doubled steps (at seed 0 it needs the tail search at its
    # first step, and 7 lockstep steps of up to 32 starts follow)
    ("paraboloid", [0.0, 0.0], 2, 6, 1, 7, 0, 0, True),
    # the cylinder's one asymptotic line, its ruling, is a double root of
    # the second fundamental form (16 steps without the doubled step)
    ("cylinder", [0.5, 0.2], 1, 2, 0, 5, 0, 0, True),
    # no asymptotic line at the sphere's centre: gtol ends start 0 after
    # 17 steps polishing its nonzero minimum (23 without gtol), then the
    # other 31 join and gtol ends them within 16 lockstep steps
    ("sphere", [0.0, 0.0], 1, 2, 0, 17, 16, 0, False),
])
def test_fit_step_counts(monkeypatch, name, x, k, target_order, seed, lone, joined,
                         searches, found):
    # each Gauss-Newton step makes one pinv and one call for its first four
    # line-search candidates: `lone` one-row steps of start 0, then `joined`
    # lockstep steps of the starts that join when it stalls, never more of
    # them live than the step before. `searches` counts the calls for the
    # 22 smaller line-search steps
    calls, solves = _counting_residual_calls(monkeypatch), _counting_pinv(monkeypatch)
    scene = corpus.load(name)
    M, tol = scene.manifold, scene.params.tol
    curve = fit_class_k_curve(M, x, k, target_order, seed=seed, tol=tol)
    rows = [shape[0] for shape in solves]
    assert calls[0] == (osculate.FIT_STARTS,)
    assert rows[:lone] == [1] * lone and len(rows) == lone + joined
    assert [shape[0] for shape in calls if shape[1:] == (4,)] == rows
    lockstep = rows[lone:]
    assert lockstep == sorted(lockstep, reverse=True)
    # the one case that joins does so once start 0 has ended: at most 31 live
    assert all(1 < r <= osculate.FIT_STARTS - 1 for r in lockstep)
    assert sum(shape[1:] == (22,) for shape in calls) == searches
    assert (curve is not None) == found
    if found:
        order = contact_order_jet_recharted(curve, M, target_order + 2, tol)
        assert order.meets(target_order)


class _OneRowRng:
    """Stands in for np.random.default_rng: standard_normal hands out row
    `row` of a real draw, the one start a fit of FIT_STARTS = 1 reads."""

    def __init__(self, draw, row):
        self.draw, self.row = draw, row

    def standard_normal(self, shape):
        assert shape == (1,) + self.draw.shape[1:]
        return self.draw[self.row:self.row + 1].copy()


@pytest.mark.parametrize("name, x, k, target_order, winner", [
    ("paraboloid", [0.0, 0.0], 2, 6, 0),      # the others join, start 0 wins
    ("cubic_graph", [-0.7, 0.3625], 2, 6, 1),  # start 0 ends failed, start 1 wins
    ("cubic_graph", [0.0, 0.625], 2, 6, 0),
    ("cylinder", [0.5, 0.2], 1, 2, 0),
    ("sphere", [0.0, 0.0], 1, 2, None),       # gtol ends every start
])
def test_fit_returns_the_first_start_that_converges_alone(monkeypatch, name, x, k,
                                                         target_order, winner):
    # the schedule decides only which starts step, never their iterates:
    # the fit's curve is, bit for bit, that of the lowest-index start that
    # converges when it runs alone, fed its row of the real 32-start draw
    scene = corpus.load(name)
    M, tol = scene.manifold, scene.params.tol
    want = fit_class_k_curve(M, x, k, target_order, seed=0, tol=tol)
    draw = np.random.default_rng(0).standard_normal((osculate.FIT_STARTS, k, M.n))
    monkeypatch.setattr(osculate, "FIT_STARTS", 1)
    alone = []
    for row in range(len(draw)):
        monkeypatch.setattr(np.random, "default_rng", lambda seed: _OneRowRng(draw, row))
        alone.append(fit_class_k_curve(M, x, k, target_order, seed=0, tol=tol))
        if alone[-1] is not None:
            break
    found = [row for row, curve in enumerate(alone) if curve is not None]
    assert found == ([] if winner is None else [winner])
    if winner is None:
        assert want is None and len(alone) == len(draw)
    else:
        assert want is not None and np.array_equal(want.coeffs, alone[winner].coeffs)


@pytest.mark.parametrize("p_chart, k, target_order, argument", [
    ([0.1, 0.2], 0, 3, "k"),
    ([0.1], 1, 3, "p_chart"),
    ([0.1, 0.2, 0.3], 1, 3, "p_chart"),
    ([[0.1, 0.2], [0.3, 0.4]], 1, 3, "p_chart"),
    ([0.1, 0.2], 1, 0, "target_order"),
    ([0.1, 0.2], 1, -1, "target_order"),
])
def test_fit_rejects_bad_input(p_chart, k, target_order, argument):
    M = corpus.load("hyperbolic_paraboloid").manifold
    with pytest.raises(ValueError, match=f"^{argument} "):
        fit_class_k_curve(M, p_chart, k, target_order)


def test_verify_stacks_osculation_and_vanishing(monkeypatch):
    # step 1 takes the osculating directions of all nine samples first, in
    # one residual call for their four probe lines each and one for their
    # 18 direction lines, then the contact orders of all nine family curves
    # in one; the vanishing step takes the minor jets of its whole grid in
    # one call
    residual_calls, minor_calls, vanishing = [], [], []

    def counting_residual(*args, **kwargs):
        residual_calls.append(args[1].coeffs.shape[:-2])
        return residual_jets(*args, **kwargs)

    def counting_minors(*args, **kwargs):
        minor_calls.append(args[1].shape)
        return minor_jets(*args, **kwargs)

    def counting_vanishing(*args, **kwargs):
        before = len(minor_calls)
        vv = vanishing_verdict(*args, **kwargs)
        vanishing.append(minor_calls[before:])
        return vv

    minor_jets, vanishing_verdict = sweep._minor_jets, sweep.vanishing_verdict
    monkeypatch.setattr(contact, "residual_jets", counting_residual)
    monkeypatch.setattr(osculate, "residual_jets", counting_residual)
    monkeypatch.setattr(sweep, "_minor_jets", counting_minors)
    monkeypatch.setattr(osculate, "vanishing_verdict", counting_vanishing)
    rep = osculate.verify_theorem(corpus.load("hyperbolic_paraboloid"), seed=0)
    assert rep.verdict == "THEOREM_CONFIRMED"
    assert residual_calls[:3] == [(9, 4), (18,), (9,)]
    assert len(residual_calls) <= 1 + 2 * 9
    assert vanishing == [[(9, 2)]]


def test_step_one_records_each_curve_off_the_manifold():
    # the curves at x = +-0.7 start 5e-10 x^2 = 2.45e-10 off z = xy: within
    # the family's identity check (1e-9), beyond on_manifold (1e-10 (1 +
    # |gamma(0)|)). Each such sample records the error a call on its curve
    # alone gives, and the curves at x = 0, rulings, still get their orders.
    scene = build_scene({
        "manifold": {"type": "graph", "chart_vars": ["x", "y"],
                     "domain": [[-1, 1], [-1, 1]], "ambient_dim": 3,
                     "height": ["x*y"]},
        "family": {"k": 1, "map": ["x + t", "y", "x*y + t*y + 5e-10*x^2"]}},
        name="off-by-5e-10")
    rep = osculate.verify_theorem(scene, seed=0)
    records = rep.steps["osculation"]["records"]
    assert len(records) == 9
    for rec in records:
        if rec["x"][0] == 0.0:
            assert (rec["order"], rec["met"]) == (">=5", True), rec
        else:
            assert rec["order"] == "error" and not rec["met"], rec
            assert rec["detail"] == "curve base point is 2.450e-10 off the manifold"
    assert sum(rec["order"] == "error" for rec in records) == 6
    assert rep.verdict == "HYPOTHESIS_FAILS"
    assert rep.first_failure["step"] == "osculation"
    assert rep.first_failure["sample_index"] == 0


def test_flow_error_is_each_start_record(monkeypatch):
    # a SweepError from the batched flow check fails all three starts with
    # its text, and the flow step is the first failure
    def boom(*args, **kwargs):
        raise sweep.FlowRankError("boom")

    monkeypatch.setattr(osculate, "tangency_flow_check", boom)
    rep = osculate.verify_theorem(corpus.load("hyperbolic_paraboloid"), seed=0)
    records = [{"x": x, "passed": False, "error": "boom"}
               for x in ([-0.7, -0.7], [0.0, 0.0], [0.7, 0.7])]
    assert rep.steps["flow"] == {"records": records, "passed": False}
    assert rep.verdict == "HYPOTHESIS_FAILS"
    assert rep.first_failure == {"step": "flow", "detail": records}


def test_step_error_ends_the_pipeline_at_that_step(monkeypatch):
    def boom(*args, **kwargs):
        raise sweep.SweepError("boomv")

    monkeypatch.setattr(osculate, "vanishing_verdict", boom)
    rep = osculate.verify_theorem(corpus.load("hyperbolic_paraboloid"), seed=0)
    assert rep.steps["vanishing"] == {"passed": False, "error": "boomv"}
    assert list(rep.steps) == ["osculation", "growth", "vanishing"]
    assert rep.verdict == "HYPOTHESIS_FAILS"
    assert rep.first_failure == {"step": "vanishing", "detail": "boomv"}


def test_fit_error_is_its_sample_record(monkeypatch):
    # a family-less paraboloid at k = 2 fits one curve per sample; an error
    # from the fit at the centre fails that sample only
    real = osculate.fit_class_k_curve

    def boom_at_centre(M, x, *args, **kwargs):
        if np.array_equal(x, [0.0, 0.0]):
            raise contact.ContactError("fit boom")
        return real(M, x, *args, **kwargs)

    monkeypatch.setattr(osculate, "fit_class_k_curve", boom_at_centre)
    rep = osculate.verify_theorem(_without_family("paraboloid"), seed=0)
    records = rep.steps["osculation"]["records"]
    assert records[4] == {"x": [0.0, 0.0], "order": "error", "met": False,
                          "detail": "fit boom"}
    assert all(rec["met"] for rec in records[:4])
    assert rep.verdict == "HYPOTHESIS_FAILS"
    assert rep.first_failure["step"] == "osculation"
    assert rep.first_failure["sample_index"] == 4


def test_verify_fails_family_less_m3_bowl():
    # the non-ruled m = 3 control: no line osculates w = x^2 + y^2 + z^2 to
    # order k(m+1) = 4, so every sample fails at osculation
    scene = build_scene({
        "manifold": {"type": "graph", "chart_vars": ["x", "y", "z"],
                     "domain": [[-1, 1], [-1, 1], [-1, 1]], "ambient_dim": 4,
                     "height": ["x^2 + y^2 + z^2"]},
        "params": {"k": 1}}, name="bowl3-nofam")
    rep = osculate.verify_theorem(scene, seed=0)
    assert rep.verdict == "HYPOTHESIS_FAILS"
    assert rep.first_failure["step"] == "osculation"
    assert rep.required_order == 4
    records = rep.steps["osculation"]["records"]
    assert len(records) == 27
    assert all(r["order"] == "none" for r in records)


@pytest.fixture
def tube_calls(monkeypatch):
    """The manifolds whose probed tube-radius search runs, in call order."""
    calls = []
    tube_radius = Submanifold.tube_radius

    def spy(self, **kwargs):
        calls.append(self)
        return tube_radius(self, **kwargs)

    monkeypatch.setattr(Submanifold, "tube_radius", spy)
    return calls


def test_corpus_verify_runs_no_quadrature(quadrature_calls):
    """Every corpus scene that reaches the growth step is certified zero,
    so a verify pass over the corpus integrates nothing."""
    for name in corpus.names():
        osculate.verify_theorem(corpus.load(name), seed=0)
    assert quadrature_calls == []


def test_fit_growth_scenes_still_integrate(quadrature_calls):
    """sphere, circle and segment sweep real volume: each t of the series
    is one swept_volume call, and the fitted slope is that of the plain
    quadrature series, bit for bit."""
    for name in ("sphere", "circle", "segment"):
        family = corpus.load(name).family
        grid = geometric_grid()
        fit = sweep.growth_exponent(sweep.volume_series(family, grid))
        assert len(quadrature_calls) == grid.size
        assert not fit.identically_zero
        quadrature_calls.clear()
        plain = sweep.growth_exponent([sweep.swept_volume(family, t) for t in grid])
        assert fit == plain, name
        quadrature_calls.clear()


def test_verify_confirms_ruled_3fold(tube_calls, quadrature_calls):
    # m = 3: w = xy + z in R^4 holds the line through each point along
    # (1, 0, 0, y). Its ruledness points whose nearest chart point lies on
    # the box edge converge there, so no projection falls back to every seed
    scene = build_scene({
        "manifold": {"type": "graph", "chart_vars": ["x", "y", "z"],
                     "domain": [[-1, 1], [-1, 1], [-1, 1]], "ambient_dim": 4,
                     "height": ["x*y + z"]},
        "family": {"k": 1, "fields": [["1", "0", "0", "y"]]},
        "params": {"quad_cells": 4}}, name="ruled_3fold")
    rep = osculate.verify_theorem(scene, seed=0)
    assert rep.verdict == "THEOREM_CONFIRMED"
    assert rep.first_failure is None
    assert rep.steps["ruledness"]["counted"] > 0
    # every counted sample lies within the graph's certified reach bound
    assert tube_calls == []
    # and its frame minors are the zero polynomial
    assert quadrature_calls == []


# -- ruledness ----------------------------------------------------------------


def test_ruled_xy_graph_contained():
    hp = corpus.load("hyperbolic_paraboloid")
    rv = ruledness_check(hp.manifold, hp.family.curve_at, 1.0,
                         tube=hp.manifold.tube_radius())
    assert rv.verdict == "CONTAINED"
    assert rv.max_distance <= 1e-10
    assert rv.witness is None


def test_sphere_tangents_not_contained():
    sphere = corpus.load("sphere")
    # single sample at the pole reproduces the closed-form witness
    rv = ruledness_check(sphere.manifold, sphere.family.curve_at, 0.5,
                         tube=sphere.manifold.tube_radius(),
                         samples_per_axis=1, margin=0.5)
    assert rv.verdict == "NOT_CONTAINED"
    assert rv.witness.distance == pytest.approx(np.sqrt(1.25) - 1.0, abs=1e-4)
    assert abs(rv.witness.s) == pytest.approx(0.5)


def test_constant_curves_trivially_contained():
    plane = corpus.load("plane")
    fam = SweepFamily(plane.manifold, 1, fields=[["0", "0", "0"]])
    rv = ruledness_check(plane.manifold, fam.curve_at, 1.0,
                         tube=plane.manifold.tube_radius())
    assert rv.verdict == "CONTAINED"


def test_ruled_undecided_when_everything_leaves_tube():
    segment = corpus.load("segment")
    far = PolyCurve([[0.5, 5.0], [0.0, 0.0]])  # constant curve far away
    rv = ruledness_check(segment.manifold, lambda x: far, 0.5,
                         tube=segment.manifold.tube_radius())
    assert rv.verdict == "UNDECIDED"
    assert rv.counted == 0


def test_ruledness_points_call_the_provider_once():
    # the provider gets the sample stack once, and its curve stack gives
    # the rows the per-sample curves give, bit for bit; one curve for every
    # sample (a constant provider) broadcasts over the samples
    hp = corpus.load("hyperbolic_paraboloid")
    M, p = hp.manifold, hp.params
    stacks = []

    def provider(X):
        stacks.append(X)
        return hp.family.curve_at(X)

    X, svals, pts = ruledness_points(M, provider, p.span, p.samples, p.margin)
    assert len(stacks) == 1 and stacks[0] is X
    assert pts.shape == (len(X) * RULED_PARAMS, M.n)
    assert np.array_equal(pts, np.concatenate([hp.family.curve_at(x)(svals) for x in X]))
    far = PolyCurve([[0.5, 5.0, 0.0], [0.0, 0.0, 1.0]])
    _, _, pts = ruledness_points(M, lambda x: far, p.span, p.samples, p.margin)
    assert np.array_equal(pts, np.tile(far(svals), (len(X), 1)))


@pytest.mark.parametrize("name, want", [("hyperbolic_paraboloid", "CONTAINED"),
                                        ("sphere", "NOT_CONTAINED")])
def test_ruledness_check_takes_the_family_curve_at_positionally(name, want):
    # the call form of the bench's containment workload: the family's
    # curve_at as the positional provider and the tube as a keyword
    scene = corpus.load(name)
    p = scene.params
    rv = ruledness_check(scene.manifold, scene.family.curve_at, p.span,
                         samples_per_axis=p.samples, margin=p.margin,
                         tube=scene.manifold.tube_radius(), tol=p.tol)
    assert rv.verdict == want and rv.counted > 0


GRAPHS = [n for n in corpus.names() if corpus.load(n).manifold.kind == "graph"]
#: the ruled 3-fold w = xy + z in R^4, swept along its rulings
RULED_3FOLD = {"manifold": {"type": "graph", "chart_vars": ["x", "y", "z"],
                            "domain": [[-1, 1]] * 3, "ambient_dim": 4,
                            "height": ["x*y + z"]},
               "family": {"k": 1, "fields": [["1", "0", "0", "y"]]},
               "params": {"quad_cells": 4}}


def _scene(name):
    return build_scene(RULED_3FOLD) if name == "ruled_3fold" else corpus.load(name)


def _ruledness_projected(M, curve_provider, span, monkeypatch, **kwargs):
    """ruledness_check with a project_batch spy: the verdict and the
    queries of each call."""
    queries = []
    project_batch = Submanifold.project_batch

    def spy(self, P):
        queries.append(np.asarray(P))
        return project_batch(self, P)

    with monkeypatch.context() as mp:
        mp.setattr(Submanifold, "project_batch", spy)
        return ruledness_check(M, curve_provider, span, **kwargs), queries


#: the rows Submanifold.distances certifies by the reach bound among each
#: scene's ruledness rows (of 576, 192 on segment), at its own span and at 2
CERTIFIED = {("sphere", None): 534, ("sphere", 2.0): 168, ("cubic_graph", None): 407,
             ("cubic_graph", 2.0): 115, ("segment", None): 192}


@pytest.mark.parametrize("name, span", [(n, None) for n in GRAPHS] + [
    (n, 2.0) for n in ("plane", "hyperbolic_paraboloid", "saddle", "paraboloid",
                       "sphere", "cubic_graph")]
    + [("cylinder", None), ("cylinder", 2.0), ("circle_rotation", 2.0),
       ("ruled_3fold", None)])
def test_ruledness_by_bound_matches_projection(name, span, routes):
    # following the chart counts a sample only where projection counts it:
    # same verdict, counts and witness as projecting every sample. Span 2
    # sends the curves out of the box: a graph's samples there within the
    # tolerance are excluded unprojected, the rest are certified or
    # projected, and a parametric chart projects every sample it does not
    # settle in the box
    scene = _scene(name)
    M, p = scene.manifold, scene.params
    span = p.span if span is None else span
    kwargs = dict(tube=min(M.half_side, M.reach_bound()), probe=M.tube_radius,
                  samples_per_axis=p.samples, margin=p.margin, tol=p.tol)
    got = ruledness_check(M, scene.family.curve_at, span, **kwargs)
    route = routes[0]
    # Submanifold.distances: settled rows read the follower's residual, on a
    # graph the vertical distance |p_N - h(p_T)|, and are eligible in the
    # box off its edge band. A graph's other rows descend once, from their
    # vertical foot where the reach bound is positive; those it certifies
    # read the descent's distance, and the rest read project_batch of those
    # rows alone, in one call
    X, _, pts = ruledness_points(M, scene.family.curve_at, span, p.samples, p.margin)
    distance, eligible = M.distances(pts, got.tolerance, np.repeat(X, RULED_PARAMS, axis=0))
    descended, projected = rows_in(pts, route["descended"]), rows_in(pts, route["projected"])
    assert len(route["projected"]) == int(np.any(projected))
    assert not route["projected"] or np.array_equal(route["projected"][0], pts[projected])
    assert len(route["descended"]) == int(np.any(descended))
    assert not route["descended"] or np.array_equal(route["descended"][0], pts[descended])
    certified = descended & ~projected
    assert np.count_nonzero(certified) == CERTIFIED.get((name, None if span == p.span else span), 0)
    if M.kind == "graph":
        with np.errstate(invalid="ignore"):
            C = manifold._where_defined(M.embed_many, pts[:, :M.m])
            vertical = np.linalg.norm(pts[:, M.m:] - C[:, M.m:], axis=1)
        beyond = ~(vertical <= got.tolerance)
        assert np.array_equal(descended, beyond & (M.reach_bound() > 0.0))
        assert np.array_equal(projected, beyond & ~certified)
        assert np.array_equal(distance[~beyond], vertical[~beyond])
        assert np.array_equal(eligible[~beyond], ~M._on_edge(pts[~beyond, :M.m]))
        if np.any(certified):
            assert_certified_like_projection(M, pts[certified], distance[certified],
                                             eligible[certified])
    else:
        # a parametric chart settles only the samples it keeps eligible,
        # each at a distance to a point of M within the tolerance
        assert not np.any(descended)
        assert np.all(eligible[~projected] & (distance[~projected] <= got.tolerance))
        d = M.project_batch(pts[~projected]).distance
        assert np.all(distance[~projected] >= d - PROJECT_DIST_TOL * (1.0 + d))
    if np.any(projected):
        b = M.project_batch(pts[projected])
        assert np.array_equal(distance[projected], b.distance)
        assert np.array_equal(eligible[projected],
                              b.converged & ~b.ambiguous & ~b.on_boundary)
    want = ruledness_by_projection(M, scene.family.curve_at, span, **kwargs)
    assert (got.verdict, got.counted, got.skipped) == (want.verdict, want.counted, want.skipped)
    assert ([r["counted"] for r in got.per_sample]
            == [r["counted"] for r in want.per_sample])
    assert (got.witness is None) == (want.verdict != "NOT_CONTAINED")
    if want.verdict == "NOT_CONTAINED":
        # the same witness; a certified one reads its distance to rounding
        for f in ("chart", "s", "point"):
            assert np.array_equal(getattr(got.witness, f), getattr(want.witness, f)), f
        slack = CERTIFIED_ULPS * np.finfo(float).eps * (1.0 + np.linalg.norm(got.witness.point))
        assert abs(got.max_distance - want.max_distance) <= slack
        assert got.witness.distance == got.max_distance
        if not np.any(certified & np.all(pts == got.witness.point, axis=1)):
            assert got.max_distance == want.max_distance


def test_ruledness_projects_only_the_rows_the_bound_leaves(monkeypatch):
    # hp's 576 samples: the 432 with p_T inside the box and off its edge
    # band count by the vertical distance; the other 144 lie on M past the
    # edge and are excluded unprojected. Cylinder projects exactly its 120
    # samples that leave the box in w
    hp = corpus.load("hyperbolic_paraboloid")
    M = hp.manifold
    queries = []
    project_batch = Submanifold.project_batch

    def spy(self, P):
        queries.append(np.asarray(P))
        return project_batch(self, P)

    monkeypatch.setattr(Submanifold, "project_batch", spy)
    _, rv = osculate.ruledness_record(M, hp.family, hp.params)
    assert (rv.verdict, rv.counted, rv.skipped) == ("CONTAINED", 432, 144)
    assert queries == []
    cylinder = corpus.load("cylinder")
    _, rv = osculate.ruledness_record(cylinder.manifold, cylinder.family, cylinder.params)
    assert (rv.verdict, rv.counted, rv.skipped) == ("CONTAINED", 456, 120)
    assert [len(q) for q in queries] == [120]
    w = queries[0][:, 2]
    assert np.all((w < -1.0) | (w > 1.0))


def test_ruledness_projects_the_rows_a_wrapping_chart_leaves(monkeypatch):
    # circle_rotation's angle runs over [0, 2 pi]: at span 2 the follower
    # converges off the box on every sample whose angle x + s wraps, and
    # those samples are projected, where they count as they would on the
    # chart's other sheet; all 192 count, as projecting every sample finds
    scene = corpus.load("circle_rotation")
    M, p = scene.manifold, scene.params
    kwargs = dict(tube=min(M.half_side, M.reach_bound()), probe=M.tube_radius,
                  samples_per_axis=p.samples, margin=p.margin, tol=p.tol)
    got, queries = _ruledness_projected(M, scene.family.curve_at, 2.0, monkeypatch,
                                        **kwargs)
    want = ruledness_by_projection(M, scene.family.curve_at, 2.0, **kwargs)
    assert (got.verdict, got.counted, got.skipped) == (want.verdict, 192, 0)
    X, svals, pts = ruledness_points(M, scene.family.curve_at, 2.0, p.samples, p.margin)
    wraps = M._on_edge(np.repeat(X, RULED_PARAMS, axis=0) + np.tile(svals, len(X))[:, None])
    assert 0 < np.count_nonzero(wraps) < len(pts) and len(queries) == 1
    assert np.all(np.all(pts[wraps, None] == queries[0][None], axis=-1).any(axis=1))


def test_ruledness_excludes_a_curve_leaving_m_at_the_box_edge():
    # curves on hp up to its edge x = 1, bending off M beyond it, with
    # samples within 1e-12 of the edge on both sides: the follower excludes
    # on the very rows where projection finds a foot on the edge, and the
    # verdicts agree row for row
    hp = corpus.load("hyperbolic_paraboloid")
    M = hp.manifold

    def provider(x):        # the curves of a stack (..., 2) of samples
        y = np.asarray(x)[..., 1, None]

        def curve(s):
            u = np.broadcast_to(1.0 + np.sign(s) * 10.0 ** (-12.0 + 12.0 * np.abs(s)),
                                y.shape[:-1] + s.shape)
            bend = 10.0 * np.maximum(u - 1.0, 0.0) ** 2
            return np.stack([u, np.broadcast_to(y, u.shape), u * y + bend], axis=-1)
        return curve

    kwargs = dict(tube=min(M.half_side, M.reach_bound()), probe=M.tube_radius)
    got = ruledness_check(M, provider, 1.0, **kwargs)
    want = ruledness_by_projection(M, provider, 1.0, tol=osculate._TOL, **kwargs)
    assert (got.verdict, got.counted, got.skipped) == (want.verdict, want.counted, want.skipped)
    assert ([r["counted"] for r in got.per_sample]
            == [r["counted"] for r in want.per_sample])
    X, _, pts = ruledness_points(M, provider, 1.0)
    distance, eligible = M.distances(pts, got.tolerance)
    b = M.project_batch(pts)
    assert np.array_equal(eligible, b.converged & ~b.ambiguous & ~b.on_boundary)
    beyond = pts[:, 0] > 1.0
    settled_out = beyond & (distance <= got.tolerance)
    assert np.any(settled_out) and np.any(M._on_edge(pts[:, :2]) & ~beyond)
    assert not np.any(eligible[M._on_edge(pts[:, :2])])


@pytest.mark.parametrize("name", [n for n in corpus.names()
                                  if corpus.load(n).family is not None])
def test_ruledness_follower_counts_the_rows_projection_counts(name):
    # every corpus family scene at its own span: a sample counts through
    # Submanifold.distances exactly where it counts with every sample
    # projected (the oracle), within the tube radius probed where needed
    scene = corpus.load(name)
    M, p = scene.manifold, scene.params
    X, _, pts = ruledness_points(M, scene.family.curve_at, p.span, p.samples, p.margin)
    got = ruledness_check(M, scene.family.curve_at, p.span,
                          tube=min(M.half_side, M.reach_bound()), probe=M.tube_radius,
                          samples_per_axis=p.samples, margin=p.margin, tol=p.tol)
    radius = max(min(M.half_side, M.reach_bound()), got.tolerance)
    distance, eligible = M.distances(pts, got.tolerance, np.repeat(X, RULED_PARAMS, axis=0))
    b = M.project_batch(pts)
    if np.any(eligible & (distance > radius)):
        radius = max(radius, M.tube_radius())
    follow = eligible & (distance <= radius)
    project = b.converged & ~b.ambiguous & ~b.on_boundary & (b.distance <= radius)
    assert np.array_equal(follow, project)
    assert got.counted == np.count_nonzero(follow)


def _same_verdict(a, b):
    assert (a.verdict, a.max_distance, a.tolerance, a.counted, a.skipped, a.per_sample) \
        == (b.verdict, b.max_distance, b.tolerance, b.counted, b.skipped, b.per_sample)
    assert (a.witness is None) == (b.witness is None)
    if a.witness is not None:
        for f in ("chart", "s", "point", "distance"):
            assert np.array_equal(getattr(a.witness, f), getattr(b.witness, f)), f


@pytest.mark.parametrize("name, point", [("segment", [0.5, 5.0]),
                                         ("sphere", [0.0, 0.0, 1.4])])
def test_ruledness_probes_beyond_the_certificate(tube_calls, name, point):
    # constant curves beyond r_cert: 5 from the segment (r_cert 0.5, every
    # sample then leaves the probed tube too), and 0.4 above the sphere
    # cap's pole (r_cert 0.253, inside the probed 0.5, so the search widens
    # the tube and the samples count). Either way the search runs once and
    # the verdict is the one an explicitly probed tube gives
    M = corpus.load(name).manifold
    far = PolyCurve([point, np.zeros(len(point))])
    deferred = ruledness_check(M, lambda x: far, 0.5,
                               tube=min(M.half_side, M.reach_bound()),
                               probe=M.tube_radius)
    assert tube_calls == [M]
    _same_verdict(deferred, ruledness_check(M, lambda x: far, 0.5,
                                            tube=M.tube_radius()))
    assert (deferred.counted > 0) == (name == "sphere")


def test_ruledness_raises_a_probe_error_only_when_probing():
    def fails():
        raise NoConvergence("no probed tube radius found by dyadic search")

    hp = corpus.load("hyperbolic_paraboloid")
    M = hp.manifold
    rv = ruledness_check(M, hp.family.curve_at, 1.0,
                         tube=min(M.half_side, M.reach_bound()), probe=fails)
    assert rv.verdict == "CONTAINED"
    segment = corpus.load("segment").manifold
    far = PolyCurve([[0.5, 5.0], [0.0, 0.0]])
    with pytest.raises(NoConvergence):
        ruledness_check(segment, lambda x: far, 0.5, tube=0.5, probe=fails)


# -- full pipeline -------------------------------------------------------------


def test_verify_probes_the_tube_only_beyond_the_certificate(tube_calls):
    # a corpus pass runs no tube-radius search: every graph's samples lie
    # within its reach bound, and the parametric charts (no certificate,
    # r_cert = 0) have circle_rotation's curves at rounding-level distances
    # and cylinder's at exactly 0, all within the ruled tolerance
    probed = []
    for name in corpus.names():
        osculate.verify_theorem(corpus.load(name), seed=0)
        probed += [name] * len(tube_calls)
        tube_calls.clear()
    assert probed == []


def test_verify_confirms_ruled_scenes(verify_report):
    for name in ("hyperbolic_paraboloid", "plane"):
        rep = verify_report(name)
        assert rep.verdict == "THEOREM_CONFIRMED", name
        assert rep.first_failure is None
        assert rep.steps["ruledness"]["verdict"] == "CONTAINED"


def test_verify_sphere_fails_at_osculation(verify_report):
    rep = verify_report("sphere")
    assert rep.verdict == "HYPOTHESIS_FAILS"
    assert rep.first_failure["step"] == "osculation"
    first = rep.steps["osculation"]["records"][0]
    assert first["order"] == "1"  # max order 1 < required 3
    assert rep.required_order == 3
    assert first["osculating_directions"] == []


def test_verify_cubic_best_lines_fail(verify_report):
    rep = verify_report("cubic_graph")
    assert rep.verdict == "HYPOTHESIS_FAILS"
    assert rep.first_failure["step"] == "osculation"


def test_verify_reports_carry_finite_window_note(verify_report):
    rep = verify_report("plane")
    assert rep.note == FINITE_WINDOW_NOTE
    assert rep.as_dict()["note"] == FINITE_WINDOW_NOTE


def _shallow_and_deep_texts(report):
    return cli._json_text(report.as_dict()), cli._json_text(dataclasses.asdict(report))


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_report_dict_serializes_as_its_deep_copy(scenes, seed):
    # as_dict shares the report's values instead of copying them, and
    # serializes as dataclasses.asdict's deep copy does
    for name in corpus.names():
        got, want = _shallow_and_deep_texts(osculate.verify_theorem(scenes[name], seed=seed))
        assert got == want, name


def test_report_dict_serializes_as_its_deep_copy_off_the_corpus():
    data = json.loads(corpus.scene_path("cubic_graph").read_text())
    del data["family"]
    data.setdefault("params", {}).update({"k": 1, "samples": 2})
    family_less = osculate.verify_theorem(build_scene(data, name="cubic_nofam"), seed=0)
    hp = json.loads(corpus.scene_path("hyperbolic_paraboloid").read_text())
    strict = osculate.verify_theorem(build_scene(hp, tol=Tolerances(ruled=0.0)), seed=0)
    assert family_less.first_failure["step"] == "osculation"
    assert strict.first_failure["step"] == "ruledness"
    for report in (family_less, strict):
        got, want = _shallow_and_deep_texts(report)
        assert got == want


def test_soundness_never_confirmed_without_containment(verify_report):
    for name in corpus.names():
        rep = verify_report(name)
        if rep.verdict == "THEOREM_CONFIRMED":
            assert rep.steps["ruledness"]["verdict"] == "CONTAINED", name
        else:
            assert rep.first_failure is not None, name


def test_verify_without_family_uses_fitted_curves():
    import json
    from osclab.scene import build_scene
    from osclab.osculate import verify_theorem

    data = json.loads(corpus.scene_path("cubic_graph").read_text())
    del data["family"]
    data.setdefault("params", {}).update({"k": 1, "samples": 2})
    scene = build_scene(data, name="cubic_nofam")
    rep = verify_theorem(scene, seed=0)
    assert rep.verdict == "HYPOTHESIS_FAILS"
    assert rep.first_failure["step"] == "osculation"
    first = rep.steps["osculation"]["records"][0]
    assert first["order"] == "none"
