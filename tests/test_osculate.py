import json

import numpy as np
import pytest

from osclab import corpus
from osclab import osculate
from osclab import expr as ex
from osclab.contact import (
    NonGraphChart,
    PolyCurve,
    contact_order_jet_recharted,
    residual_jets,
)
from osclab.manifold import Submanifold
from osclab.osculate import (
    FINITE_WINDOW_NOTE,
    fit_class_k_curve,
    osculating_directions,
    ruledness_check,
)
from osclab.scene import build_scene
from osclab.sweep import SweepFamily
from oracles import sequential_class_k_fit


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
    coeffs, _ = residual_jets(par.manifold, curve, 6)
    assert np.max(np.abs(coeffs[:, 1:7])) <= 1e-9  # the fit's own contract
    # the exact parabola t -> (t, 0, t^2) achieves residual identically zero
    exact = PolyCurve([[0, 0, 0], [1, 0, 0], [0, 0, 1]])
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


def test_fit_requires_graph_chart():
    cyl = corpus.load("cylinder")
    with pytest.raises(NonGraphChart):
        fit_class_k_curve(cyl.manifold, [0.0, 0.0], 1, 3)


def test_fit_matches_osculating_directions():
    for name in ("hyperbolic_paraboloid", "saddle"):
        scene = corpus.load(name)
        p = [0.25, -0.15]
        curve = fit_class_k_curve(scene.manifold, p, 1, 3, seed=0)
        assert curve is not None
        v = curve.coeffs[1] / np.linalg.norm(curve.coeffs[1])
        dirs = osculating_directions(scene.manifold, p)
        assert dirs
        best = max(abs(float(np.dot(v, d.ambient))) for d in dirs)
        assert best >= 1.0 - 1e-6


def _without_family(name):
    """The corpus scene with its family dropped, keeping the family's k."""
    data = json.loads(corpus.scene_path(name).read_text())
    data.setdefault("params", {})["k"] = data.pop("family")["k"]
    return build_scene(data, name=f"{name}-nofam")


@pytest.mark.parametrize("seed", [0, 7])
def test_lockstep_fit_matches_sequential_oracle(seed):
    # the starts run in lockstep but must end as they would one by one:
    # the same samples without a curve, and the same curve where one exists
    for name, samples in (("saddle", 9), ("hyperbolic_paraboloid", 9),
                          ("paraboloid", 9), ("cubic_graph", 2)):
        scene = _without_family(name)
        M, p = scene.manifold, scene.params
        required = scene.k * (M.m + 1)
        for x in M.grid(p.samples, margin=p.margin)[:samples]:
            got = fit_class_k_curve(M, x, scene.k, required, seed=seed, tol=p.tol)
            want = sequential_class_k_fit(M, x, scene.k, required, p.tol, seed=seed)
            assert (got is None) == (want is None), (name, x)
            if want is not None:
                assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-8, (name, x)


def test_fit_evaluates_all_starts_together(monkeypatch):
    # cubic_graph has no order-3 line, so all 32 starts run until their
    # line searches fail; each Gauss-Newton step makes one residual call
    # for the Jacobian probes and one for the line-search candidates
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1].coeffs.shape[:-2])
        return residual_jets(*args, **kwargs)

    monkeypatch.setattr(osculate, "residual_jets", counting)
    cubic = corpus.load("cubic_graph")
    assert fit_class_k_curve(cubic.manifold, [0.2, 0.5], 1, 3, seed=0) is None
    assert calls[0] == (32,)
    assert len(calls) % 2 == 1 and len(calls) <= 1 + 2 * 80
    assert all(shape[1:] in {(2, 3), (25,)} for shape in calls[1:])


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


# -- ruledness ----------------------------------------------------------------


def test_ruled_xy_graph_contained():
    hp = corpus.load("hyperbolic_paraboloid")
    rv = ruledness_check(hp.manifold, hp.family.curve_at, 1.0)
    assert rv.verdict == "CONTAINED"
    assert rv.max_distance <= 1e-10
    assert rv.witness is None


def test_sphere_tangents_not_contained():
    sphere = corpus.load("sphere")
    # single sample at the pole reproduces the closed-form witness
    rv = ruledness_check(sphere.manifold, sphere.family.curve_at, 0.5,
                         samples_per_axis=1, margin=0.5)
    assert rv.verdict == "NOT_CONTAINED"
    assert rv.witness.distance == pytest.approx(np.sqrt(1.25) - 1.0, abs=1e-4)
    assert abs(rv.witness.s) == pytest.approx(0.5)


def test_constant_curves_trivially_contained():
    plane = corpus.load("plane")
    fam = SweepFamily(plane.manifold, 1, fields=[["0", "0", "0"]])
    rv = ruledness_check(plane.manifold, fam.curve_at, 1.0)
    assert rv.verdict == "CONTAINED"


def test_ruled_undecided_when_everything_leaves_tube():
    segment = corpus.load("segment")
    far = PolyCurve([[0.5, 5.0], [0.0, 0.0]])  # constant curve far away
    rv = ruledness_check(segment.manifold, lambda x: far, 0.5)
    assert rv.verdict == "UNDECIDED"
    assert rv.counted == 0


# -- full pipeline -------------------------------------------------------------


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
