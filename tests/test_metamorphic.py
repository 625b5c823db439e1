"""Metamorphic verdict tests: an isometry of the ambient space, a rescaling
of it, or a re-labelling of the chart must leave every corpus verdict and
its first failing step unchanged, and so must writing a patch as a graph
instead of a parametric chart. test_rescaling_keeps_verdict scales every
corpus scene by 1e-6, 1e-3, 1e3 and 1e6, and each confirmed family keeps
its exact zero-volume certificate there; at 1e6 circle_rotation's contact
orders hold only because the contact threshold scales with the curve.
test_parametric_three_fold_confirmed_under_rescaling pins a parametric
3-fold, whose chart the immersion test accepts and whose ruledness samples
count at every scale. In test_sweep.py,
test_growth_ruling_zero_under_rescaling holds at every scale,
test_flow_certificate_under_rescaling fails the transverse segment's rank
certificate at every scale, and the strict xfail of
test_quadrature_ruling_zero_under_rescaling pins the float quadrature's
scale-dependent zero test, which a rescaled confirmed scene does not
reach."""

import copy
import json
import warnings

import numpy as np
import pytest

from osclab import corpus
from osclab import expr as ex
from osclab.osculate import verify_theorem
from osclab.scene import SceneError, build_scene
from osclab.sweep import frame_minors_vanish
from oracles import substitute

SHIFT = (0.5, -0.25, 0.75)


def _raw(name: str) -> dict:
    return json.loads(corpus.scene_path(name).read_text(encoding="utf-8"))


def _rewrite(items, mapping):
    return [ex.to_string(substitute(ex.parse(e), mapping)) for e in items]


def _plus(items, deltas):
    return [ex.to_string(ex.add(ex.parse(e), ex.const(d))) for e, d in zip(items, deltas)]


def _translated(raw: dict) -> dict:
    """The scene moved by SHIFT[:n] in ambient space."""
    data = copy.deepcopy(raw)
    man, fam = data["manifold"], data["family"]
    delta = SHIFT[: man["ambient_dim"]]
    if man["type"] == "graph":
        m = len(man["chart_vars"])
        back = {v: ex.sub(ex.var(v), ex.const(d))
                for v, d in zip(man["chart_vars"], delta)}
        man["domain"] = [[a + d, b + d] for (a, b), d in zip(man["domain"], delta)]
        man["height"] = _plus(_rewrite(man["height"], back), delta[m:])
        fam["fields"] = [_rewrite(f, back) for f in fam["fields"]]
    else:
        man["map"] = _plus(man["map"], delta)
    if "map" in fam:
        fam["map"] = _plus(fam["map"], delta)
    return data


def _chart_swapped(raw: dict) -> dict:
    """The m = 2 scene with its two chart variables swapped; a graph's first
    two ambient coordinates and field components swap with them."""
    data = copy.deepcopy(raw)
    man, fam = data["manifold"], data["family"]
    man["chart_vars"] = man["chart_vars"][::-1]
    man["domain"] = man["domain"][::-1]
    if man["type"] == "graph":
        fam["fields"] = [[f[1], f[0], *f[2:]] for f in fam["fields"]]
    return data


def _rescaled(raw: dict, lam: float) -> dict:
    """The scene scaled by lam in ambient space: its domain is lam times the
    box, and each height, chart map, field and family map c becomes
    lam*c(x/lam, ...) in the chart variables x, ..., with t left alone, so
    the point of chart point lam x at time t is lam times the old one."""
    data = copy.deepcopy(raw)
    man, fam = data["manifold"], data["family"]
    back = {v: ex.Div(ex.Var(v), ex.Const(lam)) for v in man["chart_vars"]}

    def scaled(items):
        return [ex.to_string(ex.Mul(ex.Const(lam), substitute(ex.parse(e), back)))
                for e in items]

    man["domain"] = [[lam * a, lam * b] for a, b in man["domain"]]
    chart = "height" if man["type"] == "graph" else "map"
    man[chart] = scaled(man[chart])
    if "fields" in fam:
        fam["fields"] = [scaled(f) for f in fam["fields"]]
    else:
        fam["map"] = scaled(fam["map"])
    return data


def _same_verdict(data: dict, name: str, verify_report):
    want = verify_report(name)
    got = verify_theorem(build_scene(data, name=name), seed=0)
    assert got.verdict == want.verdict
    step = None if want.first_failure is None else want.first_failure["step"]
    assert (None if got.first_failure is None else got.first_failure["step"]) == step


@pytest.mark.parametrize("name", corpus.names())
def test_translation_keeps_verdict(name, verify_report):
    _same_verdict(_translated(_raw(name)), name, verify_report)


@pytest.mark.parametrize("name", [n for n in corpus.names()
                                  if len(_raw(n)["manifold"]["chart_vars"]) == 2])
def test_chart_swap_keeps_verdict(name, verify_report):
    _same_verdict(_chart_swapped(_raw(name)), name, verify_report)


@pytest.mark.parametrize("lam", [1e-6, 1e-3, 1e3, 1e6])
@pytest.mark.parametrize("name", corpus.names())
def test_rescaling_keeps_verdict(name, lam, verify_report):
    """A rescaled scene keeps its verdict and first failing step, and the
    family of a confirmed scene keeps its exact zero-volume certificate:
    d(x/lam)/dx stays the quotient 1/lam, which the exact ring holds as a
    rational, where a folded double 1/lam would leave minors of rounding
    size."""
    data = _rescaled(_raw(name), lam)
    _same_verdict(data, name, verify_report)
    if verify_report(name).verdict == "THEOREM_CONFIRMED":
        assert frame_minors_vanish(build_scene(data).family)


def test_rescaled_cutoff_verifies_without_warnings():
    """hyperbolic_paraboloid rescaled by 1e-3 under the cutoff (0.4 lam,
    0.9 lam): outer is 0.0009000000000000001, and mesh rows at rho = 0.0009
    have a band coordinate that rounds to 1. Their chi and d chi read 0, so
    verify raises no warning there, and the certificate still decides."""
    lam = 1e-3
    scene = corpus.with_cutoff(build_scene(_rescaled(_raw("hyperbolic_paraboloid"), lam)),
                               0.4 * lam, 0.9 * lam)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify_theorem(scene, seed=0)
    assert report.verdict == "THEOREM_CONFIRMED", report.first_failure
    assert frame_minors_vanish(scene.family)


def test_rewrites_move_every_point_as_stated():
    """Each point of a translated scene is the original point plus SHIFT;
    each point of a chart-swapped scene is the original point at the swapped
    chart point, with a graph's first two coordinates swapped."""
    for name in ("saddle", "cylinder", "circle_rotation", "segment"):
        before = build_scene(_raw(name))
        moved = build_scene(_translated(_raw(name)))
        M = before.manifold
        x = 0.5 * (M.box[:, 0] + M.box[:, 1]) + np.linspace(0.1, 0.2, M.m)
        shift_x = np.array(SHIFT[: M.m]) if M.kind == "graph" else np.zeros(M.m)
        ts = np.array([0.0, 0.1])
        X = np.tile(x, (2, 1))
        p = before.family.point_many(X, ts)
        assert np.allclose(moved.family.point_many(X + shift_x, ts) - p,
                           SHIFT[: M.n], atol=1e-12)
        if M.m == 2:
            swapped = build_scene(_chart_swapped(_raw(name)))
            q = swapped.family.point_many(X[:, ::-1], ts)
            if M.kind == "graph":
                q[:, :2] = q[:, 1::-1]
            assert np.allclose(q, p, atol=1e-12)


@pytest.mark.parametrize("lam", [1e-3, 1.0, 1e6])
def test_parametric_three_fold_confirmed_under_rescaling(lam):
    """The ruled 3-fold w = xy + z as the parametric chart lam (x, y, z,
    xy + z), swept along its rulings. Its frame norm moves by lam^3, and
    its ruledness samples lie at rounding-level distances that scale with
    lam, beyond a parametric chart's certified tube (0): both must leave
    the verdict alone. The settings keep the lam = 1e6 case, where many
    projections fail to converge and run every Newton step, to 512 queries."""
    s = repr(lam)
    data = {"manifold": {"type": "parametric", "chart_vars": ["x", "y", "z"],
                         "domain": [[-1, 1]] * 3, "ambient_dim": 4,
                         "map": [f"{s}*x", f"{s}*y", f"{s}*z", f"{s}*(x*y + z)"]},
            "family": {"k": 1, "fields": [[s, "0", "0", f"{s}*y"]]},
            "params": {"quad_cells": 4, "samples": 2, "margin": 0.25, "span": 0.5}}
    report = verify_theorem(build_scene(data), seed=0)
    assert report.verdict == "THEOREM_CONFIRMED", report.first_failure
    assert report.steps["ruledness"]["counted"] > 0


def _step_one(data: dict):
    """The step-1 outcome of a scene without a family: "met" when its
    fitted curves osculate and verify stops for the missing family, else
    the first failure."""
    try:
        report = verify_theorem(build_scene(data), seed=0)
    except SceneError as err:
        assert err.pointer == "/family"
        return "met"
    return report.first_failure


def test_family_less_cylinder_osculates_as_its_graph_patch():
    """The cylinder (sin u, cos u, w) as a parametric chart, and the same
    patch as the graph (x, w, sqrt(1 - x^2)) with x = sin u, both fit a
    ruling at every sample: the chart kind decides nothing."""
    cylinder = _raw("cylinder")
    del cylinder["family"]
    graph = {"manifold": {"type": "graph", "chart_vars": ["x", "w"],
                          "domain": [[-0.84, 0.84], [-1, 1]], "ambient_dim": 3,
                          "height": ["sqrt(1 - x^2)"]},
             "params": cylinder["params"]}
    assert _step_one(cylinder) == _step_one(graph) == "met"
