import numpy as np
import pytest

from osclab import corpus
from osclab import expr as ex
from osclab.contact import (
    ExprCurve,
    NonGraphChart,
    NotOnManifold,
    PolyCurve,
    PreconditionError,
    contact_order_jet,
    contact_order_jet_recharted,
    contact_order_metric,
    length_bound_check,
    monotone_window,
    residual_jets,
    uniform_decay_check,
)
from osclab.manifold import Submanifold
from osclab.sweep import SweepFamily
from oracles import simpson_length, sphere_distance, substitute, taylor_by_diff


@pytest.fixture(scope="module")
def paraboloid():
    return Submanifold.graph(["x", "y"], [[-1, 1], [-1, 1]], ["x^2 + y^2"])


def test_paraboloid_line_order_one(paraboloid):
    line = PolyCurve([[0, 0, 0], [1, 0, 0]])
    order = contact_order_jet(line, paraboloid, 6)
    assert order.order == 1 and not order.saturated


def test_ruling_line_saturates():
    M = Submanifold.graph(["x", "y"], [[-1, 1], [-1, 1]], ["x*y"])
    x0, y0 = 0.3, -0.4
    line = PolyCurve([[x0, y0, x0 * y0], [1, 0, y0]])
    order = contact_order_jet(line, M, 6)
    assert order.saturated and str(order) == ">=6"


def test_cubic_graph_curve_order_two():
    # oracle: Taylor of the residual along (0, t, 0) by repeated symbolic diff
    h = ex.parse("x^2 - y^3")
    residual = substitute(ex.parse("0 - z"), {"z": h})
    along = substitute(residual, {"x": ex.Const(0.0), "y": ex.Var("t")})
    coeffs = taylor_by_diff(along, "t", 0.0, 5)
    assert np.allclose(coeffs, [0, 0, 0, 1, 0, 0])

    M = Submanifold.graph(["x", "y"], [[-1, 1], [-1, 1]], ["x^2 - y^3"])
    order = contact_order_jet(PolyCurve([[0, 0, 0], [0, 1, 0]]), M, 6)
    assert order.order == 2


def test_base_point_must_lie_on_manifold(paraboloid):
    with pytest.raises(NotOnManifold):
        contact_order_jet(PolyCurve([[0, 0, 0.5], [1, 0, 0]]), paraboloid, 4)


def test_non_graph_rejected_and_rechart_works():
    circle = Submanifold.parametric(
        ["u"], [[0.0, 2 * np.pi]], ["sin(u)", "cos(u)"], 2)
    radial = PolyCurve([[np.sin(0.7), np.cos(0.7)], [np.sin(0.7), np.cos(0.7)]])
    with pytest.raises(NonGraphChart):
        contact_order_jet(radial, circle, 4)
    assert contact_order_jet_recharted(radial, circle, 4).order == 0

    cylinder = Submanifold.parametric(
        ["u", "w"], [[-1, 1], [-1, 1]], ["sin(u)", "cos(u)", "w"], 3)
    ruling = PolyCurve([[np.sin(0.2), np.cos(0.2), -0.1], [0, 0, 1]])
    assert contact_order_jet_recharted(ruling, cylinder, 6).saturated


def test_affine_reparametrization_invariance():
    M = Submanifold.graph(["x", "y"], [[-1, 1], [-1, 1]], ["x^2 - y^3"])
    curve = PolyCurve([[0, 0, 0], [0, 1, 0]])
    base = contact_order_jet(curve, M, 6).order
    for lam in (0.5, -1.0, 3.0):
        assert contact_order_jet(curve.reparametrized(lam), M, 6).order == base


def test_metric_order_sphere_tangent():
    # closed-form oracle: d((1, t, 0)-style tangent line) = sqrt(1+t^2) - 1
    ts = 0.2 * 0.5 ** np.arange(8)
    oracle = np.array([sphere_distance([t, 0.0, 1.0]) for t in ts])
    slope = np.polyfit(np.log(ts), np.log(oracle), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.05)

    sphere = corpus.load("sphere")
    tangent = sphere.family.curve_at(np.array([0.0, 0.0]))
    mo = contact_order_metric(tangent, sphere.manifold)
    assert mo.slope == pytest.approx(2.0, abs=0.1)
    assert mo.order == 1


def test_metric_contained_on_ruling():
    hp = corpus.load("hyperbolic_paraboloid")
    ruling = hp.family.curve_at(np.array([0.2, 0.4]))
    mo = contact_order_metric(ruling, hp.manifold)
    assert mo.contained


def test_metric_transverse_slope_one():
    plane = Submanifold.graph(["x", "y"], [[-1, 1], [-1, 1]], ["0"])
    vertical = PolyCurve([[0, 0, 0], [0, 0, 1]])
    mo = contact_order_metric(vertical, plane)
    assert mo.slope == pytest.approx(1.0, abs=0.05)
    assert mo.order == 0


# -- uniform decay -----------------------------------------------------------


def test_decay_ruling_family_contained():
    hp = corpus.load("hyperbolic_paraboloid")
    rep = uniform_decay_check(hp.family, 3)
    assert rep.contained and rep.passed
    assert np.max(rep.ratios) < 1e-12


def test_decay_sphere_tangent_family():
    sphere = corpus.load("sphere")
    rep = uniform_decay_check(sphere.family, 1)
    assert rep.passed and not rep.contained
    assert rep.ratios[-1] < 0.1 * rep.ratios[0]


def test_decay_constant_normal_fails():
    M = Submanifold.graph(["x", "y"], [[-1, 1], [-1, 1]], ["0"])
    fam = SweepFamily(M, 1, fields=[["0", "0", "1"]])
    rep = uniform_decay_check(fam, 1)
    assert not rep.passed
    assert not rep.hypothesis_met  # order 0 < 1, which is why decay fails
    assert rep.message == "does not decay"
    # d/t is identically 1 for the unit normal motion
    assert np.allclose(rep.ratios, 1.0, atol=1e-6)


def test_decay_reports_unmet_order_hypothesis():
    sphere = corpus.load("sphere")
    rep = uniform_decay_check(sphere.family, 2)
    assert not rep.hypothesis_met
    assert not rep.passed


# -- monotone window ---------------------------------------------------------


def test_window_line_inside_plane_is_full():
    plane = corpus.load("plane")
    curve = plane.family.curve_at(np.array([0.0, 0.0]))
    assert monotone_window(curve, plane.manifold, eps_max=0.5) == 0.5


def test_window_sphere_tangent():
    sphere = corpus.load("sphere")
    curve = sphere.family.curve_at(np.array([0.0, 0.0]))
    assert monotone_window(curve, sphere.manifold, eps_max=0.4) >= 0.1


def test_window_square_displacement():
    M = Submanifold.graph(["x", "y"], [[-2, 2], [-2, 2]], ["0"])
    curve = PolyCurve([[0, 0, 0], [1, 0, 0], [0, 0, 1]])  # f_3(t) = -t^2
    assert monotone_window(curve, M, eps_max=0.5) == 0.5


# -- length bound ------------------------------------------------------------


def test_length_bound_parabola_matches_quadrature():
    curve = PolyCurve([[0, 0], [1, 0], [0, 1]])
    oracle = simpson_length(curve, 0.0, 1.0)
    lb = length_bound_check(curve, 0.0, 1.0)
    assert lb.length == pytest.approx(oracle, abs=1e-6)
    assert lb.length == pytest.approx(1.4789, abs=1e-3)
    assert lb.bound == pytest.approx(2 * np.sqrt(2.0))
    assert lb.holds


def test_length_bound_straight_segment():
    curve = PolyCurve([[1, 2, 3], [0.3, -0.2, 0.9]])
    lb = length_bound_check(curve, 0.0, 1.0)
    delta = np.linalg.norm([0.3, -0.2, 0.9])
    assert lb.length == pytest.approx(delta, rel=1e-10)
    assert lb.bound == pytest.approx(3 * delta)
    assert lb.holds


def test_length_bound_rejects_non_monotone():
    with pytest.raises(PreconditionError):
        length_bound_check(ExprCurve(["sin(t)"]), 0.0, np.pi)


def test_length_bound_random_monotone_curves():
    rng = np.random.default_rng(31415)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        coeffs = rng.uniform(0.0, 1.0, size=(4, n))
        coeffs *= rng.choice([-1.0, 1.0], size=n)
        lb = length_bound_check(PolyCurve(coeffs), 0.0, 1.0)
        assert lb.holds


# -- jet/metric agreement across graph scenes --------------------------------


def _graph_suite():
    suite = []
    for name in ("plane", "sphere", "hyperbolic_paraboloid", "saddle",
                 "paraboloid", "cubic_graph", "segment"):
        scene = corpus.load(name)
        for x in scene.manifold.grid(2, margin=0.3)[:1]:
            suite.append((name, scene.manifold, scene.family.curve_at(x)))
    parabola = Submanifold.graph(["x"], [[-1, 1]], ["x^2"])
    fam_p = SweepFamily(parabola, 1, fields=[["1", "2*x"]])
    suite.append(("parabola2d", parabola, fam_p.curve_at(np.array([0.3]))))
    cubic2d = Submanifold.graph(["x"], [[-1, 1]], ["x^3"])
    fam_c = SweepFamily(cubic2d, 1, fields=[["1", "3*x^2"]])
    suite.append(("cubic2d", cubic2d, fam_c.curve_at(np.array([0.4]))))
    sheet = Submanifold.graph(["x", "y"], [[-1, 1], [-1, 1]], ["x^2*y"])
    fam_s = SweepFamily(sheet, 1, fields=[["0", "1", "x^2"]])
    suite.append(("sheet", sheet, fam_s.curve_at(np.array([0.3, -0.2]))))
    return suite


def test_jet_and_metric_agree_on_graph_suite():
    suite = _graph_suite()
    assert len(suite) >= 10
    for name, M, curve in suite:
        jet = contact_order_jet_recharted(curve, M, 6)
        mo = contact_order_metric(curve, M)
        if mo.contained:
            assert jet.saturated, name
        elif abs(mo.slope - round(mo.slope)) <= 0.2:
            assert mo.agrees_with(jet), (name, str(jet), mo.slope)


def test_window_tube_exit_on_ambiguous_curve():
    from osclab.contact import TubeExit
    M = Submanifold.graph(["x"], [[-2, 2]], ["x^2"])
    # constant curve sitting at the two-feet point of the parabola
    stuck = PolyCurve([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(TubeExit):
        monotone_window(stuck, M, eps_max=0.25)


def test_stacked_polycurves_match_one_by_one():
    # a (4, 3, deg+1, n) stack of curves through one point of a graph with
    # a quotient and a square root in its height
    M = Submanifold.graph(["x", "y"], [[-1, 1], [-1, 1]],
                          ["x*y^2 / (2 + x) + sqrt(1 + x^2)"])
    base = M.embed(np.array([0.3, -0.6]))
    rng = np.random.default_rng(4)
    tails = rng.standard_normal((4, 3, 2, 3))
    coeffs = np.concatenate([np.broadcast_to(base, (4, 3, 1, 3)), tails], axis=-2)
    got, chart = residual_jets(M, PolyCurve(coeffs), 6)
    assert got.shape == (4, 3, 1, 7)
    assert np.array_equal(chart, np.broadcast_to(base[:2], (4, 3, 2)))
    for index in np.ndindex(4, 3):
        want, _ = residual_jets(M, PolyCurve(coeffs[index]), 6)
        scale = max(1.0, np.max(np.abs(want)))
        assert np.all(np.abs(got[index] - want) <= 1e-14 * scale)


def test_stacked_polycurves_check_every_base_point(paraboloid):
    line = np.array([[0.2, 0.1, 0.05], [1.0, 0.0, 0.4]])
    stack = np.stack([line, line, line])
    residual_jets(paraboloid, PolyCurve(stack), 4)
    off = stack.copy()
    off[2, 0, 2] += 1e-3                 # the last base point leaves the graph
    with pytest.raises(NotOnManifold, match="off the graph"):
        residual_jets(paraboloid, PolyCurve(off), 4)
    outside = stack.copy()
    outside[1, 0] = [1.5, 0.0, 2.25]     # on the surface, outside the box
    with pytest.raises(NotOnManifold, match="outside the box"):
        residual_jets(paraboloid, PolyCurve(outside), 4)
