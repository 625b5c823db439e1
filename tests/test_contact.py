import numpy as np
import pytest

from osclab import contact, corpus
from osclab import expr as ex
from osclab.config import Tolerances, geometric_grid
from osclab.contact import (
    MAX_JET_ORDER,
    ExprCurve,
    NotOnManifold,
    PolyCurve,
    PreconditionError,
    contact_order_jet_recharted,
    contact_order_metric,
    length_bound_check,
    monotone_window,
    residual_jets,
    uniform_decay_check,
)
from osclab.exterior import max_minor_rows, solve
from osclab.jets import Jet, jet_eval_many
from osclab.manifold import Submanifold
from osclab.sweep import SweepFamily
from oracles import (
    CERTIFIED_ULPS,
    decay_ratios_by_projection,
    simpson_length,
    sphere_distance,
    substitute,
    taylor_by_diff,
)


@pytest.fixture(scope="module")
def paraboloid():
    return Submanifold.graph(["x", "y"], [[-1, 1], [-1, 1]], ["x^2 + y^2"])


def test_paraboloid_line_order_one(paraboloid):
    line = PolyCurve([[0, 0, 0], [1, 0, 0]], [0, 0])
    order = contact_order_jet_recharted(line, paraboloid, 6)
    assert order.order == 1 and not order.saturated


def test_ruling_line_saturates():
    M = Submanifold.graph(["x", "y"], [[-1, 1], [-1, 1]], ["x*y"])
    x0, y0 = 0.3, -0.4
    line = PolyCurve([[x0, y0, x0 * y0], [1, 0, y0]], [x0, y0])
    order = contact_order_jet_recharted(line, M, 6)
    assert order.saturated and str(order) == ">=6"


def test_cubic_graph_curve_order_two():
    # oracle: Taylor of the residual along (0, t, 0) by repeated symbolic diff
    h = ex.parse("x^2 - y^3")
    residual = substitute(ex.parse("0 - z"), {"z": h})
    along = substitute(residual, {"x": ex.Const(0.0), "y": ex.Var("t")})
    coeffs = taylor_by_diff(along, "t", 0.0, 5)
    assert np.allclose(coeffs, [0, 0, 0, 1, 0, 0])

    M = Submanifold.graph(["x", "y"], [[-1, 1], [-1, 1]], ["x^2 - y^3"])
    order = contact_order_jet_recharted(PolyCurve([[0, 0, 0], [0, 1, 0]], [0, 0]), M, 6)
    assert order.order == 2


@pytest.mark.parametrize("name", ["hyperbolic_paraboloid", "cylinder"])
def test_jet_order_guard(name):
    # the largest order is measured on a graph and through the re-chart;
    # one more raises before any jet work
    scene = corpus.load(name)
    curve = scene.family.curve_at(np.array([0.1, 0.2]))
    assert contact_order_jet_recharted(curve, scene.manifold, MAX_JET_ORDER).saturated
    with pytest.raises(ValueError, match="MAX_JET_ORDER"):
        contact_order_jet_recharted(curve, scene.manifold, MAX_JET_ORDER + 1)
    with pytest.raises(ValueError, match="MAX_JET_ORDER"):
        residual_jets(scene.manifold, curve, MAX_JET_ORDER + 2)


def test_base_point_must_lie_on_manifold(paraboloid):
    with pytest.raises(NotOnManifold, match="off the manifold"):
        contact_order_jet_recharted(PolyCurve([[0, 0, 0.5], [1, 0, 0]], [0, 0]),
                                    paraboloid, 4)
    with pytest.raises(NotOnManifold, match="no chart point"):
        contact_order_jet_recharted(PolyCurve([[0, 0, 0], [1, 0, 0]]), paraboloid, 4)


def test_non_graph_rejected_and_rechart_works():
    circle = Submanifold.parametric(
        ["u"], [[0.0, 2 * np.pi]], ["sin(u)", "cos(u)"], 2)
    radial = PolyCurve([[np.sin(0.7), np.cos(0.7)], [np.sin(0.7), np.cos(0.7)]], [0.7])
    assert contact_order_jet_recharted(radial, circle, 4).order == 0

    cylinder = Submanifold.parametric(
        ["u", "w"], [[-1, 1], [-1, 1]], ["sin(u)", "cos(u)", "w"], 3)
    ruling = PolyCurve([[np.sin(0.2), np.cos(0.2), -0.1], [0, 0, 1]], [0.2, -0.1])
    assert contact_order_jet_recharted(ruling, cylinder, 6).saturated


def test_affine_reparametrization_invariance():
    M = Submanifold.graph(["x", "y"], [[-1, 1], [-1, 1]], ["x^2 - y^3"])
    curve = PolyCurve([[0, 0, 0], [0, 1, 0]], [0, 0])
    base = contact_order_jet_recharted(curve, M, 6).order
    for lam in (0.5, -1.0, 3.0):
        scaled = PolyCurve(lam ** np.arange(curve.degree + 1)[:, None] * curve.coeffs,
                           curve.chart)
        order = contact_order_jet_recharted(scaled, M, 6)
        assert order.order == base


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


def test_metric_contained_on_ruling(monkeypatch):
    # every vertical bound along the ruling is within dist_zero, so the
    # metric order reads contained without a projection
    hp = corpus.load("hyperbolic_paraboloid")
    ruling = hp.family.curve_at(np.array([0.2, 0.4]))
    calls = []
    monkeypatch.setattr(Submanifold, "project_batch", lambda self, P: calls.append(P))
    mo = contact_order_metric(ruling, hp.manifold)
    assert mo.contained and mo.slope is None
    assert calls == []


def test_metric_transverse_slope_one():
    plane = Submanifold.graph(["x", "y"], [[-1, 1], [-1, 1]], ["0"])
    vertical = PolyCurve([[0, 0, 0], [0, 0, 1]])
    mo = contact_order_metric(vertical, plane)
    assert mo.slope == pytest.approx(1.0, abs=0.05)
    assert mo.order == 0


def test_metric_partly_settled_matches_projection(routes):
    # (t, 0, t - 0.1) meets the plane at the node t = 0.1, whose vertical
    # bound 0 settles it; the other 7 nodes descend from their vertical
    # foot, a stationary point already, and the plane's infinite reach
    # bound certifies it, so none is projected. The fit is the one over the
    # projected distances of all 8, bit for bit
    plane = Submanifold.graph(["x", "y"], [[-1, 1], [-1, 1]], ["0"])
    curve = PolyCurve([[0, 0, -0.1], [1, 0, 1]])
    ts = geometric_grid()
    ds = plane.project_batch(curve(ts)).distance
    live = ds > Tolerances().dist_zero
    slope = np.polyfit(np.log(ts[live]), np.log(ds[live]), 1)[0]
    mo = contact_order_metric(curve, plane)
    (route,) = routes
    assert route["projected"] == []
    assert [len(q) for q in route["descended"]] == [7]
    assert (mo.slope, mo.order, mo.contained) == (slope, 0, False)
    assert mo.slope == pytest.approx(-0.054777900227049585, rel=1e-12)
    assert mo.distances[1] == 0.0
    assert np.array_equal(mo.distances, ds)


class _Unanchored:
    """A curve with its chart point hidden: distances has no start."""
    chart = None

    def __init__(self, curve):
        self.curve = curve

    def __call__(self, t):
        return self.curve(t)


@pytest.mark.parametrize("name", [n for n in corpus.names()
                                  if corpus.load(n).family is not None])
def test_metric_reads_the_same_without_the_chart_point(name):
    # following the chart from curve.chart, or projecting every node with
    # no chart point, gives the same containment and order at every verify
    # sample; a graph ignores the chart point, bit for bit
    scene = corpus.load(name)
    M, p = scene.manifold, scene.params
    for x in M.grid(p.samples, margin=p.margin):
        curve = scene.family.curve_at(x)
        got = contact_order_metric(curve, M, tol=p.tol)
        want = contact_order_metric(_Unanchored(curve), M, tol=p.tol)
        assert (got.contained, got.order) == (want.contained, want.order)
        if M.kind == "graph":
            assert np.array_equal(got.distances, want.distances)


def test_metric_reads_the_vertical_residual_off_the_box(monkeypatch):
    # hp's ruling from (0.95, 0.5) leaves the box at t = 0.05: its nodes
    # t = 0.1 and 0.2 lie on the graph of x y past the edge. They read their
    # vertical residual, unprojected, not the distance to the truncated M
    # that projection finds, so the ruling reads contained
    hp = corpus.load("hyperbolic_paraboloid").manifold
    ruling = PolyCurve([[0.95, 0.5, 0.475], [1.0, 0.0, 0.5]])
    ts = geometric_grid()
    P = ruling(ts)
    off = P[:, 0] > 1.0
    assert np.count_nonzero(off) == 2
    calls = []
    project_batch = Submanifold.project_batch
    monkeypatch.setattr(Submanifold, "project_batch",
                        lambda self, Q: calls.append(Q) or project_batch(self, Q))
    mo = contact_order_metric(ruling, hp)
    assert mo.contained and calls == []
    vertical = np.abs(P[:, 2] - P[:, 0] * P[:, 1])
    assert np.array_equal(mo.distances, vertical)
    assert np.all(project_batch(hp, P[off]).distance > 0.04)


# -- uniform decay -----------------------------------------------------------


def test_decay_ruling_family_contained():
    hp = corpus.load("hyperbolic_paraboloid")
    rep = uniform_decay_check(hp.family, 3)
    assert rep.contained and rep.passed
    assert np.max(rep.ratios) < 1e-12


@pytest.mark.parametrize("name, k", [("hyperbolic_paraboloid", 3), ("sphere", 1),
                                     ("cylinder", 1)])
def test_decay_ratios_match_projection(name, k, routes):
    # points whose followed residual is below dist_zero read 0 unprojected,
    # as their projected distances would. The sphere's other points are
    # certified by its reach bound, unprojected, and read their distance to
    # within CERTIFIED_ULPS eps (1 + |p|) of projection's; the ratios of
    # the others match bit for bit
    family = corpus.load(name).family
    rep = uniform_decay_check(family, k)
    oracle = decay_ratios_by_projection(family, k, Tolerances())
    (route,) = routes
    if name != "sphere":
        assert route["descended"] == []
        assert np.array_equal(rep.ratios, oracle)
        return
    assert route["projected"] == [] and [len(q) for q in route["descended"]] == [128]
    ts, X = geometric_grid(), family.M.grid(4, margin=0.15)
    pts = family.point_many(np.tile(X, (len(ts), 1)), np.repeat(ts, len(X)))
    scale = np.max((1.0 + np.linalg.norm(pts, axis=1)).reshape(len(ts), -1), axis=1)
    assert np.all(np.abs(rep.ratios - oracle) <= CERTIFIED_ULPS * np.finfo(float).eps
                  * scale / ts**k)


def test_decay_rotation_reads_its_followed_residual():
    # circle_rotation's points lie on the circle: followed from their own
    # angle they read 0, where projection reads up to ~5e-13 > dist_zero
    # at some t, ratios above decay_floor that would call the exact
    # rotation not contained
    family = corpus.load("circle_rotation").family
    rep = uniform_decay_check(family, 1)
    assert rep.contained and rep.passed and np.all(rep.ratios == 0.0)
    oracle = decay_ratios_by_projection(family, 1, Tolerances())
    assert 0.0 < np.max(oracle) <= 1e-11


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
            assert abs(mo.slope - (jet.order + 1)) <= 0.2, (name, str(jet), mo.slope)


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
    base = M.embed_many(np.array([0.3, -0.6]))
    rng = np.random.default_rng(4)
    tails = rng.standard_normal((4, 3, 2, 3))
    coeffs = np.concatenate([np.broadcast_to(base, (4, 3, 1, 3)), tails], axis=-2)
    got = residual_jets(M, PolyCurve(coeffs, [0.3, -0.6]), 6)
    assert got.shape == (4, 3, 1, 7)
    for index in np.ndindex(4, 3):
        want = residual_jets(M, PolyCurve(coeffs[index], [0.3, -0.6]), 6)
        scale = max(1.0, np.max(np.abs(want)))
        assert np.all(np.abs(got[index] - want) <= 1e-14 * scale)
    # the same on the cylinder, a parametric chart, each curve through its
    # own chart point: the re-chart's tangent rows are (0, 2) where
    # |cos u| > |sin u| and (1, 2) elsewhere, and the stack holds both
    cyl = corpus.load("cylinder").manifold
    chart = rng.uniform(-1, 1, (4, 3, 2))
    assert 0 < np.count_nonzero(np.abs(np.tan(chart[..., 0])) > 1) < 12
    coeffs = np.concatenate([cyl.embed_many(chart)[..., None, :], tails], axis=-2)
    got = residual_jets(cyl, PolyCurve(coeffs, chart), 6)
    assert got.shape == (4, 3, 1, 7)
    for index in np.ndindex(4, 3):
        want = residual_jets(cyl, PolyCurve(coeffs[index], chart[index]), 6)
        scale = max(1.0, np.max(np.abs(want)))
        assert np.all(np.abs(got[index] - want) <= 1e-14 * scale)


@pytest.mark.parametrize("K", [3, 8, 9, 11])
def test_polycurve_values_ignore_the_coefficients_layout(K):
    # numpy sums 8 or more terms in another order when they lie contiguous
    # in memory, so a swapped-axes view of the coefficients and its C-order
    # copy give one curve only if the constructor fixes the layout
    rng = np.random.default_rng(K)
    view = np.swapaxes(rng.standard_normal((5, 3, K)), -1, -2)
    assert not view.flags.c_contiguous
    t = np.linspace(-1.3, 1.3, 41)
    assert np.array_equal(PolyCurve(view)(t), PolyCurve(view.copy())(t))


@pytest.mark.parametrize("name", corpus.names())
def test_stacked_curves_evaluate_as_their_curves(name):
    # a family's curve stack at a vector of parameters, (N, S, n), is bit
    # for bit the loop over its samples' curves, each giving (S, n); at a
    # scalar parameter the stack gives (N, n)
    scene = corpus.load(name)
    X = scene.manifold.grid(scene.params.samples, margin=scene.params.margin)
    svals = np.linspace(-scene.params.span, scene.params.span, 64)
    stack = scene.family.curve_at(X)
    assert isinstance(stack, ExprCurve if name == "circle_rotation" else PolyCurve)
    got = stack(svals)
    assert got.shape == (len(X), len(svals), scene.manifold.n)
    assert np.array_equal(got, np.stack([scene.family.curve_at(x)(svals) for x in X]))
    assert np.array_equal(stack(svals[5]), got[:, 5])


def test_stacked_polycurves_check_every_base_point(paraboloid):
    line = np.array([[0.2, 0.1, 0.05], [1.0, 0.0, 0.4]])
    stack = np.stack([line, line, line])
    residual_jets(paraboloid, PolyCurve(stack, stack[:, 0, :2]), 4)
    off = stack.copy()
    off[2, 0, 2] += 1e-3                 # the last base point leaves the graph
    with pytest.raises(NotOnManifold, match="off the manifold"):
        residual_jets(paraboloid, PolyCurve(off, off[:, 0, :2]), 4)
    outside = stack.copy()
    outside[1, 0] = [1.5, 0.0, 2.25]     # on the surface, outside the box
    with pytest.raises(NotOnManifold, match="outside the box"):
        residual_jets(paraboloid, PolyCurve(outside, outside[:, 0, :2]), 4)


def test_not_on_manifold_names_the_first_bad_curve(paraboloid):
    # a stack fails on its first bad curve, with the message that curve
    # gives alone; rows 1 and 3 leave the graph, rows 2 and 3 the box
    line = np.array([[0.2, 0.1, 0.05], [1.0, 0.0, 0.4]])
    stack = np.stack([line] * 4)
    off = stack.copy()
    off[[1, 3], 0, 2] += [1e-3, 2e-3]
    outside = stack.copy()
    outside[[2, 3], 0] = [[1.5, 0.0, 2.25], [0.0, -1.5, 2.25]]
    for curves, row in ((off, 1), (outside, 2)):
        with pytest.raises(NotOnManifold) as stacked:
            residual_jets(paraboloid, PolyCurve(curves, curves[:, 0, :2]), 4)
        with pytest.raises(NotOnManifold) as alone:
            residual_jets(paraboloid, PolyCurve(curves[row], curves[row, 0, :2]), 4)
        assert (stacked.value.row, alone.value.row) == (row, 0)
        assert str(stacked.value) == str(alone.value)


def test_contact_orders_of_a_stack():
    # one call on a stack gives the list of the orders its curves give alone
    for name in ("hyperbolic_paraboloid", "sphere", "circle_rotation"):
        scene = corpus.load(name)
        M, p = scene.manifold, scene.params
        X = M.grid(p.samples, margin=p.margin)
        orders = contact_order_jet_recharted(scene.family.curve_at(X), M, 5, p.tol)
        alone = [contact_order_jet_recharted(scene.family.curve_at(x), M, 5, p.tol)
                 for x in X]
        assert [str(o) for o in orders] == [str(o) for o in alone], name
        assert all(np.array_equal(a.coeffs, b.coeffs) for a, b in zip(orders, alone))


_CODIM_TWO = ["x", "y", "x*y", "x + y^2"]     # a surface in R^4


@pytest.mark.parametrize("name", [
    "hyperbolic_paraboloid", "paraboloid", "cubic_graph", "sphere",     # graphs
    "cylinder", "circle", "circle_rotation",                            # parametric
    "codim2_graph", "codim2_parametric",
])
def test_linearization_matches_central_differences(name):
    # P is the residual's derivative in the curve's jets, so the residual's
    # derivative in the coefficient c_j of t^j is P shifted up j orders;
    # central differences in each coefficient of a stack of curves agree
    if name == "codim2_graph":
        M = Submanifold.graph(["x", "y"], [[-1, 1], [-1, 1]], _CODIM_TWO[2:])
    elif name == "codim2_parametric":
        M = Submanifold.parametric(["x", "y"], [[-1, 1], [-1, 1]], _CODIM_TWO, 4)
    else:
        M = corpus.load(name).manifold
    # the last point of the first row: there the codimension-2 chart's
    # largest tangent minor is on its curved rows (x*y, x + y^2)
    x = M.grid(3, margin=0.15)[2]
    degree, k = 6, 2
    rng = np.random.default_rng(7)
    tails = 0.3 * rng.standard_normal((3, k, M.n))

    def residual(tails, linearize=False):
        base = np.broadcast_to(M.embed_many(x), (3, 1, M.n))
        curves = PolyCurve(np.concatenate([base, tails], axis=-2), x)
        return residual_jets(M, curves, degree, linearize=linearize)

    res, P = residual(tails, linearize=True)
    assert P.shape == (3, M.n - M.m, M.n, degree + 1)
    assert np.array_equal(res, residual(tails))
    for j, i in np.ndindex(k, M.n):
        h = 1e-6
        up, down = tails.copy(), tails.copy()
        up[:, j, i] += h
        down[:, j, i] -= h
        diff = (residual(up) - residual(down)) / (2 * h)
        exact = np.zeros_like(diff)
        exact[..., j + 1:] = P[..., i, :degree - j]
        scale = max(1.0, float(np.max(np.abs(exact))))
        assert np.max(np.abs(diff - exact)) <= 1e-6 * scale, (name, j, i)


def _full_sweep_rechart(M, u0, G, linearize=False):
    """contact._rechart_residual with all degree + 2 sweeps of its series
    Newton, whatever their corrections: the reference that the stop at a
    zero correction reproduces."""
    degree, batch = G.shape[-1] - 1, G.shape[:-2]
    J0 = M.jacobian_many(u0)
    tangent = np.zeros(J0.shape[:-1], dtype=bool)
    np.put_along_axis(tangent, max_minor_rows(J0), True, axis=-1)
    JT = J0[tangent].reshape(J0.shape[:-2] + (1, M.m, M.m))
    tangent = np.broadcast_to(tangent, G.shape[:-1])

    def components(u, marked):
        rows, out = np.flatnonzero(np.any(marked.reshape(-1, M.n), axis=0)), np.zeros(G.shape)
        out[..., rows, :] = jet_eval_many([M.components[r] for r in rows],
                                          dict(zip(M.chart_vars, u)), batch, degree)
        return out

    u = [Jet.constant(u0[..., i], degree) for i in range(M.m)]
    for _ in range(degree + 2):
        F = (components(u, tangent) - G)[tangent].reshape(batch + (M.m, degree + 1))
        delta = solve(JT, np.swapaxes(F, -1, -2))
        u = [u[i] - Jet(delta[..., i]) for i in range(M.m)]
    res = (G - components(u, ~tangent))[~tangent]
    res = res.reshape(batch + (M.n - M.m, degree + 1))
    if not linearize:
        return res, None
    Ju = jet_eval_many(M.jac_exprs, dict(zip(M.chart_vars, u)), batch, degree)
    Ju = Ju.reshape(G.shape[:-1] + (M.m, degree + 1))
    JTu = Ju[tangent].reshape(batch + (M.m, M.m, degree + 1))
    X = Ju[~tangent].reshape(batch + (M.n - M.m, M.m, degree + 1))
    for o in range(degree + 1):
        if o:
            X[..., o] -= np.einsum("...qab,...acb->...qc", X[..., o - 1::-1],
                                   JTu[..., 1:o + 1])
        X[..., o] = solve(np.swapaxes(JT, -1, -2), X[..., o])
    unit = np.broadcast_to(np.eye(M.n), tangent.shape + (M.n,))
    P = -np.einsum("...qao,...an->...qno", X,
                   unit[tangent].reshape(batch + (M.m, M.n)))
    P[..., 0] += unit[~tangent].reshape(batch + (M.n - M.m, M.n))
    return res, P


@pytest.mark.parametrize("name, x, sweeps", [
    # the stack of cylinder's ruling lines (u, w + t) over the verify grid:
    # the first sweep solves every order, the second corrects by 0
    ("cylinder", None, 2),
    # one circle_rotation curve, (sin(u + t), cos(u + t)) at u = pi
    ("circle_rotation", np.array([np.pi]), 5),
])
def test_rechart_stops_at_its_root(name, x, sweeps, monkeypatch):
    """The re-chart's series Newton ends after its first sweep whose
    correction is exactly zero, where degree + 2 = 8 sweeps would run, and
    its residual and P equal those of all 8 sweeps bit for bit. Each sweep
    evaluates the chart's tangent components once, and the residual its
    normal ones once more."""
    scene = corpus.load(name)
    M, p = scene.manifold, scene.params
    if x is None:
        x = M.grid(p.samples, margin=p.margin)
    curve, degree = scene.family.curve_at(x), 6
    G = curve.jets(degree)
    evaluations = []

    def counted(exprs, env, shape, degree):
        evaluations.append(all(any(e is c for c in M.components) for e in exprs))
        return jet_eval_many(exprs, env, shape, degree)

    monkeypatch.setattr(contact, "jet_eval_many", counted)
    res, P = contact._rechart_residual(M, curve.chart, G, linearize=True)
    assert evaluations.count(True) == sweeps + 1
    monkeypatch.setattr(contact, "jet_eval_many", jet_eval_many)
    want_res, want_P = _full_sweep_rechart(M, curve.chart, G, linearize=True)
    assert res.tobytes() == want_res.tobytes()
    assert P.tobytes() == want_P.tobytes()
    assert np.array_equal(residual_jets(M, curve, degree), res)
