import re

import numpy as np
import pytest

from osclab import corpus, manifold
from osclab import expr as ex
from osclab.manifold import (
    GAUSS_NEWTON_MAX_ITER,
    PROJECT_DIST_TOL,
    PROJECT_FOOT_TOL,
    AmbiguousProjection,
    BatchProjection,
    ImmersionError,
    OutOfDomain,
    Submanifold,
    _where_defined,
    gauss_newton,
)
from osclab.osculate import ruledness_points
from osclab.scene import build_scene
from oracles import (
    assert_certified_like_projection,
    dense_distance_min,
    grid_min_1d,
    grid_min_2d,
    tube_level_passes,
    tube_probes,
    tube_radius_every_level,
)

#: the ruled 3-fold w = xy + z in R^4, swept along its rulings
RULED_3FOLD = {"manifold": {"type": "graph", "chart_vars": ["x", "y", "z"],
                            "domain": [[-1, 1]] * 3, "ambient_dim": 4,
                            "height": ["x*y + z"]},
               "family": {"k": 1, "fields": [["1", "0", "0", "y"]]},
               "params": {"quad_cells": 4}}


@pytest.fixture(scope="module")
def plane():
    return Submanifold.graph(["x", "y"], [[-2, 2], [-2, 2]], ["0"])


@pytest.fixture(scope="module")
def sphere_cap():
    return Submanifold.graph(["x", "y"], [[-0.5, 0.5], [-0.5, 0.5]],
                             ["sqrt(1 - x^2 - y^2)"])


@pytest.fixture(scope="module")
def hp():
    return Submanifold.graph(["x", "y"], [[-1, 1], [-1, 1]], ["x*y"])


def test_chart_eval_graph(hp):
    assert np.allclose(hp.chart_eval([1.0, 2.0 / 2]), [1.0, 1.0, 1.0])
    M = Submanifold.graph(["x", "y"], [[-2, 2], [-2, 2]], ["x*y"])
    assert np.allclose(M.chart_eval([1.0, 2.0]), [1.0, 2.0, 2.0])


def test_chart_eval_parametric_circle():
    M = Submanifold.parametric(["th"], [[0.0, 6.30]], ["cos(th)", "sin(th)"], 2)
    assert np.allclose(M.chart_eval([0.0]), [1.0, 0.0])


def test_chart_eval_paraboloid_origin():
    M = Submanifold.graph(["x", "y"], [[-1, 1], [-1, 1]], ["x^2 + y^2"])
    assert np.allclose(M.chart_eval([0.0, 0.0]), [0.0, 0.0, 0.0])


def test_chart_eval_out_of_box(hp):
    with pytest.raises(OutOfDomain):
        hp.chart_eval([3.0, 0.0])


def test_reserved_time_variable():
    with pytest.raises(ValueError):
        Submanifold.graph(["t"], [[0, 1]], ["0"])


@pytest.mark.parametrize("build, message", [
    (lambda: Submanifold("graph", ["x", "x"], [[0, 1]] * 2, ["x", "x", "x"], 3),
     "chart variable names must be unique"),
    (lambda: Submanifold.graph(["x"], [[1, 0]], ["x^2"]),
     "domain box must be m nonempty intervals"),
    (lambda: Submanifold.graph(["x", "y"], [[0, 1]], ["x*y"]),
     "domain box must be m nonempty intervals"),
    (lambda: Submanifold("graph", ["x"], [[0, 1]], ["x", "x^2"], 3),
     "component count must equal the ambient dimension"),
    (lambda: Submanifold.graph(["x"], [[0, 1]], ["x*y"]),
     "undeclared variables ['y'] in chart map"),
    (lambda: Submanifold.graph(["x"], [[0, 1]], ["x^2"], ambient_dim=3),
     "graph ambient dimension must be m + #heights"),
])
def test_chart_rejects_bad_input(build, message):
    # scene.py refuses these first; a direct library call reaches the checks
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_chart_with_more_seeds_than_a_chunk_fails_fast(monkeypatch):
    # projection seeds each query at all 9^m cells in one chunk: at m = 6
    # that is 531,441 rows, above PROJECT_CHUNK_ROWS = 131,072, so the chart
    # is refused before its first derivative; m = 5 (59,049) builds
    def no_diff(*args):
        raise AssertionError("the chart was differentiated")

    names = [f"x{i}" for i in range(6)]
    with monkeypatch.context() as mp:
        mp.setattr(ex, "diff", no_diff)
        with pytest.raises(ValueError, match="531441 projection seeds, more than "
                                             "PROJECT_CHUNK_ROWS = 131072"):
            Submanifold.graph(names, [[-1, 1]] * 6, ["x0*x1"])
        with pytest.raises(ValueError, match="531441 projection seeds"):
            Submanifold.parametric(names, [[-1, 1]] * 6, names + ["x0*x1"], 7)
    for m in range(1, 6):
        graph = Submanifold.graph(names[:m], [[-1, 1]] * m, ["x0^2"])
        chart = Submanifold.parametric(names[:m], [[-1, 1]] * m, names[:m] + ["x0^2"], m + 1)
        for M in (graph, chart):
            assert (M.m, M.n, len(M.hess_exprs)) == (m, m + 1, (m + 1) * m * m)


def test_nearest_point_sphere(sphere_cap):
    r = sphere_cap.nearest_point([0.0, 0.0, 2.0])
    assert np.allclose(r.point, [0.0, 0.0, 1.0], atol=1e-10)
    assert r.distance == pytest.approx(1.0, abs=1e-12)
    assert not r.on_boundary


def test_nearest_point_plane(plane):
    r = plane.nearest_point([1.0, 2.0, 3.0])
    assert np.allclose(r.point, [1.0, 2.0, 0.0], atol=1e-12)
    assert r.distance == pytest.approx(3.0, abs=1e-12)


def test_nearest_point_stationarity(sphere_cap):
    p = np.array([0.1, 0.2, 1.7])
    r = sphere_cap.nearest_point(p)
    resid = np.linalg.norm((p - r.point) @ sphere_cap.jacobian_many(r.chart))
    assert resid <= 1e-10 * (1.0 + np.linalg.norm(p))


def test_parabola_two_feet_is_ambiguous():
    # oracle: brute-force minimization of x^2 + (x^2-1)^2 over [-2, 2]
    feet, vmin = grid_min_1d(lambda x: x**2 + (x**2 - 1.0) ** 2, -2.0, 2.0, 1e-5)
    assert len(feet) == 2
    assert feet[0] == pytest.approx(-1.0 / np.sqrt(2.0), abs=1e-4)
    assert feet[1] == pytest.approx(+1.0 / np.sqrt(2.0), abs=1e-4)

    M = Submanifold.graph(["x"], [[-2, 2]], ["x^2"])
    with pytest.raises(AmbiguousProjection):
        M.nearest_point([0.0, 1.0])
    # distance is still well defined and matches the oracle
    assert M.project_batch([0.0, 1.0]).distance[0] == pytest.approx(np.sqrt(vmin), abs=1e-10)


def test_distance_on_manifold_grid(sphere_cap, hp):
    for M in (sphere_cap, hp):
        assert np.all(M.project_batch(M.embed_many(M.grid(4, margin=0.05))).distance
                      <= 1e-10)


def test_distance_graph_epsilon():
    M = Submanifold.graph(["x", "y"], [[-1, 1], [-1, 1]], ["x*y"])
    eps = 1e-3
    oracle = np.sqrt(grid_min_2d(
        lambda X, Y: X**2 + Y**2 + (X * Y - eps) ** 2, [[-1, 1], [-1, 1]], 1e-3))
    assert oracle == pytest.approx(eps, abs=1e-6)
    assert M.project_batch([0.0, 0.0, eps]).distance[0] == pytest.approx(eps, abs=1e-9)


def test_triangle_consistency(hp):
    rng = np.random.default_rng(17)
    P = rng.uniform(-1.2, 1.2, size=(12, 3))
    Q = P + rng.normal(scale=0.3, size=P.shape)
    dp = hp.project_batch(P).distance
    dq = hp.project_batch(Q).distance
    gap = np.linalg.norm(P - Q, axis=1)
    assert np.all(np.abs(dp - dq) <= gap + 1e-9)


def test_graph_normal_displacement(sphere_cap):
    x = np.array([0.1, -0.2])
    base = sphere_cap.embed_many(x)
    q, _ = np.linalg.qr(sphere_cap.jacobian_many(x), mode="complete")
    delta = np.array([1e-4, 1e-2, 0.1])
    d = sphere_cap.project_batch(base + delta[:, None] * q[:, sphere_cap.m]).distance
    assert np.all(d <= delta + 1e-12)


def _vertical(M, P):
    """|p_N - h(p_T)| for the rows of P on the graph M; NaN where h is
    undefined at p_T."""
    P = np.asarray(P, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        C = manifold._where_defined(M.embed_many, P[:, :M.m])
        return np.linalg.norm(P[:, M.m:] - C[:, M.m:], axis=1)


def _distances_stubbed(M, P, settle, monkeypatch, start=None):
    """M.distances(P, settle, start) with project_batch stubbed: a projected
    row reads distance -1 and is not eligible. Returns distance, eligible,
    the queries of each project_batch call and, for each _descend call,
    its queries and its result (X, converged, embedding)."""
    projected, descents = [], []
    descend = Submanifold._descend

    def stub(self, Q):
        projected.append(Q)
        no = np.zeros(len(Q), dtype=bool)
        return BatchProjection(np.zeros((len(Q), self.m)), np.zeros((len(Q), self.n)),
                               np.full(len(Q), -1.0), no, no, no)

    def spy(self, X, Q):
        out = descend(self, X, Q)
        descents.append((Q, *out))
        return out

    with monkeypatch.context() as mp:
        mp.setattr(Submanifold, "project_batch", stub)
        mp.setattr(Submanifold, "_descend", spy)
        distance, eligible = M.distances(P, settle, start)
    return distance, eligible, projected, descents


def _assert_routes(M, P, settle, monkeypatch, projected_rows=None, excluded_rows=()):
    """distances settles the rows within `settle` at |p_N - h(p_T)|, bit
    for bit, eligible but for excluded_rows. It descends once from the
    vertical foot on exactly the other rows with finite coordinates when the
    reach bound R is positive, and certifies those whose descent converges
    below R less REACH_MARGIN; they read the descent's distance, compared
    with project_batch by assert_certified_like_projection. It projects the
    rest, exactly projected_rows where given, once. Returns the masks of the
    certified and the projected rows."""
    P = np.asarray(P, dtype=float)
    distance, eligible, calls, descents = _distances_stubbed(M, P, settle, monkeypatch)
    if M.kind == "graph":
        beyond = ~(_vertical(M, P) <= settle)
    else:  # followed from no start, a parametric chart settles no row
        beyond = np.ones(len(P), dtype=bool)
    descended = beyond & np.all(np.isfinite(P), axis=1) & (M.reach_bound() > 0.0)
    certified = np.zeros(len(P), dtype=bool)
    assert len(descents) == int(np.any(descended))
    if descents:
        Q, _, conv, C = descents[0]
        assert np.array_equal(Q, P[descended])
        d = np.linalg.norm(Q - C, axis=1)
        certified[descended] = conv & (d < M.reach_bound() * (1.0 - manifold.REACH_MARGIN))
    rest = beyond & ~certified
    if projected_rows is not None:
        want = np.zeros(len(P), dtype=bool)
        want[projected_rows] = True
        assert np.array_equal(rest, want)
    out = np.zeros(len(P), dtype=bool)
    out[list(excluded_rows)] = True
    assert len(calls) == int(np.any(rest))
    assert not calls or np.array_equal(calls[0], P[rest], equal_nan=True)
    assert np.all(distance[rest] == -1.0) and not np.any(eligible[rest])
    assert np.array_equal(distance[~beyond], _vertical(M, P[~beyond]))
    assert np.array_equal(eligible[~beyond], ~out[~beyond])
    if np.any(certified):
        assert_certified_like_projection(M, P[certified], distance[certified],
                                         eligible[certified])
    return certified, rest


@pytest.mark.parametrize("name", ["sphere", "cubic_graph", "paraboloid"])
def test_distances_settle_by_the_vertical_distance(name, monkeypatch):
    # seeded points near M: a settled distance is one to the vertical foot,
    # a point of M, so never below the projected distance by more than its
    # tie slack. Those within `settle` whose p_T is off the box or in its
    # edge band are excluded unprojected. Every row beyond `settle` lies
    # within the reach bound and descends to a certified foot, so none is
    # projected
    M = corpus.load(name).manifold
    rng = np.random.default_rng(11)
    X = rng.uniform(M.box[:, 0], M.box[:, 1], size=(200, M.m))
    P = M.embed_many(X) + rng.normal(scale=0.05, size=(200, M.n))
    edge = M._on_edge(P[:, :M.m])
    assert 0 < np.count_nonzero(edge) < len(P)
    vertical = _vertical(M, P)
    settle = float(np.median(vertical[~edge]))
    beyond = ~(vertical <= settle)
    assert np.count_nonzero(edge & ~beyond) == {"paraboloid": 0}.get(name, 3)
    certified, _ = _assert_routes(M, P, settle, monkeypatch, [], edge & ~beyond)
    assert np.array_equal(certified, beyond) and np.count_nonzero(beyond) == 103
    distance, _ = M.distances(P, settle)
    d = M.project_batch(P).distance
    inside = ~beyond & ~edge
    assert np.all(distance[inside] >= d[inside] - PROJECT_DIST_TOL * (1.0 + d[inside]))


def test_distances_project_where_the_vertical_distance_cannot_stand_in(hp, monkeypatch):
    cylinder = corpus.load("cylinder").manifold
    P = cylinder.embed_many(cylinder.grid(3, margin=0.2))
    _assert_routes(cylinder, P, 1.0, monkeypatch, np.arange(len(P)))
    # hp's box is [-1, 1]^2, side 2: points on M off the box, in its edge
    # band (within 1e-9 * side of an edge) and just inside it. Within
    # `settle` the first five have left the chart, unprojected
    T = np.array([[1.5, 0.0], [-1.0 - 1e-3, 0.2], [1.0 - 1e-9, 0.1],
                  [0.3, -1.0 + 1e-9], [-1.0, 0.0], [1.0 - 4e-9, 0.1]])
    P = np.column_stack([T, T[:, 0] * T[:, 1] + 0.25])
    _assert_routes(hp, P, 1.0, monkeypatch, [], np.arange(5))
    assert hp.distances(P[5:], 1.0)[0][0] == 0.25
    # the band is where projection flags the feet of these points on_boundary
    assert np.all(hp.project_batch(P[2:5] - [0, 0, 0.25]).on_boundary)
    # a height or a normal coordinate that is not finite
    _assert_routes(hp, [[0.1, 0.2, np.nan], [np.nan, 0.2, 0.0], [0.1, 0.2, np.inf],
                        [0.1, 0.2, 0.3]], 1.0, monkeypatch, [0, 1, 2])
    steep = Submanifold.graph(["x"], [[0.0, 1000.0]], ["exp(x)"])
    _assert_routes(steep, [[800.0, 0.0], [1.0, np.e]], 1.0, monkeypatch, [0])
    assert steep.distances([[1.0, np.e]], 1.0)[0][0] == abs(np.e - np.exp(1.0))
    # a height the chart cannot evaluate is projected alone: (0.5, 2.0) on
    # 1/x settles at 0, and the projection of (0, 1) raises
    pole = Submanifold.graph(["x"], [[-1.0, 1.0]], ["1/x"])
    _assert_routes(pole, [[0.0, 1.0], [0.5, 2.0]], 1.0, monkeypatch, [0])
    assert pole.distances([[0.5, 2.0]], 1.0)[0][0] == 0.0
    with pytest.raises(ex.DomainError):
        pole.distances([[0.0, 1.0], [0.5, 2.0]], 1.0)
    # a vertical distance just above `settle`, in the box or not: every row
    # lies within hp's reach bound 0.707 and descends to a certified foot,
    # and none is projected
    certified, _ = _assert_routes(hp, P, 0.25 - 1e-12, monkeypatch, [])
    assert np.all(certified)


def test_distances_certify_only_within_the_reach_bound(monkeypatch):
    # the sphere cap's reach bound R is 0.253: points 0.2, 0.3 and R above
    # the pole descend to it, and only the one within the bound is
    # certified, as is one about 0.19 off the cap elsewhere. Rows whose
    # descent does not converge are projected: here every second row's
    # descent is read unconverged
    M = corpus.load("sphere").manifold
    R = M.reach_bound()
    P = np.array([[0.0, 0.0, 1.2], [0.0, 0.0, 1.3], [0.0, 0.0, 1.0 + R],
                  [0.1, 0.2, 1.2 * np.sqrt(0.95)]])
    certified, _ = _assert_routes(M, P, 0.0, monkeypatch, [1, 2])
    assert np.array_equal(certified, [True, False, False, True])
    descend = Submanifold._descend

    def unconverged(self, X, Q):
        X, conv, C = descend(self, X, Q)
        conv[::2] = False
        return X, conv, C

    monkeypatch.setattr(Submanifold, "_descend", unconverged)
    _assert_routes(M, P, 0.0, monkeypatch, [0, 1, 2])


@pytest.mark.parametrize("lam", [1e-3, 1e3])
@pytest.mark.parametrize("name", ["sphere", "cubic_graph"])
def test_distances_certify_under_rescaling(name, lam, monkeypatch):
    # the scene scaled by lam, heights lam h(x / lam) over lam times the
    # box, and a seeded cloud scaled with it: the reach bound scales by lam
    # (up to rounding), and all 150 rows beyond `settle` are certified,
    # each eligible exactly where projection counts it
    raw = corpus.load(name).manifold
    h = {"sphere": "sqrt(1 - (x/L)^2 - (y/L)^2)", "cubic_graph": "(x/L)^2 - (y/L)^3"}[name]
    M = Submanifold.graph(["x", "y"], lam * raw.box, [f"L*({h})".replace("L", repr(lam))])
    assert M.reach_bound() == pytest.approx(lam * raw.reach_bound(), rel=1e-12)
    rng = np.random.default_rng(3)
    X = rng.uniform(M.box[:, 0], M.box[:, 1], size=(300, 2))
    P = M.embed_many(X) + lam * rng.normal(scale=0.05, size=(300, 3))
    vertical = _vertical(M, P)
    settle = float(np.median(vertical))
    edge = M._on_edge(P[:, :2]) & (vertical <= settle)
    certified, projected = _assert_routes(M, P, settle, monkeypatch, None, edge)
    assert np.count_nonzero(certified) == 150 and not np.any(projected)


def test_distances_follow_a_parametric_chart(monkeypatch):
    # cylinder points followed from nearby chart points settle at their
    # Gauss-Newton residual and are eligible, unprojected; those that
    # converge to a chart point off the box or in its edge band, and those
    # with no start, are projected
    cylinder = corpus.load("cylinder").manifold
    rng = np.random.default_rng(5)
    X = rng.uniform(-0.9, 0.9, size=(40, 2))
    X[:4, 1] = [1.2, -1.0 - 1e-3, 1.0 - 1e-10, -1.0]
    P = cylinder.embed_many(X)
    start = X + rng.uniform(-0.05, 0.05, size=X.shape)
    distance, eligible, calls, descents = _distances_stubbed(cylinder, P, 1e-12, monkeypatch,
                                                             start)
    assert descents == []
    assert len(calls) == 1 and np.array_equal(calls[0], P[:4])
    assert np.all(distance[4:] <= 1e-15) and np.all(eligible[4:])
    U, _, _, residual = gauss_newton(_chart(cylinder), start, P)
    assert np.allclose(U, X, atol=1e-12) and np.array_equal(residual[4:], distance[4:])
    # a start on the point's own chart point takes no step
    assert np.array_equal(cylinder.distances(P[4:], 0.0, X[4:])[0], np.zeros(36))
    b = cylinder.project_batch(P)
    distance, eligible = cylinder.distances(P, 1e-12, start)
    assert np.array_equal(distance[:4], b.distance[:4])
    assert np.array_equal(eligible, b.converged & ~b.ambiguous & ~b.on_boundary)


def _chart(M, log=None):
    """gauss_newton's evaluate for c(u) = p on the chart of M, as distances
    runs it; each call's rows and embedding go to `log` when given."""
    def evaluate(V, rows):
        C = _where_defined(M.embed_many, V)
        if log is not None:
            log.append((rows, C.copy()))
        return C, _where_defined(M.jacobian_many, V)
    return evaluate


def test_gauss_newton_takes_no_step_from_a_root():
    # cylinder points from their own chart points: one evaluation, no step;
    # in a batch with rows that do step, the roots are never evaluated again
    cylinder = corpus.load("cylinder").manifold
    X = np.random.default_rng(2).uniform(-0.9, 0.9, size=(6, 2))
    P = cylinder.embed_many(X)
    log = []
    U, C, F, residual = gauss_newton(_chart(cylinder, log), X, P)
    assert len(log) == 1 and np.array_equal(U, X) and np.all(residual == 0.0)
    assert np.array_equal(C, P) and np.array_equal(F, cylinder.jacobian_many(X))
    start = X.copy()
    start[3:] += 0.05
    log = []
    U, _, _, residual = gauss_newton(_chart(cylinder, log), start, P)
    assert np.array_equal(U[:3], X[:3]) and np.all(residual[:3] == 0.0)
    assert 1 < len(log) <= 1 + GAUSS_NEWTON_MAX_ITER
    assert all(np.all(rows >= 3) for rows, _ in log[1:])
    assert np.allclose(U, X, rtol=0, atol=1e-12)


def test_gauss_newton_keeps_its_best_iterate():
    # the circle's angle from the far side: a Gauss-Newton step from
    # u = x + 3 cuts the residual by less than half, so the row stops after
    # it and keeps that lower residual, far from 0; the residual returned is
    # the least over every iterate the row was evaluated at. From x + 0.3
    # the rows converge
    circle = corpus.load("circle").manifold
    x = np.array([1.0, 2.0, 3.0])
    P = circle.embed_many(x[:, None])
    log = []
    U, C, _, residual = gauss_newton(_chart(circle, log), (x + 3.0)[:, None], P)
    seen = [[] for _ in x]
    for rows, Cs in log:
        for r, c in zip(rows, Cs):
            seen[r].append(np.linalg.norm(P[r] - c))
    assert np.array_equal(residual, [min(d) for d in seen])
    assert all(len(d) == 2 for d in seen)  # the start and one step
    assert np.array_equal(C, circle.embed_many(U))
    assert np.all(residual < [d[0] for d in seen]) and np.all(residual > 0.1)
    near, _, _, r = gauss_newton(_chart(circle), (x + 0.3)[:, None], P)
    assert np.allclose(near[:, 0], x, atol=1e-15) and np.all(r <= 1e-15)
    # v^3 = 1 from v = 0.5: the step overshoots to v = 1.67, where the
    # residual is larger, so the row keeps its start
    U, C, _, r = gauss_newton(_cubic, [[0.0, 0.5]], np.array([[1.0, 1.0, 0.0]]))
    assert np.array_equal(U, [[0.0, 0.5]]) and np.array_equal(C, [[0.0, 0.125, 0.0]])
    assert r[0] == np.hypot(1.0, 0.875)


def test_gauss_newton_stops_at_a_non_finite_row(monkeypatch):
    # the chart 1/u evaluated at u = 0 (NaN), and a target with an inf or a
    # NaN entry: each row stops at its start with a residual that is not
    # finite, with no step, error or warning, and the finite row converges
    pole = Submanifold.parametric(["u"], [[0.1, 1.0]], ["u", "1/u"], 2)
    P = np.array([[0.5, 2.0], [np.inf, 2.0], [np.nan, 2.0], [0.5, 2.0]])
    start = np.array([[0.0], [0.5], [0.5], [0.45]])
    log = []
    U, _, _, residual = gauss_newton(_chart(pole, log), start, P)
    assert np.array_equal(U[:3], start[:3]) and not np.any(np.isfinite(residual[:3]))
    assert all(np.array_equal(rows, [3]) for rows, _ in log[1:])
    assert U[3, 0] == pytest.approx(0.5, abs=1e-15) and residual[3] <= 1e-15
    # with no start, distances reads NaN for every row and projects it
    calls = _distances_stubbed(pole, P[[0, 3]], 1.0, monkeypatch)[2]
    assert len(calls) == 1 and np.array_equal(calls[0], P[[0, 3]])


def _cubic(V, rows):
    """gauss_newton's evaluate for c(u, v) = (u, v^3, 0)."""
    u, v = V[:, 0], V[:, 1]
    zero, one = np.zeros_like(u), np.ones_like(u)
    F = np.stack([np.stack([one, zero], 1), np.stack([zero, 3 * v**2], 1),
                  np.stack([zero, zero], 1)], axis=1)
    return np.stack([u, v**3, zero], axis=1), F


def test_gauss_newton_keeps_its_start_where_dc_drops_rank():
    # c(u, v) = (u, v^3, 0): at v = 0 Dc has rank 1, the normal equations
    # are singular, and the step cuts nothing, so the row keeps its start
    # and its frame there; from v = 0.9 the same target is reached
    start = np.array([[0.0, 0.0], [0.0, 0.9]])
    target = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    U, C, F, residual = gauss_newton(_cubic, start, target)
    assert np.array_equal(U[0], start[0]) and residual[0] == np.sqrt(2.0)
    assert np.array_equal(F[0], [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    assert np.allclose(U[1], [1.0, 1.0], rtol=0, atol=1e-9) and residual[1] < 1e-9


@pytest.mark.parametrize("box", [[[-1.0, 1.0], [-1.0, 1.0]], [[0.0, 2.0], [-1.0, 0.5]]])
def test_one_sample_grid_is_the_box_centre(box):
    # reflecting the chart through its box, x -> lo + hi - x, leaves the
    # one sample fixed, whatever the margin
    M = Submanifold.graph(["x", "y"], box, ["x*y"])
    for margin in (0.0, 0.15, 0.5):
        g = M.grid(1, margin=margin)
        assert np.array_equal(M.box.sum(axis=1) - g, g)


def test_immersion_check():
    with pytest.raises(ImmersionError):
        Submanifold.parametric(["u"], [[0, 1]], ["0", "0"], 2)


def test_immersion_check_reads_angles_not_lengths():
    # the chart axes differ in scale by 1e9: the frame norm is 1e-9, but
    # the columns are orthogonal, so the chart is an immersion; parallel
    # columns are refused at any scale
    M = Submanifold.parametric(["u", "v"], [[-1, 1]] * 2, ["1e-9*u", "v", "0"], 3)
    assert M.m == 2
    with pytest.raises(ImmersionError):
        Submanifold.parametric(["u", "v"], [[-1, 1]] * 2,
                               ["1e-9*(u + v)", "1e3*(u + v)", "0"], 3)


def test_tube_radius_values(plane, sphere_cap):
    circle = Submanifold.parametric(
        ["u"], [[0.0, 2 * np.pi]], ["sin(u)", "cos(u)"], 2)
    assert circle.tube_radius() == pytest.approx(np.pi / 4)
    assert sphere_cap.tube_radius() == pytest.approx(0.5)
    assert plane.tube_radius() == pytest.approx(2.0)
    for M in (circle, sphere_cap, plane):
        assert M.tube_radius() == tube_radius_every_level(M)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", corpus.names())
def test_refuted_tube_levels_change_no_radius(name, seed):
    # a level that a seed-cell centre refutes is one that projecting it
    # would fail, so the search that projects every level finds the same rho
    M = corpus.load(name).manifold
    assert M.tube_radius(seed=seed) == tube_radius_every_level(M, seed=seed)


def _tube_search(M, monkeypatch, refute):
    """M.tube_radius() and the levels it projects, each as its queries and
    their BatchProjection. With refute False the search reads `near` as inf,
    so that it refutes no level; project_batch still reads its own."""
    levels, projecting = [], []
    project_batch, near_of = Submanifold.project_batch, Submanifold._near

    def spy(self, P):
        projecting.append(P)
        b = project_batch(self, P)
        levels.append((projecting.pop(), b))
        return b

    def screen(self, P):
        d_centre, near = near_of(self, P)
        return d_centre, (near if refute or projecting else np.full_like(near, np.inf))

    with monkeypatch.context() as mp:
        mp.setattr(Submanifold, "project_batch", spy)
        mp.setattr(Submanifold, "_near", screen)
        return M.tube_radius(), levels


@pytest.mark.parametrize("name", corpus.names())
def test_tube_refutation_changes_no_radius(name, monkeypatch):
    # the search that refutes no level projects each one down to its
    # radius; the search finds the same radius, projects some of those
    # levels, and each level it refutes fails the probe test in projection
    M = corpus.load(name).manifold
    rho, projected = _tube_search(M, monkeypatch, refute=True)
    rho_all, every = _tube_search(M, monkeypatch, refute=False)
    assert rho == rho_all
    A, _, tol = tube_probes(M)
    passed = [tube_level_passes(b, A, tol) for _, b in every]
    assert passed == [False] * (len(every) - 1) + [True]
    kept = [i for i, (P, _) in enumerate(every)
            if any(np.array_equal(P, Q) for Q, _ in projected)]
    assert len(kept) == len(projected) and kept[-1] == len(every) - 1
    for (_, b), i in zip(projected, kept):
        for f in BatchProjection._fields:
            assert np.array_equal(getattr(b, f), getattr(every[i][1], f))


@pytest.mark.parametrize("name, projected", [
    ("saddle", 1), ("paraboloid", 1), ("circle", 1), ("cylinder", 2)])
def test_tube_search_projects_only_unrefuted_levels(name, projected, monkeypatch):
    # projecting every level takes 2, 2, 3 and 2 calls here. The refuted
    # levels are saddle's and paraboloid's rho = 1 and circle's pi and pi/2;
    # cylinder's rho = 1 is not refuted, as its probes near the axis have
    # no centre much nearer than their source, and it fails in projection
    M = corpus.load(name).manifold
    rows = _spy_rows(monkeypatch, "project_batch")
    M.tube_radius()
    assert len(rows) == projected


GRAPHS = [n for n in corpus.names() if corpus.load(n).manifold.kind == "graph"]


@pytest.mark.parametrize("name", GRAPHS)
def test_reach_bound_certifies_the_probed_tube(scenes, name):
    # the certified radius never exceeds the probed one (plane 1 <= 1,
    # hp 0.707 <= 1, saddle and paraboloid 0.354 <= 0.5, sphere
    # 0.253 <= 0.5, cubic_graph 0.158 <= 0.375, segment 0.5 <= 0.5)
    M = scenes[name].manifold
    r_cert = min(M.half_side, M.reach_bound())
    assert 0.0 < r_cert <= M.tube_radius()
    # normal probes at 0.99 r_cert from random interior points, projected
    # once (not through the dyadic search): each converges to its source,
    # and no point of a dense chart grid lies nearer than the source
    rng = np.random.default_rng(5)
    X = rng.uniform(M.box[:, 0], M.box[:, 1], size=(40, M.m))
    A = M.embed_many(X)
    Q, _ = np.linalg.qr(M.jacobian_many(X), mode="complete")
    coeff = rng.normal(size=(40, M.n - M.m))
    coeff /= np.linalg.norm(coeff, axis=1, keepdims=True)
    rho = 0.99 * r_cert
    P = A + rho * np.einsum("pnk,pk->pn", Q[:, :, M.m:], coeff)
    b = M.project_batch(P)
    assert b.converged.all() and not b.ambiguous.any()
    assert np.max(np.linalg.norm(b.point - A, axis=1)) <= 1e-9
    dense, _, _ = dense_distance_min(M.embed_many, M.box, P,
                                     per_axis=2000 if M.m == 1 else 120)
    assert np.all(dense >= rho * (1.0 - 1e-12))


@pytest.mark.parametrize("lam", [1e-3, 1.0, 1e3])
def test_reach_bound_scales_with_the_scene(lam):
    # z = xy/lam over [-lam, lam]^2 is hp scaled by lam: |D^2 h|_F = sqrt(2)/lam
    M = Submanifold.graph(["x", "y"], [[-lam, lam]] * 2, [f"x*y/{lam!r}"])
    assert M.reach_bound() == pytest.approx(lam / np.sqrt(2.0), rel=1e-12)


def test_reach_bound_without_a_certificate():
    # a parametric chart gets none; so does a graph whose Hessian bound
    # leaves its domain (sqrt(x)'' divides by x, and the box holds x = 0)
    assert corpus.load("cylinder").manifold.reach_bound() == 0.0
    assert Submanifold.graph(["x"], [[0, 1]], ["sqrt(x)"]).reach_bound() == 0.0
    assert Submanifold.graph(["x"], [[0.25, 1]], ["sqrt(x)"]).reach_bound() > 0.0


def test_boundary_foot_flagged():
    M = Submanifold.graph(["x", "y"], [[-1, 1], [-1, 1]], ["0"])
    r = M.nearest_point([2.0, 0.0, 1.0])
    assert r.on_boundary
    assert np.allclose(r.point, [1.0, 0.0, 0.0], atol=1e-9)


def test_batch_flags_shapes(hp):
    P = np.array([[0.0, 0.0, 0.5], [2.0, 2.0, -3.0]])
    b = hp.project_batch(P)
    assert b.distance.shape == (2,)
    assert b.converged.dtype == bool and b.ambiguous.dtype == bool


def _ruledness_points(scene):
    p = scene.params
    return ruledness_points(scene.manifold, scene.family.curve_at, p.span,
                            p.samples, p.margin)[2]


def _far_points(M, seed, count=200):
    A = M.embed_many(M.grid(9))
    lo, hi = A.min(axis=0), A.max(axis=0)
    pad = 0.5 * (hi - lo) + 0.5
    return np.random.default_rng(seed).uniform(lo - pad, hi + pad, size=(count, M.n))


def _spy_rows(monkeypatch, name):
    rows = []
    original = getattr(Submanifold, name)

    def spy(self, X, *args):
        rows.append(len(X))
        return original(self, X, *args)

    monkeypatch.setattr(Submanifold, name, spy)
    return rows


def test_line_search_evaluates_only_searching_rows(monkeypatch):
    # one project_batch of saddle's ruledness points, 9 samples x 64 parameters
    M = corpus.load("saddle").manifold
    pts = _ruledness_points(corpus.load("saddle"))
    assert pts.shape == (9 * 64, 3)
    plain = M.project_batch(pts)
    rows = _spy_rows(monkeypatch, "embed_many")
    spied = M.project_batch(pts)
    # a line search that re-evaluates every active row at each halving
    # evaluates 5,740,194 rows here
    assert sum(rows) <= 5_740_194 // 2
    for f in BatchProjection._fields:
        assert np.array_equal(getattr(spied, f), getattr(plain, f))


@pytest.mark.parametrize("name, every", [("saddle", 1), ("ruled_3fold", 8)])
def test_chunked_projection_changes_no_bit(name, every, monkeypatch):
    # ruledness points (every 8th of the 3-fold's 1,728, so that the call
    # in one piece stays small), projected in one piece and then in chunks
    # of 50 queries, the last one shorter
    scene = build_scene(RULED_3FOLD) if name == "ruled_3fold" else corpus.load(name)
    M = scene.manifold
    pts = _ruledness_points(scene)[::every]
    monkeypatch.setattr(manifold, "PROJECT_CHUNK_ROWS", len(pts) * 9**M.m)
    whole = M.project_batch(pts)
    rows = _spy_rows(monkeypatch, "_project_chunk")
    monkeypatch.setattr(manifold, "PROJECT_CHUNK_ROWS", 50 * 9**M.m + 9)
    split = M.project_batch(pts)
    assert rows == [50] * (len(pts) // 50) + [len(pts) % 50]
    for f in BatchProjection._fields:
        assert np.array_equal(getattr(split, f), getattr(whole, f))


def test_each_newton_point_is_evaluated_once(monkeypatch):
    # saddle's ruledness points, with the seed screen already built: every
    # point that _descend evaluates gets one embedding and one Jacobian, so
    # the two see the same rows, and the embedding of the final points
    # comes out of _descend instead of another embed_many. The one other
    # evaluation is the screen's embedding of the q tangent-plane feet,
    # before the first descent
    M = corpus.load("saddle").manifold
    pts = _ruledness_points(corpus.load("saddle"))
    plain = M.project_batch(pts)
    events = []
    for name in ("embed_many", "jacobian_many", "_descend"):
        original = getattr(Submanifold, name)

        def spy(self, X, *args, name=name, original=original):
            out = original(self, X, *args)
            events.append((name, len(X)))
            return out

        monkeypatch.setattr(Submanifold, name, spy)
    spied = M.project_batch(pts)
    assert events[0] == ("embed_many", len(pts))
    newton = events[1:]
    embed = [n for name, n in newton if name == "embed_many"]
    assert embed and embed == [n for name, n in newton if name == "jacobian_many"]
    last = max(i for i, (name, _) in enumerate(newton) if name == "_descend")
    assert all(name != "embed_many" for name, _ in newton[last:])
    for f in BatchProjection._fields:
        assert np.array_equal(getattr(spied, f), getattr(plain, f))


def _tube_probes(M, monkeypatch):
    """The queries of every level that M.tube_radius() projects."""
    probes = []
    original = Submanifold.project_batch

    def spy(self, P):
        probes.append(P)
        return original(self, P)

    monkeypatch.setattr(Submanifold, "project_batch", spy)
    M.tube_radius()
    monkeypatch.setattr(Submanifold, "project_batch", original)
    return np.concatenate(probes)


@pytest.mark.parametrize("name", ["hyperbolic_paraboloid", "saddle", "paraboloid"])
def test_tube_search_runs_no_stalled_rows(name, monkeypatch):
    # the second-order screen drops the far seeds whose rows crept on for
    # all 50 Newton iterations: each search's one projected level now ends
    # after 13, 12 and 14 iterations, one Hessian evaluation each
    M = corpus.load(name).manifold
    hessians = _spy_rows(monkeypatch, "hessian_many")
    M.tube_radius(seed=1)
    assert len(hessians) <= 20


@pytest.mark.parametrize("name", ["saddle", "paraboloid"])
def test_line_search_tries_halvings_in_blocks(name, monkeypatch):
    # the tube search's probes, where some rows halve for all 50 iterations:
    # with a block of steps per evaluation call, each Newton iteration
    # makes at most 4 calls (one halving at a time makes up to 14, 628 on
    # saddle against 1 + 4 * 50)
    M = corpus.load(name).manifold
    P = _tube_probes(M, monkeypatch)
    embeds = _spy_rows(monkeypatch, "embed_many")
    hessians = _spy_rows(monkeypatch, "hessian_many")
    descents = _spy_rows(monkeypatch, "_descend")
    M.project_batch(P)
    assert len(embeds) <= len(descents) + 4 * len(hessians)


@pytest.mark.parametrize("name", ["saddle", "paraboloid", "cylinder"])
def test_line_search_blocks_change_no_bit(name, monkeypatch):
    # no block holds more rows than the first evaluation of its descent
    # (cylinder's 11,017 rows narrow the blocks), and a query alone, which
    # narrows them to its own rows, takes the steps it takes in the batch
    M = corpus.load(name).manifold
    P = _tube_probes(M, monkeypatch)
    embeds = _spy_rows(monkeypatch, "embed_many")
    descents = _spy_rows(monkeypatch, "_descend")
    batch = M.project_batch(P)
    assert max(embeds) <= max(descents)
    for i in range(0, len(P), 10):
        one = M.project_batch(P[i])
        for f in BatchProjection._fields:
            assert np.array_equal(getattr(one, f)[0], getattr(batch, f)[i]), f


def test_screen_runs_few_newton_rows(monkeypatch):
    # saddle's ruledness points: the full grid runs 81 seeds for each of the
    # 576 queries; the screen runs 2,154 of them (the first-order bound
    # alone, against the nearest centre, ran 3,580), and as every query
    # converges within one tie slack of d0, the expansion pass runs for none
    saddle = corpus.load("saddle")
    M = saddle.manifold
    pts = _ruledness_points(saddle)
    plain = M.project_batch(pts)
    rows = _spy_rows(monkeypatch, "_descend")
    spied = M.project_batch(pts)
    full = 9**M.m * len(pts)
    assert len(rows) == 1 and rows[0] <= full // 16
    for f in BatchProjection._fields:
        assert np.array_equal(getattr(spied, f), getattr(plain, f))


def _cell_samples(M, per_axis):
    """per_axis^m chart points spanning each seed cell, edges included, and
    their embeddings (S, per_axis^m, n), NaN where the chart is undefined."""
    axes = []
    for a, b in M.box:
        edges = a + (b - a) / 9 * np.arange(10)
        edges[0], edges[-1] = a, b
        axes.append(np.linspace(edges[:-1], edges[1:], per_axis, axis=1))
    m = M.m
    index = np.meshgrid(*[np.arange(9)] * m, *[np.arange(per_axis)] * m, indexing="ij")
    X = np.stack([axes[k][index[k], index[m + k]] for k in range(m)], axis=-1)
    X = X.reshape(9**m, per_axis**m, m)
    seeds = M._seed_screen().seeds
    assert np.all((X.min(axis=1) < seeds) & (seeds < X.max(axis=1)))
    return manifold._where_defined(M.embed_many, X.reshape(-1, m)).reshape(*X.shape[:2], M.n)


def _screen_scene(name):
    """(manifold, queries): ruledness points where there is a family, points
    around M, and normal probes at distances 0.05 to 1 from it."""
    sqrt_graphs = {"sqrt": "sqrt(x)", "sqrt_shifted": "sqrt(x - 1/18)"}
    if name in sqrt_graphs:
        M = Submanifold.graph(["x"], [[0, 1]], [sqrt_graphs[name]])
        x = np.linspace(0.06, 1.0, 40)
        A = np.stack([x, M.embed_many(x[:, None])[:, 1]], axis=1)
        normal = np.stack([-M.jacobian_many(x[:, None])[:, 1, 0], np.ones_like(x)], axis=1)
        normal /= np.linalg.norm(normal, axis=1, keepdims=True)
        P = np.concatenate([A + s * normal for s in (-0.3, -0.05, 0.02, 0.1, 0.5)])
        far = np.random.default_rng(3).uniform(-0.5, 1.5, size=(100, 2))
        return M, np.concatenate([P, far])
    scene = build_scene(RULED_3FOLD) if name == "ruled_3fold" else corpus.load(name)
    M, every = scene.manifold, 16 if name == "ruled_3fold" else 1
    parts = [_far_points(M, seed=7, count=200 // every)]
    if scene.family is not None:
        parts.append(_ruledness_points(scene)[::every])
    rng = np.random.default_rng(9)
    X = rng.uniform(M.box[:, 0], M.box[:, 1], size=(200 // every, M.m))
    Q, _ = np.linalg.qr(M.jacobian_many(X), mode="complete")
    coeff = rng.normal(size=(len(X), M.n - M.m))
    coeff /= np.linalg.norm(coeff, axis=1, keepdims=True)
    rho = rng.choice([0.05, 0.25, 0.5, 1.0], size=(len(X), 1))
    parts.append(M.embed_many(X) + rho * np.einsum("pnk,pk->pn", Q[:, :, M.m:], coeff))
    return M, np.concatenate(parts)


@pytest.mark.parametrize("name", [*corpus.names(), "ruled_3fold", "sqrt", "sqrt_shifted"])
def test_screen_drops_only_cells_beyond_the_threshold(name):
    # every (query, cell) pair the screen drops has a sampled minimum
    # distance above the keep threshold near + tol (1 + near); the sampled
    # minimum is never below the true one, so a pair that fails here is one
    # the screen could not have dropped. sqrt(x) has no bound of either
    # order on its first cell, and sqrt(x - 1/18) no Jacobian at its centre
    M, P = _screen_scene(name)
    C = _cell_samples(M, 6 if M.m == 3 else 12 if M.m == 2 else 200)
    keep, near = M._screen_cells(P)
    threshold = near + PROJECT_DIST_TOL * (1.0 + near)
    assert np.any(~keep)
    if name == "sqrt_shifted":
        screen = M._seed_screen()
        assert np.isnan(screen.jac[0, 1, 0]) and screen.curv[0] == np.inf
    block = max(1, 2**18 // C[..., 0].size)
    for i in range(0, len(P), block):
        d = np.linalg.norm(P[i:i + block, None, None] - C[None], axis=-1)
        sampled = np.min(np.where(np.isnan(d), np.inf, d), axis=2)
        assert np.all(keep[i:i + block] | (sampled > threshold[i:i + block, None]))


@pytest.mark.parametrize("name", corpus.names())
def test_screen_keeps_the_nearest_foot(scenes, name, monkeypatch):
    M = scenes[name].manifold
    P = np.concatenate([_ruledness_points(scenes[name]), _far_points(M, seed=7)])
    b = M.project_batch(P)
    # oracle: the minimum distance over a dense chart grid, which the global
    # minimum never exceeds and undercuts by at most the grid's slack. Every
    # converged query is held to it, minima on the box edge included:
    # projected Newton converges there as it does inside the box.
    dense, _, grid_slack = dense_distance_min(
        M.embed_many, M.box, P, per_axis=2000 if M.m == 1 else 200)
    held = b.converged
    assert np.count_nonzero(held) >= len(P) // 4
    assert np.all(b.distance[held] <= dense[held] + PROJECT_DIST_TOL * (1.0 + dense[held]))
    assert np.all(b.distance >= dense - grid_slack)
    # reference: Newton from every seed, as with no screen: both lower
    # bounds of every cell are -inf
    screen = M._seed_screen()
    unbounded = np.full_like(screen.slack, np.inf)
    monkeypatch.setattr(M, "_screen", screen._replace(slack=unbounded, curv=unbounded))
    full = M.project_batch(P)
    for flag in ("converged", "ambiguous", "on_boundary"):
        assert np.array_equal(getattr(b, flag), getattr(full, flag)), flag
    assert np.all(np.abs(b.distance - full.distance)
                  <= PROJECT_DIST_TOL * (1.0 + full.distance))
    unique = ~full.ambiguous
    assert np.all(np.linalg.norm(b.point - full.point, axis=1)[unique] <= PROJECT_FOOT_TOL)


@pytest.mark.parametrize("name, p", [
    ("ruled_3fold", (-1.4235, -1.6989, 0.5627, -4.1045)),
    ("sphere", (0.1025, -0.1765, -1.7602)),
])
def test_stationary_point_beyond_the_screen_bound_is_not_converged(name, p):
    # after the expansion pass these queries still end at a stationary point
    # beyond `near` (3.7627 against 3.7408 on w = xy + z; 2.7720 at chart
    # point (-0.058, 0.100) on the sphere, whose nearest point is the corner
    # (0.5, -0.5) at 2.5200). The screen holds a point of M within d0, so
    # Newton has missed the nearest foot and the row is not converged; its
    # other fields stay as found
    scene = build_scene(RULED_3FOLD) if name == "ruled_3fold" else corpus.load(name)
    M = scene.manifold
    b = M.project_batch(p)
    _, near = M._screen_cells(np.atleast_2d(p))
    dense, on_edge, _ = dense_distance_min(M.embed_many, M.box, [p],
                                           per_axis=61 if M.m == 3 else 201)
    assert dense[0] < near[0] < b.distance[0] and on_edge[0]
    assert not b.converged[0] and not b.ambiguous[0]


@pytest.mark.parametrize("p", [(1.3, 0.0, 1.69), (1.5, 0.5, 2.0), (0.2, 1.4, -1.9)])
def test_edge_minima_converge(p):
    # saddle queries whose nearest point lies on the box edge, where
    # J^T (p - c) is not 0: the coordinate held at its bound is fixed and
    # the step runs on the free one, so the query converges to the edge foot
    M = corpus.load("saddle").manifold
    b = M.project_batch(p)
    dense, on_edge, grid_slack = dense_distance_min(M.embed_many, M.box, [p], per_axis=200)
    assert on_edge[0] and b.converged[0] and b.on_boundary[0] and not b.ambiguous[0]
    assert dense[0] - grid_slack <= b.distance[0]
    assert b.distance[0] <= dense[0] + PROJECT_DIST_TOL * (1.0 + dense[0])


def test_projection_where_the_chart_is_undefined_on_the_edge():
    # sqrt(x) over [0, 1]: its Jacobian 1/(2 sqrt(x)) is undefined at x = 0,
    # where steps are clipped. Such a trial point counts as not improved,
    # so no query raises, and each converges to its foot at distance |s|
    M = Submanifold.graph(["x"], [[0, 1]], ["sqrt(x)"])
    x0 = np.repeat([0.02, 0.06, 0.08, 0.1], 3)
    s = np.tile([-0.01, 0.01, 0.03], 4)
    normal = np.stack([-0.5 / np.sqrt(x0), np.ones_like(x0)], axis=1)
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    P = np.stack([x0, np.sqrt(x0)], axis=1) + s[:, None] * normal
    b = M.project_batch(P)
    assert b.converged.all() and not b.ambiguous.any() and not b.on_boundary.any()
    assert np.max(np.abs(b.chart[:, 0] - x0)) <= 1e-12
    assert np.max(np.abs(b.distance - np.abs(s))) <= 1e-12
    # each query alone gives its row of the batch
    for i, p in enumerate(P):
        one = M.project_batch(p)
        for f in BatchProjection._fields:
            assert np.array_equal(getattr(one, f)[0], getattr(b, f)[i]), f


def test_screen_matches_per_cell_bounds():
    # one interval pass over all 81 cells gives each cell the bounds it gets
    # alone; the 17 cells whose Jacobian and Hessians divide by an interval
    # containing 0 (x-cells at 0, where 1/sqrt(x) blows up, and the y-cells
    # around 0.3) are unbounded, in both orders
    M = Submanifold.graph(["x", "y"], [[0, 1], [-1, 1]], ["sqrt(x)*y", "1/(y - 0.3)"])
    screen = M._seed_screen()
    seeds = screen.seeds
    cells = []
    for a, b in M.box:
        edges = a + (b - a) / 9 * np.arange(10)
        edges[0], edges[-1] = a, b
        cells.append(np.stack([edges[:-1], edges[1:]], axis=-1))

    def frobenius(exprs, env):
        mags = [ex.evaluate_with(d, env, ex.INTERVALS).magnitude() for d in exprs]
        return np.sqrt(sum(np.square(g) for g in mags))

    slack, curv, reaches = [], [], []
    for (x0, x1), (y0, y1), seed in zip(np.repeat(cells[0], 9, axis=0),
                                        np.tile(cells[1], (9, 1)), seeds):
        assert x0 < seed[0] < x1 and y0 < seed[1] < y1
        env = {"x": ex.Interval(x0, x1), "y": ex.Interval(y0, y1)}
        reach = np.linalg.norm(np.maximum(seed - [x0, y0], [x1, y1] - seed), axis=-1)
        reaches.append(reach)
        slack.append(frobenius(M.jac_exprs, env) * reach)
        K = frobenius(M.hess_exprs, env)
        curv.append(0.5 * K * reach**2 if np.isfinite(K) else np.inf)
        assert np.isinf(slack[-1]) == np.isinf(curv[-1]) == (x0 == 0.0 or y0 <= 0.3 <= y1)
    assert np.array_equal(screen.slack, slack)
    assert np.array_equal(screen.curv, curv)
    assert np.count_nonzero(np.isinf(screen.curv)) == 17
    assert np.array_equal(screen.centres, M.embed_many(seeds))
    # the centre Jacobians, their orthonormal split and the tangent slack
    J = M.jacobian_many(seeds)
    assert np.array_equal(screen.jac, J)
    Q = screen.basis
    assert np.allclose(np.einsum("sni,snj->sij", Q, Q), np.eye(M.n), atol=1e-14)
    normal_part = np.abs(np.einsum("snk,sni->ski", Q[:, :, M.m:], J))
    assert np.all(normal_part <= 1e-14 * np.linalg.norm(J, axis=(1, 2))[:, None, None])
    assert np.array_equal(screen.tslack, np.linalg.norm(J, axis=(1, 2)) * reaches)


def test_unbounded_cell_is_kept(monkeypatch):
    # the Jacobian 1/(2 sqrt(x)) of the first cell [0, 1/9] divides by an
    # interval containing 0, so that cell has no bound of either order and
    # is never dropped, even for a query whose foot x0 = 4/9, the edge of
    # the bounded cells 3 and 4, lies far from it
    M = Submanifold.graph(["x"], [[0, 1]], ["sqrt(x)"])
    screen = M._seed_screen()
    seeds = screen.seeds
    for bound in (screen.slack, screen.curv):
        assert bound[0] == np.inf and np.all(np.isfinite(bound[1:]))
    x0 = 4.0 / 9.0
    normal = np.array([-1.0 / (2.0 * np.sqrt(x0)), 1.0])
    p = np.array([x0, np.sqrt(x0)]) + 0.03 * normal / np.linalg.norm(normal)
    # every point of the first cell lies further from p than the keep
    # threshold, so only its infinite bounds keep it
    _, near = M._screen_cells(p[None])
    threshold = near[0] + PROJECT_DIST_TOL * (1.0 + near[0])
    _, cell_min = grid_min_1d(lambda x: np.hypot(x - p[0], np.sqrt(x) - p[1]),
                              0.0, 1.0 / 9.0, 1e-5)
    assert cell_min > 10.0 * threshold
    runs = []
    descend = Submanifold._descend

    def spy(self, X, P):
        out = descend(self, X, P)
        runs.append((X.copy(), *out))
        return out

    monkeypatch.setattr(Submanifold, "_descend", spy)
    b = M.project_batch(p)
    assert b.converged[0] and not b.ambiguous[0]
    assert b.chart[0, 0] == pytest.approx(x0, abs=1e-12)
    assert b.distance[0] == pytest.approx(0.03, abs=1e-12)
    # the first cell's seed ran beside the seeds of the two cells that hold
    # the foot, and every seed that ran reached it
    starts, feet, conv, _ = (np.concatenate(a) for a in zip(*runs))
    assert len(starts) > 1
    for cell in (0, 3, 4):
        assert np.any(starts[:, 0] == seeds[cell, 0]), cell
    assert np.all(conv)
    assert np.allclose(feet, b.chart[0], atol=1e-12)


@pytest.mark.parametrize("height", ["x*y + z", "x^2 + y^2 - z^2", "x*y*z"])
def test_three_fold_projects_normal_offsets(height):
    """m = 3: 20 interior points of a graph hypersurface in R^4, each moved
    along its unit normal by s in [-0.05, 0.05], project back onto
    themselves at distance |s|."""
    M = Submanifold.graph(["x", "y", "z"], [[-1, 1]] * 3, [height])
    rng = np.random.default_rng(3)
    X = rng.uniform(-0.6, 0.6, size=(20, 3))
    s = rng.uniform(-0.05, 0.05, size=20)
    A = M.embed_many(X)
    normal = np.concatenate([-M.jacobian_many(X)[:, 3, :], np.ones((20, 1))], axis=1)
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    b = M.project_batch(A + s[:, None] * normal)
    assert b.converged.all() and not b.ambiguous.any() and not b.on_boundary.any()
    assert np.max(np.abs(b.distance - np.abs(s))) <= 1e-12
    assert np.max(np.abs(b.point - A)) <= 1e-9
