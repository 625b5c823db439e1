from dataclasses import fields

import numpy as np
import pytest

from osclab import corpus
from osclab.manifold import (
    AmbiguousProjection,
    BatchProjection,
    ImmersionError,
    OutOfDomain,
    Submanifold,
)
from oracles import grid_min_1d, grid_min_2d


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
    resid = np.linalg.norm((p - r.point) @ sphere_cap.jacobian(r.chart))
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
    assert M.distance([0.0, 1.0]) == pytest.approx(np.sqrt(vmin), abs=1e-10)


def test_distance_on_manifold_grid(sphere_cap, hp):
    for M in (sphere_cap, hp):
        for x in M.grid(4, margin=0.05):
            assert M.distance(M.embed(x)) <= 1e-10


def test_distance_graph_epsilon():
    M = Submanifold.graph(["x", "y"], [[-1, 1], [-1, 1]], ["x*y"])
    eps = 1e-3
    oracle = np.sqrt(grid_min_2d(
        lambda X, Y: X**2 + Y**2 + (X * Y - eps) ** 2, [[-1, 1], [-1, 1]], 1e-3))
    assert oracle == pytest.approx(eps, abs=1e-6)
    assert M.distance([0.0, 0.0, eps]) == pytest.approx(eps, abs=1e-9)


def test_triangle_consistency(hp):
    rng = np.random.default_rng(17)
    P = rng.uniform(-1.2, 1.2, size=(12, 3))
    Q = P + rng.normal(scale=0.3, size=P.shape)
    dp = hp.distance_many(P)
    dq = hp.distance_many(Q)
    gap = np.linalg.norm(P - Q, axis=1)
    assert np.all(np.abs(dp - dq) <= gap + 1e-9)


def test_graph_normal_displacement(sphere_cap):
    x = np.array([0.1, -0.2])
    base = sphere_cap.embed(x)
    nu = sphere_cap.normal_basis(x)[:, 0]
    for delta in (1e-4, 1e-2, 0.1):
        assert sphere_cap.distance(base + delta * nu) <= delta + 1e-12


def test_immersion_check():
    with pytest.raises(ImmersionError):
        Submanifold.parametric(["u"], [[0, 1]], ["0", "0"], 2)


def test_tube_radius_values(plane, sphere_cap):
    circle = Submanifold.parametric(
        ["u"], [[0.0, 2 * np.pi]], ["sin(u)", "cos(u)"], 2)
    assert circle.tube_radius() == pytest.approx(np.pi / 4)
    assert sphere_cap.tube_radius() == pytest.approx(0.5)
    assert plane.tube_radius() == pytest.approx(2.0)


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


def test_line_search_evaluates_only_searching_rows(monkeypatch):
    # one project_batch of saddle's ruledness points, 9 samples x 64 parameters
    saddle = corpus.load("saddle")
    M, params = saddle.manifold, saddle.params
    svals = np.linspace(-params.span, params.span, 64)
    pts = np.concatenate([saddle.family.curve_at(x)(svals)
                          for x in M.grid(params.samples, margin=params.margin)])
    assert pts.shape == (9 * 64, 3)
    plain = M.project_batch(pts)
    rows = []
    embed_many = Submanifold.embed_many

    def spy(self, X):
        rows.append(len(X))
        return embed_many(self, X)

    monkeypatch.setattr(Submanifold, "embed_many", spy)
    spied = M.project_batch(pts)
    # a line search that re-evaluates every active row at each halving
    # evaluates 5,740,194 rows here
    assert sum(rows) <= 5_740_194 // 2
    for f in fields(BatchProjection):
        assert np.array_equal(getattr(spied, f.name), getattr(plain, f.name))
