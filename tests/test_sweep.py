import re
import warnings
from math import comb

import numpy as np
import pytest
from hypothesis import given, strategies as st

from osclab import config, corpus, osculate
from osclab import expr as ex
from osclab.config import QuadConfig, Tolerances, composite_gauss, geometric_grid
from osclab.exterior import RANK_FLOOR, frame_norm, frame_ratio, wedge_ring
from osclab.jets import Jet, jet_eval_expr
from osclab.manifold import OutOfDomain, Submanifold, gauss_newton, gauss_newton_step
from osclab.scene import build_scene
from osclab.sweep import (
    CoefficientDegreeError,
    Cutoff,
    DegenerateReparam,
    FLOW_CHECKPOINTS,
    FlowExitError,
    FlowReport,
    MESH_CHUNK,
    QUAD_BLOCK,
    FlowRankError,
    SweepFamily,
    VolumeSample,
    _chart_mesh,
    _integrate,
    _minor_jets,
    coefficients_csv,
    critical_degree,
    extract_t_polynomials,
    extract_t_polynomials_sampled,
    frame_minors_vanish,
    growth_exponent,
    random_reparam,
    reparam_invariance_test,
    swept_volume,
    tangency_flow_check,
    vanishing_verdict,
    volume_csv,
    volume_series,
)
from oracles import annulus_area, rk4_flow


@pytest.fixture(scope="module")
def segment():
    return corpus.load("segment")


@pytest.fixture(scope="module")
def circle():
    return corpus.load("circle")


@pytest.fixture(scope="module")
def hp():
    return corpus.load("hyperbolic_paraboloid")


def test_cutoff_band_ends_where_its_coordinate_reaches_one():
    """Below outer = 0.9 * 1e-3 = 0.0009000000000000001 the band coordinate
    s = (rho - inner)/width rounds to 1 on the last doubles; those rows read
    chi = 0 and d chi = 0, as rows beyond outer do, with no 0 * inf."""
    cut = Cutoff(0.4 * 1e-3, 0.9 * 1e-3, np.zeros(2))
    rho = [cut.outer]
    for _ in range(40):
        rho.append(np.nextafter(rho[-1], 0.0))
    rho = np.array(rho)
    s = (rho - cut.inner) / (cut.outer - cut.inner)
    assert rho[1] == 0.0009 and s[1] == 1.0
    X = np.stack([rho, np.zeros_like(rho)], axis=-1)
    with np.errstate(all="raise"):
        chi, grad = cut.value_and_grad(np.concatenate([X, X[:, ::-1]]))
    assert np.all(np.isfinite(grad))
    rounded = np.tile(s >= 1.0, 2)
    assert np.all(chi[rounded] == 0.0) and np.all(grad[rounded] == 0.0)
    assert np.all((chi >= 0.0) & (chi < 1.0))


def test_sweep_eval_examples(segment, hp):
    x = np.array([[0.25], [0.5]])
    assert np.allclose(segment.family.point_many(x, [0.0, 0.3]),
                       [segment.manifold.embed_many(x[0]), [0.5, 0.3]])
    x0, y0, t = 0.3, -0.4, 0.2
    assert np.allclose(hp.family.point_many([x0, y0], [t]),
                       [[x0 + t, y0, x0 * y0 + t * y0]], atol=1e-15)


def test_cutoff_freezes_outside_outer_radius(segment):
    scene = corpus.with_cutoff(segment, 0.15, 0.4)
    x_out = np.array([0.98])  # radial chart distance 0.48 from the center
    ts = np.array([0.0, 0.1, 0.3])
    assert np.allclose(scene.family.point_many(np.tile(x_out, (3, 1)), ts),
                       scene.manifold.embed_many(x_out))
    x_in = np.array([0.5])
    assert np.allclose(scene.family.point_many(x_in, [0.3]), [[0.5, 0.3]])


def test_segment_volume_exact(segment):
    vs = swept_volume(segment.family, 0.5)
    assert vs.value == pytest.approx(1.0, abs=1e-10)


def test_circle_radial_volume_matches_annulus(circle):
    for t in (0.05, 0.1, 0.2):
        vs = swept_volume(circle.family, t)
        assert vs.value == pytest.approx(4 * np.pi * t, rel=1e-6)
        assert vs.value == pytest.approx(annulus_area(t), rel=1e-6)


def test_tangent_field_sweeps_no_volume():
    M = Submanifold.graph(["x"], [[0, 1]], ["0"])
    fam = SweepFamily(M, 1, fields=[["1", "0"]])
    assert swept_volume(fam, 0.3).value <= 1e-13


def test_volume_monotone_in_t(segment, hp):
    """On the series and on the plain quadrature (hp's series is certified
    zero and runs none)."""
    for scene in (segment, hp):
        quadrature = [swept_volume(scene.family, t) for t in geometric_grid()]
        for series in (volume_series(scene.family), quadrature):
            vols = [s.value for s in series][::-1]  # grid is descending in t
            assert all(b >= a - 1e-12 for a, b in zip(vols, vols[1:]))
            assert all(s.value >= 0 for s in series)


def test_volume_series_frees_its_meshes(segment):
    """The meshes and minor tensors go when the series returns; a second
    series builds them again, to the same samples bit for bit. (hp's series
    is certified zero and builds none.)"""
    first = volume_series(segment.family)
    assert segment.family._cache == {}
    assert volume_series(segment.family) == first


def test_confirmed_scenes_sweep_exactly_zero_volume(scenes, series_for):
    """The six corpus scenes the theorem confirms sweep no volume at any t,
    and their error estimates are exactly zero too: in their certified
    series, and by the plain quadrature at every t of the grid."""
    for name in ("plane", "cylinder", "hyperbolic_paraboloid", "saddle",
                 "paraboloid", "circle_rotation"):
        assert all(s.value == 0.0 and s.error == 0.0 for s in series_for(name)), name
        for t in geometric_grid():
            s = swept_volume(scenes[name].family, t)
            assert s.value == 0.0 and s.error == 0.0, (name, t)


def test_swept_volume_requires_positive_t(segment):
    with pytest.raises(ValueError):
        swept_volume(segment.family, 0.0)


# -- reparametrization invariance --------------------------------------------


def test_reparam_identity_gap_zero(segment):
    res = reparam_invariance_test(segment.family, ["x", "t"], 0.3)
    assert res.gap <= 1e-13


def test_reparam_cubic_warp(segment):
    res = reparam_invariance_test(segment.family, ["(x^3 + x)/2", "t"], 0.3)
    assert res.gap <= 1e-6


def test_reparam_orientation_flip(segment):
    res = reparam_invariance_test(segment.family, ["1 - x", "-t"], 0.3)
    assert res.gap <= 1e-6


def test_reparam_random_diffeos(segment, circle):
    rng = np.random.default_rng(42)
    for scene in (segment, circle):
        psi = random_reparam(scene.manifold, 0.25, rng)
        res = reparam_invariance_test(scene.family, psi, 0.25)
        assert res.gap <= 1e-6


def test_reparam_leaves_no_growth_cache():
    """The mesh and minor tensor of its integral do not outlive the call;
    a standalone swept_volume keeps them for the next call."""
    family = corpus.load("sphere").family
    psi = random_reparam(family.M, 0.25, np.random.default_rng(3))
    reparam_invariance_test(family, psi, 0.25, QuadConfig(cells=4))
    assert family._cache == {}
    swept_volume(family, 0.25, QuadConfig(cells=4))
    assert family._cache


def test_degenerate_reparam_rejected(segment):
    with pytest.raises(DegenerateReparam):
        reparam_invariance_test(segment.family, ["x*0 + 0.5", "t"], 0.3)


# -- coefficient extraction ---------------------------------------------------


def test_circle_coefficients(circle):
    for u in (0.3, 1.1, 4.0):
        table = extract_t_polynomials(circle.family, np.array([u]))
        assert table.degree == 1
        assert np.allclose(table.coeffs, [[1.0, 1.0]], atol=1e-12)
        assert table.guard_max <= 1e-9


def test_ruling_coefficients_vanish(hp):
    for x in hp.manifold.grid(3, margin=0.2):
        table = extract_t_polynomials(hp.family, x)
        assert np.max(np.abs(table.coeffs)) <= 1e-12


def test_transverse_segment_coefficients(segment):
    table = extract_t_polynomials(segment.family, np.array([0.5]))
    assert np.allclose(table.coeffs, [[1.0, 0.0]], atol=1e-14)


def test_jet_and_vandermonde_paths_agree(hp, circle, segment):
    for scene in (hp, circle, segment):
        for x in scene.manifold.grid(2, margin=0.25):
            a = extract_t_polynomials(scene.family, x)
            b = extract_t_polynomials_sampled(scene.family, x)
            assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-9


def test_composite_gauss_reads_cached_leggauss():
    # the nodes and weights of each order are computed once, bit-identical
    # to leggauss, and the cached arrays are shared read-only
    for order in (1, 4, 8, 10):
        nodes, weights = np.polynomial.legendre.leggauss(order)
        cached = config._gauss_legendre(order)
        assert config._gauss_legendre(order) is cached
        assert all(not a.flags.writeable for a in cached)
        assert np.array_equal(cached[0], nodes) and np.array_equal(cached[1], weights)
        ts, ws = composite_gauss(-0.3, 0.7, 5, order)
        edges = np.linspace(-0.3, 0.7, 6)
        half = 0.5 * (edges[1] - edges[0])
        mid = 0.5 * (edges[:-1] + edges[1:])
        assert np.array_equal(ts, (mid[:, None] + half * nodes[None, :]).ravel())
        assert np.array_equal(ws, np.tile(half * weights, 5))


def test_quadrature_consistent_with_coefficients(segment, circle, hp):
    quad = QuadConfig(order=6, cells=4, t_cells=4)
    for scene, t in ((segment, 0.3), (circle, 0.1), (hp, 0.2)):
        F = scene.family
        vs = swept_volume(F, t, quad)
        X, wx = _chart_mesh(scene.manifold, quad)
        tn, wt = composite_gauss(-t, t, quad.t_cells, quad.order)
        total = 0.0
        for x, w in zip(X, wx):
            table = extract_t_polynomials(F, x)
            vals = np.stack([np.polyval(c[::-1], tn) for c in table.coeffs])
            total += w * float(np.dot(wt, np.sqrt(np.sum(vals**2, axis=0))))
        assert abs(total - vs.value) <= 2 * vs.error + 1e-12 * (1 + abs(vs.value))


# -- minor t-coefficients (the swept-volume route of polynomial families) ----


def _cached_minor_tensor(family, quad):
    """The minors' t-coefficient tensor that _integrate caches for the mesh."""
    _integrate(family, 0.1, quad)
    return family._cache[("minorcoeffs", quad.order, quad.cells)]


def _assert_minor_tensor_matches_oracle(family, quad):
    """The cached tensor against the Vandermonde oracle at both ends of the
    mesh and on both sides of every chunk boundary."""
    A = _cached_minor_tensor(family, quad)
    X, _ = _chart_mesh(family.M, quad)
    n, m = family.M.n, family.M.m
    assert A.shape == (X.shape[0], comb(n, m + 1), critical_degree(family) + 1)
    picks = {0, X.shape[0] - 1}
    for edge in range(MESH_CHUNK, X.shape[0], MESH_CHUNK):
        picks |= {edge - 1, edge}
    for i in sorted(picks):
        oracle = extract_t_polynomials_sampled(family, X[i]).coeffs
        scale = max(1.0, float(np.max(np.abs(oracle))))
        assert np.max(np.abs(A[i] - oracle)) <= 1e-12 * scale


def test_minor_tensor_matches_vandermonde_oracle(scenes):
    """On the default mesh of every polynomial corpus scene."""
    for scene in scenes.values():
        if scene.family is None or not scene.family.polynomial:
            continue
        _assert_minor_tensor_matches_oracle(scene.family, scene.params.quad)


def test_minor_tensor_ragged_last_chunk():
    """60^2 = 3,600 mesh nodes: one full chunk and a ragged one, which
    together give one _minor_jets call over the whole mesh, bit for bit."""
    family = corpus.load("saddle").family
    quad = QuadConfig(order=5, cells=12)
    X, _ = _chart_mesh(family.M, quad)
    assert MESH_CHUNK < X.shape[0] < 2 * MESH_CHUNK
    whole = _minor_jets(family, X, critical_degree(family))
    assert np.array_equal(_cached_minor_tensor(family, quad), whole)
    _assert_minor_tensor_matches_oracle(family, quad)


def test_stacked_frame_jets_match_per_point(scenes):
    """Every corpus scene; circle_rotation is a map family."""
    for scene in scenes.values():
        family = scene.family
        D = critical_degree(family) + 3
        X = scene.manifold.grid(3, margin=0.15)
        stacked = family.frame_jets(X, D)
        assert stacked.shape == (X.shape[0], family.M.n, family.M.m + 1, D + 1)
        for i in range(X.shape[0]):
            assert np.array_equal(stacked[i : i + 1], family.frame_jets(X[i : i + 1], D))


def _frame_route_volume(family, t, quad):
    """swept_volume's value and error, from frame_many + frame_norm
    at every node of the same meshes."""

    def integrate(q):
        X, wx = _chart_mesh(family.M, q)
        tn, wt = composite_gauss(-t, t, q.t_cells, q.order)
        total = 0.0
        for s, w in zip(tn, wt):
            frame = family.frame_many(X, np.full(X.shape[0], s))
            total += w * float(np.dot(wx, frame_norm(frame)))
        return total

    value = integrate(quad)
    return value, abs(value - integrate(quad.halved()))


_SHAPES = {
    # C(3, 2) = 3 minors
    "curve_in_R3": (lambda: SweepFamily(
        Submanifold.graph(["x"], [[0, 1]], ["x^2", "x^3"]), 1,
        fields=[["0", "1", "x"]]), QuadConfig(), (0.1, 0.3)),
    # C(4, 3) = 4 minors, class-2 family
    "surface_in_R4": (lambda: SweepFamily(
        Submanifold.graph(["x", "y"], [[-1, 1], [-1, 1]], ["x*y", "x^2 - y^2"]),
        2, fields=[["0", "0", "1", "x"], ["y", "0", "0", "1"]]),
        QuadConfig(cells=8), (0.1, 0.3)),
    # transverse field under a cutoff: the d(chi) term of the frame
    "cutoff_transverse": (lambda: SweepFamily(
        Submanifold.graph(["x", "y"], [[-1, 1], [-1, 1]], ["0"]), 1,
        fields=[["y", "0", "1"]], cutoff=Cutoff(0.3, 0.8, np.zeros(2))),
        QuadConfig(cells=8), (0.1, 0.3)),
    # ruled 3-fold w = xy + z^2 in R^4, ruled along (1, 0, 0, y)
    "ruled_3fold_in_R4": (lambda: SweepFamily(
        Submanifold.graph(["x", "y", "z"], [[-1, 1]] * 3, ["x*y + z^2"]), 1,
        fields=[["1", "0", "0", "y"]]), QuadConfig(cells=4), (0.2,)),
}


@pytest.mark.parametrize("name", sorted(_SHAPES))
def test_swept_volume_matches_frame_route(name):
    make, quad, ts = _SHAPES[name]
    family = make()
    _assert_minor_tensor_matches_oracle(family, quad)
    for t in ts:
        vs = swept_volume(family, t, quad)
        ref, ref_err = _frame_route_volume(family, t, quad)
        if ref <= 1e-15:
            assert vs.value <= 1e-15 and vs.error <= 1e-15
            continue
        assert abs(vs.value - ref) <= 1e-12 * ref
        assert abs(vs.error - ref_err) <= 1e-12 * ref


def _per_node_volume(family, t, quad):
    """swept_volume's value and error from one matrix-vector product and one
    norm per t node over the minor tensor of the whole mesh."""

    def integrate(q):
        X, wx = _chart_mesh(family.M, q)
        A = _minor_jets(family, X, critical_degree(family))
        N, L, D = A.shape
        flat, exponents = A.reshape(N * L, D), np.arange(D)
        tn, wt = composite_gauss(-t, t, q.t_cells, q.order)
        total = 0.0
        for s, w in zip(tn, wt):
            with np.errstate(under="ignore"):
                minors = (flat @ float(s) ** exponents).reshape(N, L)
                vol = np.sqrt(np.einsum("qr,qr->q", minors, minors))
            total += w * float(np.dot(wx, vol))
        return total

    value = integrate(quad)
    return value, abs(value - integrate(quad.halved()))


_BLOCKED = {
    # 63^2 = 3,969 mesh rows, L = 1: blocks of 585 rows at 56 t nodes and of
    # 1,365 at the halved order's 24, both with a ragged last block
    "sphere": (lambda: corpus.load("sphere").family, QuadConfig(order=7, cells=9),
               (0.1, 0.3)),
    **{name: _SHAPES[name] for name in ("curve_in_R3", "surface_in_R4",
                                        "cutoff_transverse")},
}


@pytest.mark.parametrize("name", sorted(_BLOCKED))
def test_blocked_quadrature_matches_per_node_reference(name):
    make, quad, ts = _BLOCKED[name]
    family = make()
    if name == "sphere":
        for q in (quad, quad.halved()):
            rows = QUAD_BLOCK // (q.t_cells * q.order)
            assert _chart_mesh(family.M, q)[0].shape[0] % rows != 0
    for t in ts:
        vs = swept_volume(family, t, quad)
        ref, ref_err = _per_node_volume(family, t, quad)
        assert ref > 0.0
        assert abs(vs.value - ref) <= 1e-14 * ref
        assert abs(vs.error - ref_err) <= 1e-14 * ref


def test_volume_series_emits_no_runtime_warning():
    """Neither the series nor the quadrature it skips on a certified family
    warns, though the minors' t-polynomials underflow at small t."""
    cases = [corpus.load("saddle"), corpus.load("paraboloid"),
             corpus.with_cutoff(corpus.load("hyperbolic_paraboloid"), 0.4, 0.9)]
    for scene in cases:
        with np.errstate(all="warn"), warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            volume_series(scene.family)
            for t in geometric_grid():
                swept_volume(scene.family, t)
        assert not [w for w in seen if issubclass(w.category, RuntimeWarning)], \
            scene.name


# -- one representation: a field family is its map alpha + sum_j t^j v_j -----


def _written_out(family):
    """The map family of a field family, its components written out as the
    text (alpha) + t^1*(v_1) + ... + t^k*(v_k)."""
    def component(c):
        terms = [f"({ex.to_string(family.M.components[c])})"]
        terms += [f"t^{j}*({ex.to_string(f[c])})" for j, f in enumerate(family.fields, 1)]
        return " + ".join(terms)
    return SweepFamily(family.M, family.k,
                       map_exprs=[component(c) for c in range(family.M.n)])


def _field_coefficients(family, X):
    """Oracle read off the fields: the t-coefficients of the point,
    (k+1, N, n), and of the frame, (k+1, N, n, m+1), with the cutoff
    chi applied as chi v_j and chi dv_j + v_j dchi."""
    M, (N, m) = family.M, X.shape
    if family.cutoff is None:
        chi, dchi = np.ones(N), np.zeros((N, m))
    else:
        chi, dchi = family.cutoff.value_and_grad(X)
    P = np.zeros((family.k + 1, N, M.n))
    C = np.zeros((family.k + 1, N, M.n, m + 1))
    P[0], C[0, ..., :m] = M.embed_many(X), M.jacobian_many(X)
    for j, f in enumerate(family.fields, start=1):
        v = ex.evaluate_many(f, M._env(X), (N,))
        dv = ex.evaluate_many([ex.diff(c, x) for c in f for x in M.chart_vars],
                              M._env(X), (N,)).reshape(N, M.n, m)
        P[j] = chi[:, None] * v
        C[j, ..., :m] = chi[:, None, None] * dv + v[:, :, None] * dchi[:, None, :]
        C[j - 1, ..., m] = j * P[j]
    return P, C


def _sample(family, count=40):
    rng = np.random.default_rng(7)
    box = family.M.box
    return (rng.uniform(box[:, 0], box[:, 1], size=(count, family.M.m)),
            rng.uniform(-0.5, 0.5, size=count))


def test_field_family_equals_its_written_out_map(scenes):
    """Points, frames, frame jets and the minor tensor on the growth mesh of
    every corpus field family equal those of its map family, and its curves
    hold the jets of that map, which the map family's own curve holds too:
    both bind the chart values as arrays."""
    for scene in scenes.values():
        family = scene.family
        if not family.polynomial:
            continue
        mapped = _written_out(family)
        X, T = _sample(family)
        D = critical_degree(family) + 3
        assert np.array_equal(family.point_many(X, T), mapped.point_many(X, T))
        assert np.array_equal(family.frame_many(X, T), mapped.frame_many(X, T))
        assert np.array_equal(family.frame_jets(X, D), mapped.frame_jets(X, D))
        mesh, _ = _chart_mesh(family.M, scene.params.quad)
        d = critical_degree(family)
        assert np.array_equal(_minor_jets(family, mesh, d), _minor_jets(mapped, mesh, d))
        t = Jet.variable(family.k)
        for x in X[:8]:
            poly = family.curve_at(x).coeffs
            env = {**family.M._env(x[None]), ex.TIME_VAR: t}
            jets = [np.atleast_2d(jet_eval_expr(e, env, family.k).coeffs)[0]
                    for e in mapped.map_exprs]
            assert np.array_equal(poly, np.stack(jets, axis=-1))
            assert np.array_equal(mapped.curve_at(x).jets(family.k).T, poly)


def test_field_family_matches_its_field_coefficients(scenes):
    """Corpus field families, and four of them under a cutoff, which the
    corpus run never reaches: the frame jets, the minor tensor on the growth
    mesh and the curves equal the coefficients read off the fields exactly;
    float points and frames, which sum the powers of t, agree with them to
    rounding."""
    cases = [s for s in scenes.values() if s.family.polynomial]
    cases += [corpus.with_cutoff(scenes[name], 0.2, 0.45) for name in
              ("hyperbolic_paraboloid", "sphere", "segment", "paraboloid")]
    for scene in cases:
        family = scene.family
        X, T = _sample(family)
        D = critical_degree(family) + 3
        P, C = _field_coefficients(family, X)
        coeffs = np.zeros(C.shape[1:] + (D + 1,))
        coeffs[..., : family.k + 1] = np.moveaxis(C, 0, -1)
        assert np.array_equal(family.frame_jets(X, D), coeffs), scene.name
        for i, x in enumerate(X[:8]):
            assert np.array_equal(family.curve_at(x).coeffs, P[:, i]), scene.name
        powers = T[:, None] ** np.arange(family.k + 1)
        for got, want in ((family.point_many(X, T), np.einsum("nj,jn...->n...", powers, P)),
                          (family.frame_many(X, T), np.einsum("nj,jn...->n...", powers, C))):
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), scene.name
        mesh, _ = _chart_mesh(family.M, scene.params.quad)
        _, Cm = _field_coefficients(family, mesh)
        d = critical_degree(family)
        oracle = np.zeros(Cm.shape[1:] + (d + 1,))
        oracle[..., : family.k + 1] = np.moveaxis(Cm, 0, -1)
        cols = [[Jet(oracle[:, c, i]) for c in range(family.M.n)]
                for i in range(family.M.m + 1)]
        minors = np.stack([c.coeffs for c in wedge_ring(cols)], axis=-2)
        assert np.array_equal(_minor_jets(family, mesh, d), minors), scene.name


def test_cutoff_leaves_are_not_chart_variables():
    """The cutoff's leaves chi and d_i chi cannot be shadowed: hp under a
    cutoff with its chart variables named chi and dchi has the points,
    frames, frame jets, curves and certificate of the same scene in x and y."""
    def family(u, v):
        M = Submanifold.graph([u, v], [[-1, 1], [-1, 1]], [f"{u}*{v}"])
        return SweepFamily(M, 1, fields=[["1", "0", v]],
                           cutoff=Cutoff(0.2, 0.45, np.zeros(2)))
    named, plain = family("chi", "dchi"), family("x", "y")
    X, T = _sample(plain)
    D = critical_degree(plain) + 3
    assert np.array_equal(named.point_many(X, T), plain.point_many(X, T))
    assert np.array_equal(named.frame_many(X, T), plain.frame_many(X, T))
    assert np.array_equal(named.frame_jets(X, D), plain.frame_jets(X, D))
    assert np.array_equal(named.curve_at(X).coeffs, plain.curve_at(X).coeffs)
    assert frame_minors_vanish(named) and frame_minors_vanish(plain)
    # the cutoff acts: at T != 0 the points differ from the uncut family's
    uncut = SweepFamily(plain.M, 1, fields=plain.fields)
    assert not np.array_equal(plain.point_many(X, T), uncut.point_many(X, T))


# -- growth exponent ----------------------------------------------------------


def test_growth_transverse_slope_one(segment):
    fit = growth_exponent(volume_series(segment.family))
    assert fit.slope == pytest.approx(1.0, abs=0.05)


def test_growth_sphere_tangent_slope_two():
    sphere = corpus.load("sphere")
    fit = growth_exponent(volume_series(sphere.family))
    assert not fit.identically_zero
    assert fit.slope >= 1.9


def test_growth_ruling_identically_zero(hp):
    fit = growth_exponent(volume_series(hp.family))
    assert fit.identically_zero
    quadrature = [swept_volume(hp.family, t) for t in geometric_grid()]
    assert growth_exponent(quadrature).identically_zero


def _hp_rescaled(lam: float, field_z: str = "y") -> SweepFamily:
    """z = xy rescaled by lam: z = xy/lam over [-lam, lam]^2, field (lam, 0, y)."""
    M = Submanifold.graph(["x", "y"], [[-lam, lam], [-lam, lam]], [f"x*y/{lam!r}"])
    return SweepFamily(M, 1, fields=[[repr(lam), "0", field_z]])


def _saddle_rescaled(lam: float) -> SweepFamily:
    """z = x^2 - y^2 rescaled by lam: z = (x^2 - y^2)/lam over [-lam, lam]^2,
    field (lam, lam, 2x - 2y)."""
    M = Submanifold.graph(["x", "y"], [[-lam, lam], [-lam, lam]],
                          [f"(x^2 - y^2)/{lam!r}"])
    return SweepFamily(M, 1, fields=[[repr(lam), repr(lam), "2*x - 2*y"]])


@pytest.mark.parametrize("lam", [1e-3, 1.0, 1e3])
def test_growth_ruling_zero_under_rescaling(lam):
    """volume_series certifies the rescaled ruling zero at every lam."""
    assert growth_exponent(volume_series(_hp_rescaled(lam))).identically_zero


@pytest.mark.parametrize("lam", [
    1e-3, 1.0,
    pytest.param(1e3, marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 2: on the float quadrature the absolute vol_zero floor "
        "reads a rounding-level volume of up to 7.2e-10 as growth with slope 1"))),
])
def test_quadrature_ruling_zero_under_rescaling(lam):
    """The same series by the float quadrature alone, with no certificate."""
    family = _hp_rescaled(lam)
    series = [swept_volume(family, t) for t in geometric_grid()]
    assert growth_exponent(series).identically_zero


# -- exact zero certificate ----------------------------------------------------


def _with_cutoff(name: str) -> SweepFamily:
    """The corpus scene's family under the cutoff of criterion 05."""
    return corpus.with_cutoff(corpus.load(name), 0.2, 0.45).family


def _graph_family(chart_vars, height, fields, k=1) -> SweepFamily:
    M = Submanifold.graph(chart_vars, [[-1, 1]] * len(chart_vars), height)
    return SweepFamily(M, k, fields=fields)


_CONFIRMED = ("plane", "cylinder", "hyperbolic_paraboloid", "saddle", "paraboloid",
              "circle_rotation")

#: families whose frame minors are the zero polynomial, with the mesh for
#: their quadrature check (a 3-fold's default mesh has 2^21 nodes)
_CERTIFIED = {
    **{name: (lambda name=name: corpus.load(name).family, QuadConfig())
       for name in _CONFIRMED},
    # w = xy + z in R^4, ruled along (1, 0, 0, y)
    "ruled_3fold": (lambda: _graph_family(["x", "y", "z"], ["x*y + z"],
                                          [["1", "0", "0", "y"]]), QuadConfig(cells=4)),
    **{f"hp*{lam!r}": (lambda lam=lam: _hp_rescaled(lam), QuadConfig())
       for lam in (1e-3, 1.0, 1e3)},
    **{f"saddle*{lam!r}": (lambda lam=lam: _saddle_rescaled(lam), QuadConfig())
       for lam in (1e-3, 1.0, 1e3)},
    # sin, cos and exp are atoms: a rotation whose arguments differ only in
    # the order of their terms, and z = exp(x) y along its lines in y
    "rotation_reordered": (lambda: SweepFamily(
        Submanifold.parametric(["u"], [[0.0, 6.0]], ["sin(u)", "cos(u)"], 2), 1,
        map_exprs=["sin(t + u)", "cos(u + t)"]), QuadConfig()),
    "exp_graph": (lambda: _graph_family(["x", "y"], ["exp(x)*y"],
                                        [["0", "1", "exp(x)"]]), QuadConfig()),
    # chi and d_i chi are free generators: these minors vanish for every chi
    **{f"{name}+cutoff": (lambda name=name: _with_cutoff(name), QuadConfig())
       for name in ("plane", "hyperbolic_paraboloid", "saddle", "cylinder")},
}

_UNCERTIFIED = {
    "segment": lambda: corpus.load("segment").family,
    "circle": lambda: corpus.load("circle").family,
    # the non-ruled m = 3 bowl w = x^2 + y^2 + z^2
    "bowl3": lambda: _graph_family(["x", "y", "z"], ["x^2 + y^2 + z^2"],
                                   [["1", "0", "0", "2*x"]]),
    # hp whose field is a ruling only where x(x^2 - 0.49) vanishes
    **{f"hp_control_{eps!r}": (lambda eps=eps: _hp_rescaled(
        1.0, f"y + {eps!r}*x*(x^2 - 0.49)")) for eps in (0.1, 1e-3)},
    # a sqrt in the frame, or a minor that is nonzero in chi
    **{f"{name}+cutoff": lambda name=name: _with_cutoff(name)
       for name in ("sphere", "paraboloid", "cubic_graph", "circle", "segment")},
}


@pytest.mark.parametrize("name", sorted(_UNCERTIFIED))
def test_certificate_reads_nonzero(name):
    assert not frame_minors_vanish(_UNCERTIFIED[name]())


@pytest.mark.parametrize("name", sorted(_CERTIFIED))
def test_certified_scenes_agree_with_floats(name):
    """The certificate reads zero on each family, and two independent checks
    agree with it: the unchanged quadrature reads a volume within vol_zero,
    and the float jet route gives VANISHES. hp and saddle at lam = 1e3 read
    a rounding-level volume above the absolute vol_zero
    (test_quadrature_ruling_zero_under_rescaling), so only their vanishing
    verdict is checked."""
    make, quad = _CERTIFIED[name]
    family = make()
    assert frame_minors_vanish(family)
    assert vanishing_verdict(family).vanishes
    if not name.endswith("*1000.0"):
        assert swept_volume(family, 0.2, quad).value <= Tolerances().vol_zero


def test_certified_series_skips_the_quadrature(hp, quadrature_calls):
    series = volume_series(hp.family, t_grid=[0.2, 0.1])
    assert series == [VolumeSample(0.2, 0.0, 0.0), VolumeSample(0.1, 0.0, 0.0)]
    assert quadrature_calls == []
    with pytest.raises(ValueError):
        volume_series(hp.family, t_grid=[0.2, 0.0])


def test_cutoff_and_sqrt_scenes_take_the_float_route(scenes, quadrature_calls):
    """Per family. hp under a cutoff (criterion 05) is certified, since its
    minors vanish for every value of chi, and runs no quadrature. A frame
    with a sqrt (the sphere's, with and without a cutoff, and a cylinder's
    graph) and a cutoff family with a nonzero minor (the segment's) are not:
    the quadrature decides them, and the sqrt graph of a cylinder swept
    along its rulings still reads zero."""
    hp_cut = corpus.with_cutoff(scenes["hyperbolic_paraboloid"], 0.4, 0.9).family
    assert frame_minors_vanish(hp_cut)
    assert volume_series(hp_cut, t_grid=[0.2, 0.1]) == [VolumeSample(0.2, 0.0, 0.0),
                                                         VolumeSample(0.1, 0.0, 0.0)]
    assert quadrature_calls == []
    cylinder = _graph_family(["x", "w"], ["sqrt(1 - x^2)"], [["0", "1", "0"]])
    with pytest.raises(ex.DomainError):
        # frame entry (2, 0), d_x of the height, at index 2 (m+1) + 0
        ex.evaluate_with(cylinder.map_frame[2 * 3], {"x": ex.Poly.generator("x")},
                         ex.EXACT)
    cases = {"sphere+cutoff": corpus.with_cutoff(scenes["sphere"], 0.2, 0.45).family,
             "segment+cutoff": corpus.with_cutoff(scenes["segment"], 0.15, 0.4).family,
             "sphere": scenes["sphere"].family, "cylinder": cylinder}
    for name, family in cases.items():
        assert not frame_minors_vanish(family), name
        before = len(quadrature_calls)
        volume_series(family, t_grid=[0.2, 0.1], quad=QuadConfig(cells=4))
        assert quadrature_calls[before:] == [0.2, 0.1], name
    assert growth_exponent(volume_series(cylinder)).identically_zero


def _hp_rescaled_cutoff_scene(lam: float, spelling: str):
    """z = xy/lam over [-lam, lam]^2 under a cutoff of radii (0.3 lam, 0.7 lam),
    spelled with the field (lam, 0, y) and span 1, or (1, 0, y/lam) and span lam."""
    field, span = (([repr(lam), "0", "y"], 1.0) if spelling == "field"
                   else (["1", "0", f"y/{lam!r}"], lam))
    return build_scene({
        "manifold": {"type": "graph", "chart_vars": ["x", "y"],
                     "domain": [[-lam, lam], [-lam, lam]], "ambient_dim": 3,
                     "height": [f"x*y/{lam!r}"]},
        "family": {"k": 1, "fields": [field]},
        "cutoff": {"inner": 0.3 * lam, "outer": 0.7 * lam},
        "params": {"span": span}}, name=f"hp*{lam!r}+cutoff")


@pytest.mark.parametrize("spelling", ["field", "span"])
def test_rescaled_cutoff_ruling_is_confirmed(spelling):
    """At lam = 1e3 the float quadrature read this ruling's rounding-level
    volume as growth with slope 1.02 in the field spelling; the certificate,
    with chi free, reads zero in both spellings."""
    scene = _hp_rescaled_cutoff_scene(1e3, spelling)
    assert frame_minors_vanish(scene.family)
    assert osculate.verify_theorem(scene, seed=0).verdict == "THEOREM_CONFIRMED"


_DYADIC = st.integers(-8, 8).map(lambda i: i / 4)
_MONOMIALS = ("1", "x", "y", "x*y", "x^2", "y^2")


def _poly_text(coeffs, monomials) -> str:
    return " + ".join(f"({c!r})*{m}" for c, m in zip(coeffs, monomials))


@given(k=st.sampled_from([1, 2]), ruled=st.booleans(),
       a=st.lists(_DYADIC, min_size=3, max_size=3),
       b=st.lists(_DYADIC, min_size=3, max_size=3), c=_DYADIC,
       bend=st.lists(_DYADIC, min_size=6, max_size=6),
       curl=st.lists(_DYADIC, min_size=6, max_size=6))
def test_certificate_agrees_with_the_float_minor_tensor(k, ruled, a, b, c, bend, curl):
    """Random polynomial graphs z = a(y) x + b(y) (+ curl) with the fields
    (1, 0, a(y)) (+ bend) and, for k = 2, (c, 0, c a(y)). Without bend and
    curl the family moves each point along the line of its chart x-axis, so
    the certificate must hold; wherever the float minor jets exceed rounding
    on the sample grid, it must not."""
    a_text = _poly_text(a, ("1", "y", "y^2"))
    height = f"({a_text})*x + {_poly_text(b, ('1', 'y', 'y^2'))}"
    field_z = a_text
    if not ruled:
        height += " + " + _poly_text(curl, _MONOMIALS)
        field_z += " + " + _poly_text(bend, _MONOMIALS)
    fields = [["1", "0", field_z]]
    if k == 2:
        fields.append([repr(c), "0", f"{c!r}*({a_text})"])
    family = _graph_family(["x", "y"], [height], fields, k=k)
    certified = frame_minors_vanish(family)
    if ruled:
        assert certified
    X = family.M.grid(3, margin=0.15)
    coeffs = _minor_jets(family, X, critical_degree(family))
    if np.max(np.abs(coeffs)) > 1e-9:
        assert not certified


def test_growth_needs_five_samples(segment):
    series = volume_series(segment.family)[:4]
    with pytest.raises(ValueError):
        growth_exponent(series)


# -- vanishing verdict --------------------------------------------------------


def test_vanishing_ruling(hp):
    vv = vanishing_verdict(hp.family)
    assert vv.vanishes and vv.label == "VANISHES"
    assert vv.witness is None


def test_nonzero_segment_witness(segment):
    vv = vanishing_verdict(segment.family)
    assert not vv.vanishes
    assert vv.min_index == 0
    assert vv.witness.index == 0
    assert vv.witness.value == pytest.approx(1.0)


def test_rigid_rotation_vanishes():
    rot = corpus.load("circle_rotation")
    vv = vanishing_verdict(rot.family)
    assert vv.vanishes
    assert vv.max_coeff <= 1e-12


# -- tangency flow ------------------------------------------------------------


def test_flow_ruling_matches_closed_form(hp, monkeypatch):
    """hp swept by (1, 0, y) transports the constant field Y = (1, 0), so
    the path is x(t) = x0 - t, y(t) = y0. The frame_many calls are one
    embedding check, one certificate at t = 0, and the evaluations of one
    corrector over the stack of all checkpoints of the four trajectories:
    its first at the predictions u_0 - t_j Y, Y = gauss_newton_step of the
    t = 0 frame, then one per step. The path is straight, so every
    prediction lands on it, one round accepts the whole stack and at most
    one step follows. The kept iterates are the checkpoints of the path,
    and the certificate reads the corrector's frame at them with no
    frame_many call of its own."""
    calls, kept = [], []
    frame_many = SweepFamily.frame_many

    def counted(self, X, T):
        calls.append((np.array(X), np.array(T)))
        return frame_many(self, X, T)

    def corrector(evaluate, U, target):
        out = gauss_newton(evaluate, U, target)
        kept.append((len(calls), *out))
        return out

    monkeypatch.setattr(SweepFamily, "frame_many", counted)
    monkeypatch.setattr("osclab.sweep.gauss_newton", corrector)
    starts = np.array([[0.0, 0.0], [0.05, -0.1]])
    reports = tangency_flow_check(hp.family, starts, 0.2)
    monkeypatch.undo()
    for fr in reports:
        assert fr.passed and fr.max_drift <= 1e-15 and fr.error_estimate <= 1e-15
        assert fr.steps == FLOW_CHECKPOINTS and fr.max_residual <= 1e-15
    U0 = np.concatenate([starts, starts])
    assert np.array_equal(calls[1][0], U0)
    assert np.array_equal(calls[1][1], np.zeros(4))
    ((end, U, C, F, residual),) = kept
    assert end == len(calls) and 1 <= end - 2 <= 2
    # rows run trajectory by trajectory, checkpoint by checkpoint
    frame = frame_many(hp.family, *calls[1])
    Y = np.repeat(gauss_newton_step(frame[:, :, :2], frame[:, :, 2]), FLOW_CHECKPOINTS, axis=0)
    j = np.tile(np.arange(1, FLOW_CHECKPOINTS + 1), 4)
    T = np.repeat([0.2, 0.2, -0.2, -0.2], FLOW_CHECKPOINTS) * j / FLOW_CHECKPOINTS
    predicted = np.repeat(U0, FLOW_CHECKPOINTS, axis=0) - T[:, None] * Y
    assert np.array_equal(calls[2][0], predicted)
    assert np.array_equal(calls[2][1], T)
    assert all(np.isin(Tc, T).all() for _, Tc in calls[3:])
    path = np.repeat(U0, FLOW_CHECKPOINTS, axis=0) - T[:, None] * [1.0, 0.0]
    assert np.allclose(U, path, rtol=0, atol=1e-15)
    assert np.array_equal(F, frame_many(hp.family, U, T))
    assert np.array_equal(C, hp.family.point_many(U, T))
    assert np.all(residual <= 1e-15)


def test_flow_rigid_rotation():
    rot = corpus.load("circle_rotation")
    fr = tangency_flow_check(rot.family, np.array([[np.pi]]), 0.2)[0]
    assert fr.max_drift <= 1e-8


def test_flow_batch_isolates_each_start(hp):
    # the flow is x(t) = x0 - t, so (0.95, 0) leaves the box at t = -0.05
    starts = np.array([[0.0, 0.0], [0.95, 0.0]])
    both = tangency_flow_check(hp.family, starts, 0.2)
    alone = [tangency_flow_check(hp.family, y[None], 0.2)[0]
             for y in starts]
    assert isinstance(both[1].error, FlowExitError) and not both[1].passed
    assert "at t=-" in str(both[1].error)
    assert str(both[1].error) == str(alone[1].error)
    assert both[0].error is None and both[0].passed
    assert both[0].max_drift == alone[0].max_drift
    assert abs(both[0].max_residual - alone[0].max_residual) <= 1e-15


def test_flow_failed_certificate_ends_only_its_start(segment):
    """Without a verdict to stop it, the transverse segment family runs: its
    certificate at t = 0 reads dt(phi) at distance 1 from the tangent span
    at every start, and each start reports that, with no checkpoint reached,
    instead of raising."""
    reports = tangency_flow_check(segment.family, np.array([[0.3], [0.6]]), 0.2)
    assert len(reports) == 2
    for fr in reports:
        assert isinstance(fr.error, FlowRankError)
        assert "least-squares residual 1.000e+00" in str(fr.error)
        assert not fr.passed and fr.steps == 0


@pytest.mark.parametrize("lam", [1e-9, 1.0, 1e3])
def test_flow_certificate_under_rescaling(lam):
    """The transverse segment scaled by lam, the graph y = 0 over [0, lam]
    swept by (0, lam): dt(phi) is normal to the chart at every scale, so the
    certificate, which reads the residual against |dt(phi)|, fails at every
    start."""
    M = Submanifold.graph(["x"], [[0.0, lam]], ["0"])
    family = SweepFamily(M, 1, fields=[["0", repr(lam)]])
    reports = tangency_flow_check(family, np.array([[0.3 * lam], [0.6 * lam]]), 0.2)
    for fr in reports:
        assert isinstance(fr.error, FlowRankError)
        assert not fr.passed and fr.steps == 0


def test_flow_start_outside_the_box_ends_only_its_start(hp):
    starts = np.array([[0.0, 0.0], [1.5, 0.0]])
    both = tangency_flow_check(hp.family, starts, 0.2)
    alone = tangency_flow_check(hp.family, starts[:1], 0.2)[0]
    assert isinstance(both[1].error, OutOfDomain) and not both[1].passed
    assert "outside the chart box" in str(both[1].error)
    assert both[0].error is None and both[0].passed
    assert both[0].max_drift == alone.max_drift


@pytest.fixture(scope="module")
def stretch():
    """z = xy swept by (1 + x, 0, y(1 + x)): Y_t = ((1 + x)/(1 + t), 0), so
    the flow x(t) = (1 + x0)/(1 + t) - 1 speeds up as t falls."""
    M = Submanifold.graph(["x", "y"], [[-1, 1], [-1, 1]], ["x*y"])
    return SweepFamily(M, 1, fields=[["1 + x", "0", "y*(1 + x)"]])


def test_flow_non_constant_field(stretch):
    starts = np.array([[0.0, 0.0], [0.3, -0.4], [-0.5, 0.6], [0.7, 0.7]])
    short = tangency_flow_check(stretch, starts, 0.2)
    for fr in short[:3]:
        assert fr.passed and fr.error is None
        assert fr.max_drift <= 1e-14 and fr.steps == FLOW_CHECKPOINTS
    # x(t) = 1.7/(1 + t) - 1 reaches the box edge x = 1 at t = -0.15, and a
    # checkpoint every 0.025 finds it outside at t = -0.175
    assert isinstance(short[3].error, FlowExitError) and not short[3].passed
    assert str(short[3].error) == "flow left the chart box at t=-0.175"
    # x(t) = 1.3/(1 + t) - 1 reaches it at t = -0.35, and checkpoints every
    # 0.0625 find the two exits at t = -0.375 and -0.1875
    long = tangency_flow_check(stretch, starts, 0.5)
    assert [str(fr.error) for fr in long] == [
        "None", "flow left the chart box at t=-0.375", "None",
        "flow left the chart box at t=-0.1875"]
    assert isinstance(long[1].error, FlowExitError) and not long[1].passed
    assert long[0].passed and long[2].passed
    for t_span, batch in ((0.2, short), (0.5, long)):
        for y, fr in zip(starts, batch):
            alone = tangency_flow_check(stretch, y[None], t_span)[0]
            assert (fr.steps, fr.max_drift, fr.error_estimate, fr.passed) == (
                alone.steps, alone.max_drift, alone.error_estimate, alone.passed)
            assert str(fr.error) == str(alone.error)


_VERIFY_FLOW_STARTS = np.array([[-0.7, -0.7], [0.0, 0.0], [0.7, 0.7]])


@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9, 1e-11])
@pytest.mark.parametrize("field", ["y + {eps}*x", "y + {eps}*x*(x^2 - 0.49)",
                                   "y + {eps}"])
def test_flow_mutants_of_the_ruling(field, eps):
    """hp's ruling (1, 0, y) with its last entry broken by eps: a field
    mutant, the grid-blind one that is a ruling on the grid {0, +-0.7}^2
    of the verify starts, and an offset. From those starts every trajectory
    fails its rank certificate at eps >= 1e-6 and passes at eps <= 1e-9,
    with a drift of order eps: the flow step's detection floor for these
    defects."""
    M = Submanifold.graph(["x", "y"], [[-1, 1], [-1, 1]], ["x*y"])
    family = SweepFamily(M, 1, fields=[["1", "0", field.format(eps=repr(eps))]])
    reports = tangency_flow_check(family, _VERIFY_FLOW_STARTS, 0.2)
    for fr in reports:
        if eps >= 1e-6:
            assert isinstance(fr.error, FlowRankError) and not fr.passed
            assert "rank certificate failed" in str(fr.error)
        else:
            assert fr.passed and fr.steps == FLOW_CHECKPOINTS
            assert 1e-2 * eps < fr.max_drift < 1e3 * eps
    if "0.49" in field and eps == 1e-11:
        # the grid-blind control: drift 4.1e-13 from the starts off the
        # axis, on the corrector's path and on the flow ODE's
        anchor = family.point_many(_VERIFY_FLOW_STARTS, np.zeros(3))
        ode = np.zeros(3)
        for span in (0.2, -0.2):
            path = rk4_flow(family, _VERIFY_FLOW_STARTS, span, checkpoints=FLOW_CHECKPOINTS)
            for j, U in enumerate(path, 1):
                T = np.full(3, span * j / FLOW_CHECKPOINTS)
                ode = np.maximum(ode, np.linalg.norm(family.point_many(U, T) - anchor, axis=1))
        for fr, d in zip(reports[::2], ode[::2]):
            assert 4.0e-13 < fr.max_drift < 4.2e-13 and 4.0e-13 < d < 4.2e-13


@pytest.mark.parametrize("peak", [0.9, 1.0])
def test_flow_fails_where_the_rank_drops_between_grid_times(peak, monkeypatch):
    """phi_t(x) = (x - peak b(t) E(x), 0) on the segment [-1, 1], with
    b(t) = 16 t - 64 t^2 and E(x) = (x - 0.3) - (x - 0.3)^3 / 12, so that
    D(phi_t) = 1 - peak b(t) (1 - (x - 0.3)^2 / 4). At peak 1 it vanishes
    only at x = 0.3 and t = 1/8, the checkpoint j = 5 of t_span = 0.2,
    which the embedding precondition's times (multiples of t_span / 4) do
    not sample, so the precondition passes. phi_t(0.3) = 0.3, so the path
    from x = 0.3 stays there: each checkpoint starts at its root and the
    corrector takes no step. At t = 1/8 the frame there is zero, and the
    certificate reads it as NaN and fails; at peak 0.9 the rank never drops
    and the same start passes."""
    M = Submanifold.graph(["x"], [[-1, 1]], ["0"])
    family = SweepFamily(M, 1, map_exprs=[
        f"x - {peak!r}*(16*t - 64*t^2)*((x - 0.3) - (x - 0.3)^3/12)", "0"])
    t_star = 0.2 * 5 / FLOW_CHECKPOINTS
    assert t_star == 0.125 and np.all(family.frame_many([[0.3]], [t_star]) == 0.0) == (
        peak == 1.0)
    calls = []
    frame_many = SweepFamily.frame_many
    monkeypatch.setattr(SweepFamily, "frame_many",
                        lambda self, X, T: calls.append(T) or frame_many(self, X, T))
    fr = tangency_flow_check(family, [[0.3]], 0.2)[0]
    monkeypatch.undo()
    # the precondition, t = 0, and one evaluation of the stack of every
    # checkpoint, no step
    assert len(calls) == 3
    assert fr.max_drift == 0.0 and fr.steps == FLOW_CHECKPOINTS
    if peak == 1.0:
        assert isinstance(fr.error, FlowRankError) and not fr.passed
        assert str(fr.error) == ("rank certificate failed: least-squares residual nan "
                                 "at t=0.125")
    else:
        assert fr.error is None and fr.passed and fr.max_residual == 0.0


def _verify_flow_starts(scene):
    X = scene.manifold.grid(scene.params.samples, margin=scene.params.margin)
    return X[sorted({0, len(X) // 2, len(X) - 1})]


def test_flow_checkpoints_match_rk4_oracle(scenes, stretch, monkeypatch):
    """The kept iterates of tangency_flow_check's corrector, from its
    predictions off the t = 0 frame, against fixed-step RK4 of -Y_t, both
    directions, from the verify starts of the six confirmed corpus scenes
    and from three starts of the stretch field. Each case takes one round:
    one corrector over the stack of every checkpoint, trajectory by
    trajectory, all of them accepted."""
    cases = [(scenes[name].family, _verify_flow_starts(scenes[name]),
              scenes[name].params.tspan) for name in _CONFIRMED]
    cases.append((stretch, np.array([[0.0, 0.0], [0.3, -0.4], [-0.5, 0.6]]), 0.2))
    kept = []
    monkeypatch.setattr("osclab.sweep.gauss_newton",
                        lambda *args: kept.append(gauss_newton(*args)) or kept[-1])
    worst = 0.0
    for family, starts, t_span in cases:
        kept.clear()
        assert all(fr.passed for fr in tangency_flow_check(family, starts, t_span))
        ((U, *_),) = kept
        oracle = [rk4_flow(family, starts, span, checkpoints=FLOW_CHECKPOINTS)
                  for span in (t_span, -t_span)]
        path = np.swapaxes(np.concatenate(oracle, axis=1), 0, 1)   # trajectory, checkpoint
        worst = max(worst, float(np.max(np.abs(U - path.reshape(U.shape)))))
    assert worst <= 1e-12


def _sequential_flow(family, starts, t_span, tol=Tolerances()):
    """tangency_flow_check as one corrector per checkpoint, each from the
    Euler prediction at the root before it: the reference that the stacked
    rounds reproduce."""
    M, K = family.M, FLOW_CHECKPOINTS
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    L = starts.shape[0]
    Xg = M.grid(5, margin=0.05)
    ts = np.repeat(np.linspace(-t_span, t_span, 9), Xg.shape[0])
    ratio = frame_ratio(family.frame_many(np.tile(Xg, (9, 1)), ts)[:, :, : M.m])
    if np.min(ratio) <= RANK_FLOOR:
        raise FlowRankError(f"phi_t is not an embedding at t={ts[np.argmin(ratio)]:.4g}")
    U = np.concatenate([starts, starts])
    T_end = np.repeat([t_span, -t_span], L)
    anchor = np.tile(family.point_many(starts, np.zeros(L)), (2, 1))
    drift, resid, estimate = np.zeros(2 * L), np.zeros(2 * L), np.zeros(2 * L)
    reached = np.zeros(2 * L, dtype=int)
    errors = [None] * (2 * L)
    inside = M.in_box_many(starts)
    for r in np.nonzero(~inside)[0]:
        errors[r] = OutOfDomain(f"flow start {starts[r].tolist()} outside the chart box")

    def certify(rows, t, frame):
        with np.errstate(divide="ignore", invalid="ignore"):
            res = frame_norm(frame) / frame_norm(frame[:, :, : M.m])
        resid[rows] = np.maximum(resid[rows], res)
        bad = ~(res <= RANK_FLOOR * np.linalg.norm(frame[:, :, M.m], axis=1))
        for r, tr, d in zip(rows[bad], t[bad], res[bad]):
            errors[r] = FlowRankError(f"rank certificate failed: least-squares "
                                      f"residual {d:.3e} at t={tr:.4g}")

    live = np.nonzero(np.tile(inside, 2))[0]
    F = family.frame_many(U[live], np.zeros(live.size))
    certify(live, np.zeros(live.size), F)
    for j in range(1, K + 1):
        going = np.array([errors[r] is None for r in live], dtype=bool)
        live, F = live[going], F[going]
        if not live.size:
            break
        t = T_end[live] * j / K
        Y = gauss_newton_step(F[:, :, : M.m], F[:, :, M.m])
        guess = U[live] - (T_end[live, None] / K) * Y
        guess = np.where(np.isfinite(guess).all(axis=1, keepdims=True), guess, U[live])
        U[live], C, F, gap = gauss_newton(
            lambda V, rows: (family.point_many(V, t[rows]), family.frame_many(V, t[rows])),
            guess, anchor[live])
        J = F[:, :, : M.m]
        with np.errstate(invalid="ignore", over="ignore"):
            size = np.linalg.norm(
                np.einsum("qnm,qm->qn", J, gauss_newton_step(J, anchor[live] - C)), axis=1)
        estimate[live] = np.maximum(estimate[live], size)
        reached[live] = j
        exited = ~M.in_box_many(U[live], tol=1e-9)
        for r, tr in zip(live[exited], t[exited]):
            errors[r] = FlowExitError(f"flow left the chart box at t={tr:.4g}")
        drift[live[~exited]] = np.maximum(drift[live[~exited]], gap[~exited])
        certify(live[~exited], t[~exited], F[~exited])

    reports = []
    for r in range(L):
        error = errors[r] if errors[r] is not None else errors[L + r]
        max_drift = float(max(drift[r], drift[L + r]))
        error_estimate = float(max(estimate[r], estimate[L + r]))
        reports.append(FlowReport(
            start=starts[r].copy(), t_span=float(t_span),
            steps=int(max(reached[r], reached[L + r])), max_drift=max_drift,
            max_residual=float(max(resid[r], resid[L + r])),
            error_estimate=error_estimate,
            passed=error is None and max_drift + error_estimate <= tol.flow_drift,
            error=error))
    return reports


_XY = Submanifold.graph(["x", "y"], [[-1, 1], [-1, 1]], ["x*y"])
_S, _R2 = "sqrt(x^2 + y^2 - 1)", "(x^2 + y^2)"
#: the stacked flow's stress families: stretches of hp's ruling, whose paths
#: curve and, at the stronger one, end at a fold where no root is left; a
#: field off M, which fails its certificate at t = 0; the rigid rotation;
#: and the one-sheeted hyperboloid as a sqrt graph over [1, 2] x [-0.5, 0.5],
#: moved along its rulings, whose chart is undefined where x^2 + y^2 < 1, just
#: off the box, where a stack predicts checkpoints that a sequential run
#: would stop before
_FLOW_STRESS = {
    "stretch": lambda: SweepFamily(_XY, 1, fields=[["1 + x", "0", "y*(1 + x)"]]),
    "stronger_stretch": lambda: SweepFamily(
        _XY, 1, fields=[["(1 + x)^2", "0", "y*(1 + x)^2"]]),
    "off_M": lambda: SweepFamily(_XY, 1, fields=[["1", "0", "y + 0.3*x"]]),
    "circle_rotation": lambda: corpus.load("circle_rotation").family,
    "hyperboloid": lambda: SweepFamily(
        Submanifold.graph(["x", "y"], [[1, 2], [-0.5, 0.5]], [_S]), 1,
        fields=[[f"(x*{_S} - y)/{_R2}", f"(y*{_S} + x)/{_R2}", "1"]]),
}


@pytest.mark.parametrize("name", sorted(_FLOW_STRESS))
def test_stacked_flow_matches_sequential_reference(name):
    """From 12 random starts at spans 0.2 to 0.95, every FlowReport of the
    stacked rounds equals the sequential reference's in steps, passed and
    error, and in its floats up to rounding: 1e-13, where a root exists and
    the two runs reach it from different predictions, plus 1e-9 relative,
    for the drifts of about 0.7 past the stronger stretch's fold, where no
    root is left and the corrector stalls at points that move with the
    last digits of the root before the fold (40 seeds of starts gave 6e-14
    and 1.6e-10). On the hyperboloid the reference raises DomainError for
    starts near x = 1, whose backward prediction leaves the chart's domain
    before the box; the stack evaluates such a row as NaN and ends that
    start alone, with the exit from the box."""
    family = _FLOW_STRESS[name]()
    box = family.M.box
    starts = box[:, 0] + (box[:, 1] - box[:, 0]) * np.random.default_rng(7).random((12, family.M.m))
    raised = 0
    for t_span in (0.2, 0.35, 0.5, 0.65, 0.8, 0.95):
        try:
            want = _sequential_flow(family, starts, t_span)
        except FlowRankError as err:
            with pytest.raises(FlowRankError, match=re.escape(str(err))):
                tangency_flow_check(family, starts, t_span)
            continue
        except ex.DomainError:
            want = []
            for x in starts:
                try:
                    want.append(_sequential_flow(family, x[None], t_span)[0])
                except ex.DomainError:
                    want.append(None)
        for got, ref in zip(tangency_flow_check(family, starts, t_span), want, strict=True):
            if ref is None:
                assert isinstance(got.error, FlowExitError) and not got.passed
                raised += 1
                continue
            assert (got.steps, got.passed, str(got.error), type(got.error)) == (
                ref.steps, ref.passed, str(ref.error), type(ref.error)), (t_span, ref.start)
            for field in ("max_drift", "max_residual", "error_estimate"):
                a, b = getattr(got, field), getattr(ref, field)
                assert a == b or abs(a - b) <= 1e-13 + 1e-9 * abs(b), (t_span, field)
    assert (raised > 0) == (name == "hyperboloid")


#: flow frame_many calls of each confirmed corpus scene's verify (seed 1):
#: the embedding check, the certificate at t = 0 and the evaluations of one
#: corrector over the stack of every checkpoint, predicted off the t = 0 frame
_FLOW_FRAME_CALLS = {"plane": 3, "cylinder": 3, "hyperbolic_paraboloid": 4,
                     "saddle": 3, "paraboloid": 4, "circle_rotation": 4}
#: the same counts with every checkpoint's corrector run from u_(j-1)
_FLOW_FRAME_CALLS_UNPREDICTED = {"plane": 18, "cylinder": 18, "hyperbolic_paraboloid": 24,
                                 "saddle": 19, "paraboloid": 42, "circle_rotation": 28}


def test_flow_frame_calls_per_confirmed_scene(scenes, monkeypatch):
    calls, in_flow, counts = [], [False], {}
    frame_many = SweepFamily.frame_many

    def counted(self, X, T):
        calls.append(in_flow[0])
        return frame_many(self, X, T)

    def flow(*args, **kwargs):
        in_flow[0] = True
        try:
            return tangency_flow_check(*args, **kwargs)
        finally:
            in_flow[0] = False

    monkeypatch.setattr(SweepFamily, "frame_many", counted)
    monkeypatch.setattr(osculate, "tangency_flow_check", flow)
    for name in _CONFIRMED:
        calls.clear()
        report = osculate.verify_theorem(scenes[name], seed=1)
        assert report.verdict == "THEOREM_CONFIRMED", name
        counts[name] = sum(calls)
    assert counts == _FLOW_FRAME_CALLS
    assert all(counts[name] < _FLOW_FRAME_CALLS_UNPREDICTED[name] for name in _CONFIRMED)


@pytest.mark.parametrize("flow_drift", [0.0, 1e-30, 1e-6])
def test_flow_passes_within_the_drift_bound(hp, flow_drift):
    """passed reads max_drift + error_estimate against flow_drift, however
    small the tolerance, and the checkpoints run the same at any of them."""
    reports = tangency_flow_check(hp.family, np.array([[0.3, -0.4], [0.7, 0.7]]),
                                  0.2, tol=Tolerances(flow_drift=flow_drift))
    for fr in reports:
        assert fr.error is None and fr.steps == FLOW_CHECKPOINTS
        assert fr.passed == (fr.max_drift + fr.error_estimate <= flow_drift)
    if flow_drift == 1e-6:
        assert all(fr.passed for fr in reports)


def test_flow_requires_an_embedding():
    """phi_t(x, y) = ((1 - t) x, y, 0) collapses the plane at t = 1."""
    M = Submanifold.graph(["x", "y"], [[-1, 1], [-1, 1]], ["0"])
    family = SweepFamily(M, 1, fields=[["-x", "0", "0"]])
    with pytest.raises(FlowRankError, match="not an embedding at t=1"):
        tangency_flow_check(family, [[0.1, 0.2]], 1.0)
    fr = tangency_flow_check(family, [[0.1, 0.2]], 0.5)[0]
    assert fr.passed and fr.error is None


def test_flow_rejects_empty_window(hp):
    with pytest.raises(ValueError):
        tangency_flow_check(hp.family, np.array([[0.0, 0.0]]), 0.0)


@pytest.mark.parametrize("inner, outer", [(0.0, 0.5), (0.5, 0.5), (0.6, 0.5)])
def test_cutoff_rejects_bad_radii(inner, outer):
    with pytest.raises(ValueError, match="^cutoff radii must satisfy 0 < inner < outer$"):
        Cutoff(inner, outer, np.zeros(2))


@pytest.mark.parametrize("kwargs, message", [
    ({"k": 1}, "provide exactly one of fields / map_exprs"),
    ({"k": 1, "fields": [["1", "0"]], "map_exprs": ["sin(u)", "cos(u)"]},
     "provide exactly one of fields / map_exprs"),
    ({"k": 0, "fields": []}, "family degree k must be >= 1"),
    ({"k": 2, "fields": [["1", "0"]]}, "field count must equal k"),
    ({"k": 1, "fields": [["1", "0", "0"]]},
     "each field needs one expression per ambient coordinate"),
    ({"k": 1, "fields": [["1", "t"]]}, "undeclared variables ['t'] in sweep field"),
    ({"k": 1, "map_exprs": ["sin(u + t)"]},
     "map needs one expression per ambient coordinate"),
    ({"k": 1, "map_exprs": ["sin(u + t)", "cos(v + t)"]},
     "undeclared variables ['v'] in sweep map"),
])
def test_family_rejects_bad_input(kwargs, message):
    # scene.py refuses these first; a direct library call reaches the checks
    M = Submanifold.parametric(["u"], [[0.0, 2 * np.pi]], ["sin(u)", "cos(u)"], 2)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SweepFamily(M, **kwargs)


# -- map-mode validation -------------------------------------------------------


def test_map_family_must_fix_time_zero():
    M = Submanifold.parametric(["u"], [[0.0, 2 * np.pi]],
                               ["sin(u)", "cos(u)"], 2)
    with pytest.raises(ValueError):
        SweepFamily(M, 1, map_exprs=["sin(u) + 1", "cos(u + t)"])


def test_map_family_rejects_cutoff():
    M = Submanifold.parametric(["u"], [[0.0, 2 * np.pi]],
                               ["sin(u)", "cos(u)"], 2)
    with pytest.raises(ValueError):
        SweepFamily(M, 1, map_exprs=["sin(u + t)", "cos(u + t)"],
                    cutoff=Cutoff(0.1, 0.2, np.array([np.pi])))


# -- CSV ------------------------------------------------------------------------


def test_volume_csv_format(segment):
    series = volume_series(segment.family, t_grid=[0.2, 0.1])
    text = volume_csv(series)
    lines = text.split("\n")
    assert lines[0] == "t,vol,err"
    assert len(lines) == 4 and lines[-1] == ""
    assert lines[1].startswith("0.2000000000000000")
    assert "\r" not in text


def test_curve_at_a_stack_holds_the_curves_at_its_points(scenes):
    # a field family's stack is a PolyCurve and a map family's an ExprCurve
    # whose jets carry the batch axis; both equal the curves at each point
    cases = [s for s in scenes.values() if s.family is not None]
    cases.append(corpus.with_cutoff(scenes["sphere"], 0.2, 0.45))
    for scene in cases:
        family = scene.family
        X, _ = _sample(family, count=6)
        D = family.k + 2
        stack = family.curve_at(X)
        assert np.array_equal(stack.chart, X), scene.name
        want = np.stack([family.curve_at(x).jets(D) for x in X])
        assert np.array_equal(stack.jets(D), want), scene.name


@pytest.mark.parametrize("name", ["sphere", "cubic_graph", "circle", "segment"])
def test_vanishing_verdict_matches_per_sample_reduction(name):
    # the stacked table holds each sample's table and reduces as they would
    # one by one: the witness is the first largest coefficient in sample
    # order, min_index the lowest index alive at any sample
    scene = corpus.load(name)
    family, p = scene.family, scene.params
    vv = vanishing_verdict(family, p.samples, p.margin, p.tol)
    threshold = p.tol.vanish * vv.scale
    best, witness, alive = 0.0, None, []
    for i, x in enumerate(family.M.grid(p.samples, margin=p.margin)):
        coeffs = extract_t_polynomials(family, x, p.tol).coeffs
        assert np.array_equal(vv.table.coeffs[i], coeffs)
        mags = np.abs(coeffs)
        if np.max(mags) > best:
            comp, idx = np.unravel_index(np.argmax(mags), mags.shape)
            best = float(mags[comp, idx])
            witness = (x.tolist(), int(comp) + 1, int(idx), float(coeffs[comp, idx]))
        alive += np.flatnonzero(np.any(mags > threshold, axis=0)).tolist()
    assert not vv.vanishes
    assert vv.max_coeff == best
    w = vv.witness
    assert (w.x.tolist(), w.component, w.index, w.value) == witness
    assert vv.min_index == min(alive)


def test_stacked_degree_guard_names_the_first_bad_point():
    # phi = (x, x t^3) over the line y = 0 has the minor 3x t^2, past the
    # critical degree 1 at every x but 0: a stack raises for its first such
    # point, with the message that point gives alone
    M = Submanifold.graph(["x"], [[-1, 1]], ["0"])
    family = SweepFamily(M, 1, map_exprs=["x", "x*t^3"])
    assert extract_t_polynomials(family, [[0.0]]).coeffs.shape == (1, 1, 2)
    with pytest.raises(CoefficientDegreeError) as alone:
        extract_t_polynomials(family, [0.5])
    with pytest.raises(CoefficientDegreeError) as stacked:
        extract_t_polynomials(family, [[0.0], [0.5], [-0.5]])
    assert str(stacked.value) == str(alone.value)
    assert "x=[0.5]" in str(stacked.value)


def test_coefficients_csv_format(segment):
    table = extract_t_polynomials(segment.family, np.array([0.5]))
    text = coefficients_csv(table, m=1)
    lines = text.split("\n")
    assert lines[0] == "x1,component,i,a_i"
    assert lines[1] == "0.5,1,0,1"
    assert lines[2] == "0.5,1,1,0"


def test_cutoff_ruling_still_vanishes(hp):
    scene = corpus.with_cutoff(hp, 0.4, 0.9)
    vv = vanishing_verdict(scene.family)
    assert vv.vanishes
    fr = tangency_flow_check(scene.family, np.array([[0.0, 0.0]]), 0.2)[0]
    assert fr.passed
