import warnings
from math import comb

import numpy as np
import pytest

from osclab import corpus
from osclab.config import QuadConfig
from osclab.manifold import OutOfDomain, Submanifold
from osclab.sweep import (
    Cutoff,
    DegenerateReparam,
    FlowExitError,
    FlowRankError,
    SweepFamily,
    _chart_mesh,
    _composite_gauss,
    _minor_coeffs,
    _volume_element,
    coefficients_csv,
    critical_degree,
    extract_t_polynomials,
    extract_t_polynomials_sampled,
    growth_exponent,
    random_reparam,
    reparam_invariance_test,
    swept_volume,
    tangency_flow_check,
    vanishing_verdict,
    volume_csv,
    volume_series,
)
from oracles import annulus_area


@pytest.fixture(scope="module")
def segment():
    return corpus.load("segment")


@pytest.fixture(scope="module")
def circle():
    return corpus.load("circle")


@pytest.fixture(scope="module")
def hp():
    return corpus.load("hyperbolic_paraboloid")


def test_sweep_eval_examples(segment, hp):
    x = np.array([0.25])
    assert np.allclose(segment.family.eval(x, 0.0),
                       segment.manifold.embed(x))
    assert np.allclose(segment.family.eval(np.array([0.5]), 0.3),
                       [0.5, 0.3])
    x0, y0, t = 0.3, -0.4, 0.2
    assert np.allclose(hp.family.eval(np.array([x0, y0]), t),
                       [x0 + t, y0, x0 * y0 + t * y0], atol=1e-15)
    with pytest.raises(OutOfDomain):
        segment.family.eval(np.array([2.0]), 0.1)


def test_cutoff_freezes_outside_outer_radius(segment):
    scene = corpus.with_cutoff(segment, 0.15, 0.4)
    x_out = np.array([0.98])  # radial chart distance 0.48 from the center
    for t in (0.0, 0.1, 0.3):
        assert np.allclose(scene.family.point(x_out, t),
                           scene.manifold.embed(x_out))
    x_in = np.array([0.5])
    assert np.allclose(scene.family.point(x_in, 0.3), [0.5, 0.3])


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
    for scene in (segment, hp):
        series = volume_series(scene.family)
        vols = [s.value for s in series][::-1]  # grid is descending in t
        assert all(b >= a - 1e-12 for a, b in zip(vols, vols[1:]))
        assert all(s.value >= 0 for s in series)


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


def test_quadrature_consistent_with_coefficients(segment, circle, hp):
    quad = QuadConfig(order=6, cells=4, t_cells=4)
    for scene, t in ((segment, 0.3), (circle, 0.1), (hp, 0.2)):
        F = scene.family
        vs = swept_volume(F, t, quad)
        X, wx = _chart_mesh(scene.manifold, quad)
        tn, wt = _composite_gauss(-t, t, quad.t_cells, quad.order)
        total = 0.0
        for x, w in zip(X, wx):
            table = extract_t_polynomials(F, x)
            vals = np.stack([np.polyval(c[::-1], tn) for c in table.coeffs])
            total += w * float(np.dot(wt, np.sqrt(np.sum(vals**2, axis=0))))
        assert abs(total - vs.value) <= 2 * vs.error + 1e-12 * (1 + abs(vs.value))


# -- minor t-coefficients (the swept-volume route of polynomial families) ----


def _assert_minor_coeffs_match_jets(family, X):
    A = _minor_coeffs(family._poly_frame_data(X))
    n, m = family.M.n, family.M.m
    assert A.shape == (X.shape[0], comb(n, m + 1), critical_degree(family) + 1)
    for x, a in zip(X, A):
        jets = extract_t_polynomials(family, x).coeffs
        scale = max(1.0, float(np.max(np.abs(jets))))
        assert np.max(np.abs(a - jets)) <= 1e-12 * scale


def test_minor_coeffs_match_jet_route(scenes):
    """At the vanishing-verdict samples of every polynomial corpus scene."""
    for scene in scenes.values():
        if scene.family is None or not scene.family.polynomial:
            continue
        _assert_minor_coeffs_match_jets(
            scene.family, scene.manifold.grid(3, margin=0.15))


def _frame_route_volume(family, t, quad):
    """swept_volume's value and error, from frame_many + _volume_element
    at every node of the same meshes."""

    def integrate(q):
        X, wx = _chart_mesh(family.M, q)
        tn, wt = _composite_gauss(-t, t, q.t_cells, q.order)
        total = 0.0
        for s, w in zip(tn, wt):
            frame = family.frame_many(X, np.full(X.shape[0], s))
            total += w * float(np.dot(wx, _volume_element(frame)))
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
    _assert_minor_coeffs_match_jets(family, family.M.grid(2, margin=0.2))
    for t in ts:
        vs = swept_volume(family, t, quad)
        ref, ref_err = _frame_route_volume(family, t, quad)
        if ref <= 1e-15:
            assert vs.value <= 1e-15 and vs.error <= 1e-15
            continue
        assert abs(vs.value - ref) <= 1e-12 * ref
        assert abs(vs.error - ref_err) <= 1e-12 * ref


def test_volume_series_emits_no_runtime_warning():
    cases = [corpus.load("saddle"), corpus.load("paraboloid"),
             corpus.with_cutoff(corpus.load("hyperbolic_paraboloid"), 0.4, 0.9)]
    for scene in cases:
        with np.errstate(all="warn"), warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            volume_series(scene.family)
        assert not [w for w in seen if issubclass(w.category, RuntimeWarning)], \
            scene.name


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


@pytest.mark.parametrize("lam", [
    1e-3, 1.0,
    pytest.param(1e3, marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 4: the absolute vol_zero floor reads a rounding-level "
        "volume of 9.9e-9 as growth with slope 1"))),
])
def test_growth_ruling_zero_under_rescaling(lam):
    """z = xy rescaled by lam: z = xy/lam over [-lam, lam]^2, field (lam, 0, y)."""
    M = Submanifold.graph(["x", "y"], [[-lam, lam], [-lam, lam]], [f"x*y/{lam!r}"])
    family = SweepFamily(M, 1, fields=[[repr(lam), "0", "y"]])
    assert growth_exponent(volume_series(family)).identically_zero


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


def test_flow_ruling_matches_closed_form(hp):
    vv = vanishing_verdict(hp.family)
    fr = tangency_flow_check(hp.family, np.array([[0.0, 0.0]]), 0.2, verdict=vv)[0]
    assert fr.passed and fr.max_drift <= 1e-6
    # the transported field is constant: Y = (1, 0), flow x(t) = x0 - t
    from osclab.sweep import _solve_field
    Y, resid = _solve_field(hp.family, np.tile([0.05, -0.1], (3, 1)),
                            np.array([0.0, 0.1, -0.15]))
    assert np.allclose(Y, [1.0, 0.0], atol=1e-12)
    assert np.all(resid <= 1e-12)


def test_flow_rigid_rotation():
    rot = corpus.load("circle_rotation")
    vv = vanishing_verdict(rot.family)
    fr = tangency_flow_check(rot.family, np.array([[np.pi]]), 0.2, verdict=vv)[0]
    assert fr.max_drift <= 1e-8


def test_flow_rejects_nonzero_verdict(segment):
    vv = vanishing_verdict(segment.family)
    with pytest.raises(FlowRankError):
        tangency_flow_check(segment.family, np.array([[0.5]]), 0.2, verdict=vv)


def test_flow_batch_isolates_each_start(hp):
    # the flow is x(t) = x0 - t, so (0.95, 0) leaves the box at t = -0.05
    vv = vanishing_verdict(hp.family)
    starts = np.array([[0.0, 0.0], [0.95, 0.0]])
    both = tangency_flow_check(hp.family, starts, 0.2, verdict=vv)
    alone = [tangency_flow_check(hp.family, y[None], 0.2, verdict=vv)[0]
             for y in starts]
    assert isinstance(both[1].error, FlowExitError) and not both[1].passed
    assert "at t=-" in str(both[1].error)
    assert str(both[1].error) == str(alone[1].error)
    assert both[0].error is None and both[0].passed
    assert both[0].max_drift == alone[0].max_drift
    assert abs(both[0].max_residual - alone[0].max_residual) <= 1e-15


def test_flow_rejects_empty_window(hp):
    with pytest.raises(ValueError):
        tangency_flow_check(hp.family, np.array([[0.0, 0.0]]), 0.0)


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


def test_coefficients_csv_format(segment):
    table = extract_t_polynomials(segment.family, np.array([0.5]))
    text = coefficients_csv([table], m=1)
    lines = text.split("\n")
    assert lines[0] == "x1,component,i,a_i"
    assert lines[1] == "0.5,1,0,1"
    assert lines[2] == "0.5,1,1,0"


def test_cutoff_ruling_still_vanishes(hp):
    scene = corpus.with_cutoff(hp, 0.4, 0.9)
    vv = vanishing_verdict(scene.family)
    assert vv.vanishes
    fr = tangency_flow_check(scene.family, np.array([[0.0, 0.0]]), 0.2,
                             verdict=vv)[0]
    assert fr.passed
