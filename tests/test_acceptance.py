"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured quantity once its assertions hold (run with -s to see
the table). Tolerances are pinned here, not configured elsewhere."""

import numpy as np

from osclab import cli, corpus
from osclab.contact import (
    PolyCurve,
    contact_order_jet_recharted,
    contact_order_metric,
    length_bound_check,
)
from osclab.exterior import frame_norm
from osclab.scene import Scene
from osclab.sweep import (
    SweepFamily,
    extract_t_polynomials,
    extract_t_polynomials_sampled,
    growth_exponent,
    random_reparam,
    reparam_invariance_test,
    swept_volume,
    tangency_flow_check,
    vanishing_verdict,
    volume_series,
)
from oracles import gram_volume, simpson_length


def _report(num: int, name: str, detail: str = ""):
    print(f"criterion {num:02d} ({name}): PASS  {detail}".rstrip())


def test_criterion_01_gram_equivalence():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n + 1))
        frame = [rng.normal(size=n) for _ in range(m)]
        lhs = frame_norm(np.stack(frame, axis=-1))
        rhs = gram_volume(frame)
        rel = abs(lhs - rhs) / max(1.0, abs(rhs))
        worst = max(worst, rel)
        assert rel <= 1e-10
    _report(1, "gram equivalence", f"max rel err {worst:.2e} on 200 frames")


def test_criterion_02_reparametrization_invariance(scenes):
    rng = np.random.default_rng(2)
    worst = 0.0
    for name, t_extent in (("segment", 0.3), ("circle", 0.2),
                           ("hyperbolic_paraboloid", 0.2)):
        family = scenes[name].family
        for trial in range(3):
            psi = random_reparam(family.M, t_extent, rng,
                                 flip_axis=trial % (family.M.m + 1) if trial else None)
            res = reparam_invariance_test(family, psi, t_extent)
            worst = max(worst, res.gap)
            assert res.gap <= 1e-6, (name, trial, res.gap)
    _report(2, "reparametrization invariance", f"max gap {worst:.2e}")


def test_criterion_03_closed_form_volumes(scenes):
    circle = scenes["circle"].family
    worst = 0.0
    for t in (0.05, 0.1, 0.2):
        vs = swept_volume(circle, t)
        rel = abs(vs.value - 4 * np.pi * t) / (4 * np.pi * t)
        worst = max(worst, rel)
        assert rel <= 1e-6
    segment = scenes["segment"].family
    for t in (0.05, 0.1, 0.2, 0.5):
        vs = swept_volume(segment, t)
        assert abs(vs.value - 2 * t) <= 1e-10
    _report(3, "closed-form volumes", f"circle max rel err {worst:.2e}")


def test_criterion_04_growth_vanishing_dichotomy(scenes, series_for):
    lines = []
    for name in corpus.names():
        family = scenes[name].family
        k, m = family.k, family.M.m
        fit = growth_exponent(series_for(name))
        vv = vanishing_verdict(family)
        if fit.identically_zero or fit.slope > k * (m + 1) + 0.5:
            assert vv.vanishes, name
            lines.append(f"{name}:zero" if fit.identically_zero
                         else f"{name}:{fit.slope:.2f}")
        if not vv.vanishes:
            assert fit.slope is not None, name
            assert abs(fit.slope - (vv.min_index + 1)) <= 0.3, (
                name, fit.slope, vv.min_index)
            lines.append(f"{name}:b={vv.min_index},s={fit.slope:.2f}")
    _report(4, "growth/vanishing dichotomy", "; ".join(lines))


def _with_degree(scene: Scene, k: int) -> Scene:
    """The scene's polynomial family re-presented as a class-k family by
    zero-padding its fields."""
    fam = scene.family
    zero = [["0"] * scene.manifold.n for _ in range(k - fam.k)]
    family = SweepFamily(scene.manifold, k, fields=fam.fields + zero,
                         cutoff=fam.cutoff)
    return Scene(name=f"{scene.name}+k{k}", manifold=scene.manifold,
                 family=family, params=scene.params, k=k, raw=scene.raw)


def test_criterion_05_cutoff_growth_bound(scenes):
    cases = [corpus.with_cutoff(scenes["sphere"], 0.2, 0.45)]
    hp = scenes["hyperbolic_paraboloid"]
    for k in (1, 2, 3):
        cases.append(corpus.with_cutoff(
            hp if k == 1 else _with_degree(hp, k), 0.4, 0.9))
    details = []
    for scene in cases:
        family = scene.family
        k = family.k
        # hypothesis: the family curves keep jet contact order >= k
        for x in family.M.grid(2, margin=0.3):
            assert contact_order_jet_recharted(
                family.curve_at(x), family.M, max(k, 2)).meets(k), scene.name
        fit = growth_exponent(volume_series(family))
        if fit.identically_zero:
            details.append(f"{scene.name}:zero")
            continue
        assert fit.slope >= k + 0.5, (scene.name, fit.slope)
        details.append(f"{scene.name}:{fit.slope:.2f}>={k}.5")
    _report(5, "cutoff growth bound", "; ".join(details))


def test_criterion_06_tangency_flow(scenes):
    hp = scenes["hyperbolic_paraboloid"].family
    fr1 = tangency_flow_check(hp, np.array([[0.0, 0.0]]), 0.2)[0]
    assert fr1.max_drift <= 1e-6

    rot = scenes["circle_rotation"].family
    fr2 = tangency_flow_check(rot, np.array([[np.pi]]), 0.2)[0]
    assert fr2.max_drift <= 1e-6
    _report(6, "tangency flow",
            f"drift ruling {fr1.max_drift:.2e}, rotation {fr2.max_drift:.2e}")


def test_criterion_07_length_bound():
    rng = np.random.default_rng(7)
    violations = 0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        coeffs = rng.uniform(0.0, 1.0, size=(int(rng.integers(2, 5)), n))
        coeffs *= rng.choice([-1.0, 1.0], size=n)
        lb = length_bound_check(PolyCurve(coeffs), 0.0, 1.0)
        violations += 0 if lb.holds else 1
    assert violations == 0

    curve = PolyCurve([[0, 0], [1, 0], [0, 1]])
    lb = length_bound_check(curve, 0.0, 1.0)
    oracle = simpson_length(curve, 0.0, 1.0)
    assert abs(lb.length - oracle) <= 1e-6
    assert abs(lb.length - 1.4789) <= 1e-3
    _report(7, "length bound",
            f"0/100 violations; (t,t^2) length {lb.length:.6f}")


def test_criterion_08_contact_order_agreement(scenes):
    checked = 0
    for name in corpus.CORE:
        scene = scenes[name]
        M, family = scene.manifold, scene.family
        grid = M.grid(3, margin=0.3)
        picks = grid if M.m == 1 else grid[[0, 4, 8]]
        for x in picks:
            curve = family.curve_at(x)
            jet = contact_order_jet_recharted(curve, M, scene.k * (M.m + 1) + 2)
            metric = contact_order_metric(curve, M)
            if metric.contained:
                assert jet.saturated, (name, x)
            else:
                assert abs(metric.slope - (jet.order + 1)) <= 0.2, (
                    name, x.tolist(), str(jet), metric.slope)
            checked += 1
    assert checked == 27
    _report(8, "jet/metric contact agreement", "9 scenes x 3 points")


def test_criterion_09_theorem_pipeline(verify_report):
    hp = verify_report("hyperbolic_paraboloid")
    assert hp.verdict == "THEOREM_CONFIRMED"
    assert hp.steps["ruledness"]["max_distance"] <= 1e-8

    assert verify_report("plane").verdict == "THEOREM_CONFIRMED"

    sphere = verify_report("sphere")
    assert sphere.verdict == "HYPOTHESIS_FAILS"
    assert sphere.first_failure["step"] == "osculation"
    assert sphere.steps["osculation"]["records"][0]["order"] == "1"
    assert sphere.required_order == 3

    cubic = verify_report("cubic_graph")
    assert cubic.verdict == "HYPOTHESIS_FAILS"
    assert cubic.first_failure["step"] == "osculation"
    _report(9, "theorem pipeline",
            f"hp ruled max distance {hp.steps['ruledness']['max_distance']:.2e}")


def test_criterion_10_coefficient_cross_check(scenes):
    worst_gap, worst_guard = 0.0, 0.0
    for name in corpus.names():
        family = scenes[name].family
        for x in family.M.grid(2, margin=0.25):
            jet_path = extract_t_polynomials(family, x)
            sampled = extract_t_polynomials_sampled(family, x)
            gap = float(np.max(np.abs(jet_path.coeffs - sampled.coeffs)))
            worst_gap = max(worst_gap, gap)
            worst_guard = max(worst_guard, jet_path.guard_max)
            assert gap <= 1e-9, (name, x.tolist(), gap)
            assert jet_path.guard_max <= 1e-9, (name, x.tolist())
    _report(10, "coefficient cross-check",
            f"max |jet - vandermonde| {worst_gap:.2e}, guard {worst_guard:.2e}")


def test_criterion_11_determinism(tmp_path):
    scene = str(corpus.scene_path("circle_rotation"))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.run(["verify", "--scene", scene, "--seed", "11",
                    "--report", str(a)]) == 0
    assert cli.run(["verify", "--scene", scene, "--seed", "11",
                    "--report", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    _report(11, "determinism", f"{a.stat().st_size} byte reports identical")
