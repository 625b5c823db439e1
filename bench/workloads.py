"""The three workloads of the osclab benchmark.

Each workload is a list of scenes, built from the corpus JSON at set-up,
and a list of operations run on them in one pass. An operation returns an
``Outcome``; the checks that decide it are the ones ``osclab verify``,
``osclab ruled`` and the tier-1 tests apply to the same calls.

Library functions are looked up on their modules at call time (never
imported by name here), so the wrappers that ``tracer.Tracer`` installs
see every call the benchmark makes.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: verify_corpus: expected first failing step per scene (None = confirmed)
VERIFY_EXPECTED = {
    "plane": None,
    "sphere": "osculation",
    "cylinder": None,
    "hyperbolic_paraboloid": None,
    "saddle": None,
    "paraboloid": None,
    "cubic_graph": "osculation",
    "circle": "osculation",
    "segment": "osculation",
    "circle_rotation": None,
}

#: scenes whose verify_theorem time is reported one by one
VERIFY_TIMED = tuple(name for name, step in VERIFY_EXPECTED.items() if step is None)

RULED = ("cylinder", "hyperbolic_paraboloid", "saddle", "paraboloid")
CURVED = ("sphere", "cubic_graph", "circle")

#: fit_growth: family-less copies; the fit must fail on CURVED_FITS and
#: reach k(m+1) on RULED_FITS. The workload is kept to one pass of about
#: 10 s so that a run holds three passes and each operation gets a median.
#: cubic_graph alone carries the path on which every start is exhausted:
#: the sphere takes that path too, at four times the cost per sample.
CURVED_FITS = ("cubic_graph",)
RULED_FITS = ("saddle", "hyperbolic_paraboloid", "paraboloid")

#: growth slope bands on nonzero-volume sweeps, from the tier-1 tests:
#: segment 1 +- 0.05 (test_growth_transverse_slope_one), sphere >= 1.9
#: (test_growth_sphere_tangent_slope_two), and |slope - (b+1)| <= 0.3 for
#: every nonvanishing scene (criterion 04). The sphere is the one costly
#: series; cubic_graph's (slope 3) would add as much again to every pass.
GROWTH_SLOPES = {
    "sphere": (1.9, 2.3),
    "circle": (0.7, 1.3),
    "segment": (0.95, 1.05),
}


@dataclass(frozen=True)
class Outcome:
    ok: bool
    detail: str
    known_defect: bool = False   # a failure of the documented fit defect
    digest: str | None = None    # sha256 of a byte-stable report


@dataclass(frozen=True)
class Op:
    label: str
    scene: str
    run: Callable[[], Outcome]


def corpus_texts(src: Path) -> dict[str, str]:
    """JSON text of every corpus scene, read once per process."""
    corpus_dir = src / "osclab" / "corpus"
    return {p.stem: p.read_text(encoding="utf-8")
            for p in sorted(corpus_dir.glob("*.json"))}


def _without_family(data: dict) -> dict:
    data = copy.deepcopy(data)
    k = data.pop("family")["k"]
    data.setdefault("params", {})["k"] = k
    return data


def scene_specs(workload: str) -> list[tuple[str, str, bool]]:
    """(scene label, corpus name, keep family) in build order."""
    if workload == "verify_corpus":
        return [(name, name, True) for name in VERIFY_EXPECTED]
    if workload == "containment":
        return [(name, name, True) for name in RULED + CURVED]
    if workload == "fit_growth":
        return ([(f"{name}-nofam", name, False) for name in CURVED_FITS + RULED_FITS]
                + [(name, name, True) for name in GROWTH_SLOPES])
    raise KeyError(workload)


def build_scenes(osclab, texts: dict[str, str], workload: str) -> dict:
    """Parse and build every scene of a workload (the set-up under test)."""
    scenes = {}
    for label, name, keep_family in scene_specs(workload):
        data = json.loads(texts[name])
        if not keep_family:
            data = _without_family(data)
        scenes[label] = osclab.scene.build_scene(data, name=label)
    return scenes


def _report_digest(osclab, report) -> str:
    text = osclab.cli._json_text(report.as_dict())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _verify_op(osclab, scene, seed: int) -> Outcome:
    report = osclab.osculate.verify_theorem(scene, seed=seed)
    want = VERIFY_EXPECTED[scene.name]
    got = None if report.first_failure is None else report.first_failure["step"]
    want_verdict = "THEOREM_CONFIRMED" if want is None else "HYPOTHESIS_FAILS"
    ok = report.verdict == want_verdict and got == want
    return Outcome(ok, f"{report.verdict} at {got}", digest=_report_digest(osclab, report))


def _tube_op(scene, seed: int, tubes: dict) -> Outcome:
    rho = scene.manifold.tube_radius(seed=seed)
    tubes[scene.name] = rho
    return Outcome(rho > 0.0, f"rho={rho:.6g}")


def _ruled_op(osclab, scene, tubes: dict) -> Outcome:
    p = scene.params
    rv = osclab.osculate.ruledness_check(
        scene.manifold, scene.family.curve_at, p.span,
        samples_per_axis=p.samples, margin=p.margin,
        tube=tubes[scene.name], tol=p.tol)
    want = "CONTAINED" if scene.name in RULED else "NOT_CONTAINED"
    return Outcome(rv.verdict == want,
                   f"{rv.verdict} counted={rv.counted} skipped={rv.skipped}")


def _metric_op(osclab, scene, x) -> Outcome:
    curve = scene.family.curve_at(x)
    mo = osclab.contact.contact_order_metric(curve, scene.manifold, tol=scene.params.tol)
    ruled = scene.name in RULED
    return Outcome(mo.contained == ruled, f"contained={mo.contained} slope={mo.slope}")


def _fit_op(osclab, scene, x, seed: int) -> Outcome:
    """verify_theorem step 1 for a family-less scene, at one sample."""
    M, tol = scene.manifold, scene.params.tol
    required = scene.k * (M.m + 1)
    curve = osclab.osculate.fit_class_k_curve(M, x, scene.k, required, seed=seed, tol=tol)
    expect_curve = scene.name.removesuffix("-nofam") in RULED_FITS
    if curve is None:
        return Outcome(not expect_curve, "no curve")
    order = osclab.contact.contact_order_jet_recharted(curve, M, required + 2, tol)
    met = order.meets(required)
    # The fit accepts an absolute residual of tol.fit_residual while the
    # contact check needs tol.contact_coeff relative, so some returned
    # curves reach a lower order. Counted as failed, flagged as known.
    return Outcome(expect_curve and met, f"order {order} of {required}",
                   known_defect=expect_curve and not met)


def _growth_op(osclab, scene) -> Outcome:
    p = scene.params
    series = osclab.sweep.volume_series(scene.family, p.t_grid(), p.quad)
    fit = osclab.sweep.growth_exponent(series, p.tol)
    lo, hi = GROWTH_SLOPES[scene.name]
    ok = not fit.identically_zero and lo <= fit.slope <= hi
    return Outcome(ok, f"slope={fit.slope}")


def make_ops(osclab, workload: str, scenes: dict, seed: int) -> list[Op]:
    """The operations of one pass, in order, on freshly built scenes."""
    ops: list[Op] = []
    if workload == "verify_corpus":
        for name, scene in scenes.items():
            ops.append(Op("verify", name,
                          lambda s=scene: _verify_op(osclab, s, seed)))
    elif workload == "containment":
        tubes: dict = {}
        for name, scene in scenes.items():
            ops.append(Op("tube_radius", name,
                          lambda s=scene: _tube_op(s, seed, tubes)))
            ops.append(Op("ruledness_check", name,
                          lambda s=scene: _ruled_op(osclab, s, tubes)))
            p = scene.params
            for x in scene.manifold.grid(p.samples, margin=p.margin):
                ops.append(Op("contact_order_metric", name,
                              lambda s=scene, x=x: _metric_op(osclab, s, x)))
    elif workload == "fit_growth":
        for name, scene in scenes.items():
            if scene.family is None:
                p = scene.params
                for x in scene.manifold.grid(p.samples, margin=p.margin):
                    ops.append(Op("fit", name,
                                  lambda s=scene, x=x: _fit_op(osclab, s, x, seed)))
            else:
                ops.append(Op("growth", name, lambda s=scene: _growth_op(osclab, s)))
    else:
        raise KeyError(workload)
    return ops
