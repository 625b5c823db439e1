#!/usr/bin/env python3
"""Hash every `BatchProjection` field that the corpus projections produce,
and every distance that `Submanifold.distances` reads on the verify path.

For each built-in scene the projections run over three inputs: the
ruledness points of the verdict pipeline (`ruledness`, every point that
`osculate.ruledness_points` builds, projected whole), the probes of each
level that its tube-radius search projects (`tube@<rho>`, one input per
dyadic level) and 200 seeded points around the manifold (`far`). The
ruled 3-fold w = xy + z in R^4 adds its 1,728 ruledness points
(`ruled_3fold ruledness`), the one input that `project_batch` splits into
chunks. A scene with a family adds `distances`: its ruledness points at the
ruled tolerance, then the metric contact order's nodes of each verify
sample at dist_zero, through `Submanifold.distances` as `ruledness_check`
and `contact_order_metric` query them, with the distance, the eligibility
and the route of each row: settled by the chart follower, certified by a
descent within the reach bound, or projected. The script prints one line
per scene and input with a short SHA-256 of each field, and for
`distances` the count of rows on each route.

Usage:
    python scripts/projection_digest.py [--save FILE.npz] [--against FILE.npz]

`--save` stores the queries and every field. `--against` compares with a
stored run, for instance one made from another checkout with its `src` on
PYTHONPATH, and lists every row that differs with the absolute difference
of each field. Tube levels line up by rho, so a level that only one run
projected (a search that refutes it without projecting, say) is named as
such and the levels both runs projected are compared row by row. A
summary follows, one line per scene and input: how many `converged`,
`on_boundary` and `ambiguous` flags flip each way (+ for False to True, -
for True to False), the largest decrease and the largest increase in
`distance`, and the largest move of `point` over the rows that neither run
flags ambiguous. For `distances` it lists every row whose distance or
eligibility moved, with its route in both runs, and summarizes the route
changes, the largest move, and the rows that both runs project, settle
or certify, which must agree bit for bit. It exits 1 when a projection row
differs, when a `distances` row moves on the same route in both runs or
changes its eligibility, or when an input is in one run only.
"""

from __future__ import annotations

import argparse
import hashlib
import sys

import numpy as np

from osclab import corpus
from osclab.config import geometric_grid
from osclab.manifold import BatchProjection, Submanifold
from osclab.osculate import RULED_PARAMS, ruledness_points
from osclab.scene import build_scene

FIELDS = BatchProjection._fields
#: the routes of a `distances` row, by their code in its `route` field
ROUTES = ("settled", "certified", "projected")
FLAGS = ("converged", "on_boundary", "ambiguous")
FAR_POINTS = 200
#: the ruled 3-fold w = xy + z swept along its rulings: m = 3, where the
#: 1,728 ruledness points (27 samples x 64 parameters) project in chunks
RULED_3FOLD = {"manifold": {"type": "graph", "chart_vars": ["x", "y", "z"],
                            "domain": [[-1, 1]] * 3, "ambient_dim": 4,
                            "height": ["x*y + z"]},
               "family": {"k": 1, "fields": [["1", "0", "0", "y"]]},
               "params": {"quad_cells": 4}}


def _calls(fn):
    """Run fn(); return its value and a list of (the caller's `rho` or None,
    queries, result), one per project_batch call it made."""
    calls = []
    original = Submanifold.project_batch

    def spy(self, P):
        b = original(self, P)
        calls.append((sys._getframe(1).f_locals.get("rho"),
                      np.atleast_2d(np.asarray(P, dtype=float)), b))
        return b

    Submanifold.project_batch = spy
    try:
        value = fn()
    finally:
        Submanifold.project_batch = original
    return value, calls


def _joined(calls) -> dict:
    out = {"query": np.concatenate([P for _, P, _ in calls])}
    for name in FIELDS:
        out[name] = np.concatenate([getattr(b, name) for _, _, b in calls])
    return out


def _tube_levels(M: Submanifold, rho_max) -> dict:
    """{f"tube@{rho:g}": queries and fields} for each level that the
    tube-radius search projected, read off the search's own `rho`."""
    _, calls = _calls(lambda: M.tube_radius(rho_max=rho_max))
    return {f"tube@{level:g}": _joined([(level, P, b)]) for level, P, b in calls}


def _far_points(M: Submanifold, seed: int) -> np.ndarray:
    """Points in the manifold's bounding box, widened by its size."""
    A = M.embed_many(M.grid(9))
    lo, hi = A.min(axis=0), A.max(axis=0)
    pad = 0.5 * (hi - lo) + 0.5
    rng = np.random.default_rng(seed)
    return rng.uniform(lo - pad, hi + pad, size=(FAR_POINTS, M.n))


def _ruledness(scene) -> dict:
    """Every ruledness point of the scene, projected in one call."""
    M, params = scene.manifold, scene.params
    _, _, pts = ruledness_points(M, scene.family.curve_at, params.span,
                                 params.samples, params.margin)
    return _joined([(None, pts, M.project_batch(pts))])


def _taken(P: np.ndarray, queries: list) -> np.ndarray:
    """The rows of P that `queries`, arrays of rows taken from P in order,
    hold."""
    Q = np.concatenate(queries) if queries else P[:0]
    mask = np.zeros(len(P), dtype=bool)
    j = 0
    for i in range(len(P)):
        if j < len(Q) and np.array_equal(P[i], Q[j], equal_nan=True):
            mask[i], j = True, j + 1
    assert j == len(Q), "a query is not a row of the distances call"
    return mask


def _routed(M: Submanifold, P, settle, start) -> dict:
    """M.distances(P, settle, start) with each row's route: the rows of the
    call's own _descend and project_batch calls, read by spies (the descents
    inside project_batch are not its own)."""
    taken = {"_descend": [], "project_batch": []}
    originals = {name: getattr(Submanifold, name) for name in taken}

    def spy(name):
        def call(self, *args):
            if sys._getframe(1).f_code.co_name == "distances":
                taken[name].append(np.array(args[-1], dtype=float))
            return originals[name](self, *args)
        return call

    for name in taken:
        setattr(Submanifold, name, spy(name))
    try:
        distance, eligible = M.distances(P, settle, start)
    finally:
        for name, original in originals.items():
            setattr(Submanifold, name, original)
    projected = _taken(P, taken["project_batch"])
    certified = _taken(P, taken["_descend"]) & ~projected
    return {"query": P, "distance": distance, "eligible": eligible,
            "route": np.where(projected, 2, np.where(certified, 1, 0))}


def _distances(scene) -> dict:
    """The scene's ruledness points at the ruled tolerance, then the metric
    nodes of each verify sample at dist_zero, through M.distances."""
    M, p = scene.manifold, scene.params
    X, _, pts = ruledness_points(M, scene.family.curve_at, p.span, p.samples, p.margin)
    tolerance = p.tol.ruled * (1.0 + float(np.max(np.linalg.norm(M.embed_many(X), axis=1))))
    parts = [_routed(M, pts, tolerance, np.repeat(X, RULED_PARAMS, axis=0))]
    for x in X:
        curve = scene.family.curve_at(x)
        parts.append(_routed(M, curve(geometric_grid()), p.tol.dist_zero, curve.chart))
    return {k: np.concatenate([part[k] for part in parts]) for k in parts[0]}


def digest() -> dict:
    """{(scene, input): {"query": P, field: values}} over the corpus and
    the ruled 3-fold's ruledness points."""
    out = {}
    for i, name in enumerate(corpus.names()):
        scene = corpus.load(name)
        M, params = scene.manifold, scene.params
        levels = _tube_levels(M, params.tube_rho_max)
        out.update({(name, level): v for level, v in levels.items()})
        if scene.family is not None:
            out[name, "ruledness"] = _ruledness(scene)
            out[name, "distances"] = _distances(scene)
        far = _far_points(M, seed=i)
        out[name, "far"] = _joined([(None, far, M.project_batch(far))])
    out["ruled_3fold", "ruledness"] = _ruledness(build_scene(RULED_3FOLD, name="ruled_3fold"))
    return out


def _short_hash(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:12]


def _row_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row max |a - b|; NaNs in the same place count as equal, a
    boolean mismatch counts 1."""
    a = a.reshape(len(a), -1).astype(float)
    b = b.reshape(len(b), -1).astype(float)
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore"):
        diff = np.where(same, 0.0, np.abs(a - b))
    return np.max(np.where(np.isnan(diff), np.inf, diff), axis=1)


def _largest(values: np.ndarray) -> float:
    """The largest of `values`, NaNs read as 0; 0 if none is positive."""
    return max(0.0, float(np.max(np.nan_to_num(values, nan=0.0), initial=0.0)))


def _summary(run: dict, ref: dict) -> str:
    """Flag flips of `run` against `ref`, as +(False to True)/-(True to
    False), the largest decrease and increase in distance, and the largest
    foot move over the rows that are unambiguous in both runs (0 if none)."""
    flips = " ".join(
        f"{name} +{np.count_nonzero(run[name] & ~ref[name])}"
        f"/-{np.count_nonzero(ref[name] & ~run[name])}"
        for name in FLAGS)
    unique = ~run["ambiguous"] & ~ref["ambiguous"]
    with np.errstate(invalid="ignore"):
        rise = run["distance"] - ref["distance"]
        move = np.linalg.norm(run["point"] - ref["point"], axis=1)[unique]
    return (f"{flips} largest distance decrease {_largest(-rise):.3g}"
            f" increase {_largest(rise):.3g}; largest unambiguous foot move"
            f" {_largest(move):.3g}")


def _compare_distances(label: str, a: dict, b: dict) -> tuple[int, str]:
    """Print every `distances` row of `a` whose distance or eligibility
    differs from `b`'s, with its route in both; return the count of faulty
    rows (moved on the same route, or eligibility changed) and a summary."""
    moved = _row_diff(a["distance"], b["distance"]) > 0
    flipped = a["eligible"] != b["eligible"]
    same = a["route"] == b["route"]
    rows = np.flatnonzero(moved | flipped)
    print(f"{label}: {len(rows)} of {len(a['query'])} rows differ")
    for r in rows:
        print(f"  row {r}: {ROUTES[b['route'][r]]} -> {ROUTES[a['route'][r]]}"
              f" distance {b['distance'][r]:.17g} -> {a['distance'][r]:.17g}"
              + (" eligible flips" if flipped[r] else ""))
    changes = " ".join(
        f"{ROUTES[i]}->{ROUTES[j]} {np.count_nonzero((b['route'] == i) & (a['route'] == j))}"
        for i in range(3) for j in range(3)
        if i != j and np.any((b["route"] == i) & (a["route"] == j)))
    with np.errstate(invalid="ignore"):
        move = np.abs(a["distance"] - b["distance"])[moved]
    both = same & (a["route"] == 2)
    identical = not np.any((moved | flipped)[both])
    summary = (f"route changes: {changes or 'none'}; largest distance move"
               f" {_largest(move):.3g}; eligibility flips {np.count_nonzero(flipped)};"
               f" {np.count_nonzero(both)} rows projected in both runs,"
               f" {'bit-identical' if identical else 'NOT bit-identical'}")
    return int(np.count_nonzero((moved & same) | flipped)), summary


def compare(run: dict, ref: dict) -> int:
    """Print every row of `run` that differs from `ref`, then one summary
    line per scene and input; return the count of differing rows."""
    differing = 0
    summary = []
    for key in sorted(set(run) | set(ref)):
        label = " ".join(key)
        if key not in run or key not in ref:
            side = "this run" if key in run else "the stored run"
            print(f"{label}: projected only in {side}")
            differing += 1
            continue
        a, b = run[key], ref[key]
        if a["query"].shape != b["query"].shape or not np.array_equal(a["query"], b["query"]):
            print(f"{label}: the queries differ ({len(a['query'])} vs {len(b['query'])} rows)")
            differing += 1
            continue
        if key[1] == "distances":
            faulty, line = _compare_distances(label, a, b)
            differing += faulty
            summary.append(f"{label}: {line}")
            continue
        diffs = {name: _row_diff(a[name], b[name]) for name in FIELDS}
        rows = np.flatnonzero(np.any([d > 0 for d in diffs.values()], axis=0))
        print(f"{label}: {len(rows)} of {len(a['query'])} rows differ")
        for r in rows:
            sizes = " ".join(f"{name}={diffs[name][r]:.2e}" for name in FIELDS
                             if diffs[name][r] > 0)
            print(f"  row {r}: {sizes}")
        differing += len(rows)
        summary.append(f"{label}: {len(rows)} of {len(a['query'])} rows differ; {_summary(a, b)}")
    print("summary, this run against the stored one:")
    for line in summary:
        print(f"  {line}")
    return differing


def _save(path: str, run: dict) -> None:
    np.savez(path, **{f"{s}:{i}:{k}": v for (s, i), fields_ in run.items()
                      for k, v in fields_.items()})


def _load(path: str) -> dict:
    out: dict = {}
    with np.load(path) as data:
        for name in data.files:
            s, i, k = name.split(":")
            out.setdefault((s, i), {})[k] = data[name]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--save", metavar="FILE", help="store queries and fields as .npz")
    ap.add_argument("--against", metavar="FILE", help="compare with a stored .npz")
    args = ap.parse_args(argv)
    run = digest()
    for (scene, inp), vals in run.items():
        hashes = " ".join(f"{name}={_short_hash(v)}" for name, v in vals.items()
                          if name != "query")
        if "route" in vals:
            hashes += " " + " ".join(f"{route}={np.count_nonzero(vals['route'] == i)}"
                                     for i, route in enumerate(ROUTES))
        print(f"{scene:22s} {inp:16s} {len(vals['query']):6d} {hashes}")
    if args.save:
        _save(args.save, run)
    if args.against:
        return 1 if compare(run, _load(args.against)) else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
