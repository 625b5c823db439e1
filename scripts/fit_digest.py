#!/usr/bin/env python3
"""Print one SHA-256 over the curves of a fixed set of class-k fits, with
the work they take: the `osculate.residual_jets` calls and the curves
they evaluate, and the `np.linalg.pinv` calls and the matrices they
invert, counted by spies.

The fits are `fit_class_k_curve` at every sample of a corpus scene's
verify grid, seeds 0-3, for 16 (scene, k, target order) cases:
paraboloid, hyperbolic_paraboloid and cubic_graph at (2, 6); cubic_graph,
saddle, hyperbolic_paraboloid, cylinder, paraboloid, sphere, circle,
segment and circle_rotation at (1, 2); and hyperbolic_paraboloid, saddle,
cubic_graph and cylinder at (1, 3), the lines read in closed form. That
is 504 fits. A change that should leave the fits alone prints the same
line before and after; a change to the fit's schedule that keeps every
curve moves the counts, not the digest.

Usage:
    python scripts/fit_digest.py [--save FILE.npz] [--against FILE.npz]

`--save` stores every fit. `--against` compares with a stored run, for
instance one made from another checkout with its `src` on PYTHONPATH, and
lists per case and seed the largest relative move of a curve's
coefficients, measured against the largest stored coefficient of that
curve. It exits 1 when a move exceeds 1e-14, when a sample has a curve in
one run and None in the other, or when a case, seed or sample grid is in
one run only.
"""

import os

# one BLAS thread, set before numpy loads, as scripts/run_corpus.py does
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from osclab import corpus, osculate  # noqa: E402

CASES = (
    [(name, 2, 6) for name in ("paraboloid", "hyperbolic_paraboloid", "cubic_graph")]
    + [(name, 1, 2) for name in ("cubic_graph", "saddle", "hyperbolic_paraboloid",
                                 "cylinder", "paraboloid", "sphere", "circle",
                                 "segment", "circle_rotation")]
    + [(name, 1, 3) for name in ("hyperbolic_paraboloid", "saddle", "cubic_graph",
                                 "cylinder")])
SEEDS = range(4)

#: the largest relative move that --against accepts
BOUND = 1e-14


def digest(cases=CASES, seeds=SEEDS) -> dict:
    """{"scene k=.. order=.. seed=..": {"chart": ..., "coeffs": ...}}, one
    entry per case and seed in that order: the grid's chart points
    (samples, m) and the fitted coefficients (samples, k+1, n), NaN where
    the fit returns None."""
    out = {}
    for name, k, order in cases:
        scene = corpus.load(name)
        M, p = scene.manifold, scene.params
        X = M.grid(p.samples, margin=p.margin)
        for seed in seeds:
            coeffs = np.full((len(X), k + 1, M.n), np.nan)
            for x, c in zip(X, coeffs):
                curve = osculate.fit_class_k_curve(M, x, k, order, seed=seed, tol=p.tol)
                if curve is not None:
                    c[...] = curve.coeffs
            out[f"{name} k={k} order={order} seed={seed}"] = {"chart": X, "coeffs": coeffs}
    return out


def _found(coeffs: np.ndarray) -> np.ndarray:
    return ~np.isnan(coeffs).any(axis=(-2, -1))


def _sha256(run: dict) -> str:
    """The hash of every curve's coefficients and chart point, b"none" for
    a None, in the order of the fits."""
    h = hashlib.sha256()
    for entry in run.values():
        for x, c, found in zip(entry["chart"], entry["coeffs"], _found(entry["coeffs"])):
            if found:
                h.update(c.tobytes())
                h.update(x.tobytes())
            else:
                h.update(b"none")
    return h.hexdigest()[:16]


def compare(run: dict, ref: dict) -> int:
    """Print per case and seed the largest relative move of `run` against
    `ref`, and each sample whose curve appears or vanishes; return the
    count of entries that fail."""
    failing = 0
    for key in sorted(set(run) | set(ref)):
        if key not in run or key not in ref:
            side = "this run" if key in run else "the stored run"
            print(f"{key:40s} only in {side}")
            failing += 1
            continue
        a, b = run[key], ref[key]
        if not np.array_equal(a["chart"], b["chart"]):
            print(f"{key:40s} the sample grids differ")
            failing += 1
            continue
        fa, fb = _found(a["coeffs"]), _found(b["coeffs"])
        flips = fa != fb
        for x, got in zip(b["chart"][flips], fa[flips]):
            print(f"{key:40s} sample {x.tolist()}: "
                  f"{'a curve' if got else 'None'} in this run only")
        both = fa & fb
        moves = (np.max(np.abs(a["coeffs"][both] - b["coeffs"][both]), axis=(-2, -1))
                 / np.max(np.abs(b["coeffs"][both]), axis=(-2, -1)))
        move = float(moves.max(initial=0.0))
        bad = move > BOUND
        failing += bool(bad or flips.any())
        line = f"{key:40s} largest relative move: {move:.3g}"
        if bad:
            line += f"  ABOVE {BOUND:g} at sample {b['chart'][both][np.argmax(moves)].tolist()}"
        print(line)
    return failing


def _save(path: str, run: dict) -> None:
    np.savez(path, **{f"{key}:{field}": v for key, entry in run.items()
                      for field, v in entry.items()})


def _load(path: str) -> dict:
    out: dict = {}
    with np.load(path) as data:
        for name in data.files:
            key, field = name.split(":")
            out.setdefault(key, {})[field] = data[name]
    return out


def _batch(shape) -> int:
    """The count of curves or matrices in a stack of this shape."""
    return int(np.prod(shape[:-2], dtype=int))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--save", metavar="FILE", help="store every fit as .npz")
    ap.add_argument("--against", metavar="FILE", help="compare with a stored .npz")
    args = ap.parse_args(argv)
    counts = {"residual_jets calls": 0, "residual_jets curves": 0,
              "pinv calls": 0, "pinv matrices": 0}
    real_residual_jets, real_pinv = osculate.residual_jets, np.linalg.pinv

    def residual_spy(M, curves, *args, **kwargs):
        counts["residual_jets calls"] += 1
        counts["residual_jets curves"] += _batch(curves.coeffs.shape)
        return real_residual_jets(M, curves, *args, **kwargs)

    def pinv_spy(a, *args, **kwargs):
        counts["pinv calls"] += 1
        counts["pinv matrices"] += _batch(np.shape(a))
        return real_pinv(a, *args, **kwargs)

    start = time.perf_counter()
    osculate.residual_jets, np.linalg.pinv = residual_spy, pinv_spy
    try:
        run = digest()
    finally:
        osculate.residual_jets, np.linalg.pinv = real_residual_jets, real_pinv
    elapsed = time.perf_counter() - start
    found = sum(int(_found(entry["coeffs"]).sum()) for entry in run.values())
    fits = sum(len(entry["coeffs"]) for entry in run.values())
    print(f"sha256 {_sha256(run)}  {fits} fits: {found} curves, {fits - found} None")
    print("  ".join(f"{label} {value:,}" for label, value in counts.items()))
    print(f"{elapsed:.1f}s", file=sys.stderr)
    if args.save:
        _save(args.save, run)
    if args.against:
        print("this run against the stored one:")
        return 1 if compare(run, _load(args.against)) else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
