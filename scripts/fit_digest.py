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

Usage: python scripts/fit_digest.py
"""

import os

# one BLAS thread, set before numpy loads, as scripts/run_corpus.py does
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

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


def _batch(shape) -> int:
    """The count of curves or matrices in a stack of this shape."""
    return int(np.prod(shape[:-2], dtype=int))


def main() -> int:
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

    digest = hashlib.sha256()
    found = missing = 0
    start = time.perf_counter()
    osculate.residual_jets, np.linalg.pinv = residual_spy, pinv_spy
    try:
        for name, k, order in CASES:
            scene = corpus.load(name)
            M, p = scene.manifold, scene.params
            for seed in SEEDS:
                for x in M.grid(p.samples, margin=p.margin):
                    curve = osculate.fit_class_k_curve(M, x, k, order, seed=seed, tol=p.tol)
                    if curve is None:
                        digest.update(b"none")
                        missing += 1
                    else:
                        digest.update(np.ascontiguousarray(curve.coeffs).tobytes())
                        digest.update(np.ascontiguousarray(curve.chart).tobytes())
                        found += 1
    finally:
        osculate.residual_jets, np.linalg.pinv = real_residual_jets, real_pinv
    elapsed = time.perf_counter() - start
    print(f"sha256 {digest.hexdigest()[:16]}  {found + missing} fits:"
          f" {found} curves, {missing} None")
    print("  ".join(f"{label} {value:,}" for label, value in counts.items()))
    print(f"{elapsed:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
