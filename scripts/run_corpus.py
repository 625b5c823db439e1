#!/usr/bin/env python3
"""Run the full verdict pipeline over every built-in scene and write the
JSON reports plus a one-line-per-scene summary. For every scene with a
family it also writes the CSVs of `osclab coeffs` (<scene>.coeffs.csv) and
`osclab sweep` (<scene>.sweep.csv).

The timings are printed, not written, so that `diff -r` of two output
directories compares every output.

Usage: python scripts/run_corpus.py [outdir]
"""

import os

# one BLAS thread, set before numpy loads: the reduction order of the
# quadrature's products can follow the thread count, and with it the
# last digits of a volume
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from osclab import corpus  # noqa: E402
from osclab.osculate import verify_theorem  # noqa: E402
from osclab.sweep import coefficients_csv, vanishing_verdict, volume_csv, volume_series  # noqa: E402


def main() -> int:
    outdir = Path(sys.argv[1] if len(sys.argv) > 1 else "out/corpus")
    outdir.mkdir(parents=True, exist_ok=True)
    summary = []
    for name in corpus.names():
        scene = corpus.load(name)
        start = time.perf_counter()
        report = verify_theorem(scene, seed=0)
        elapsed = time.perf_counter() - start
        (outdir / f"{name}.json").write_text(
            json.dumps(report.as_dict(), sort_keys=True, indent=2) + "\n")
        if scene.family is not None:
            p = scene.params
            vv = vanishing_verdict(scene.family, p.samples, p.margin, p.tol)
            (outdir / f"{name}.coeffs.csv").write_text(
                coefficients_csv(vv.table, scene.manifold.m))
            (outdir / f"{name}.sweep.csv").write_text(
                volume_csv(volume_series(scene.family, p.t_grid(), p.quad)))
        step = "-" if report.first_failure is None else report.first_failure["step"]
        print(f"{name:24s} {report.verdict:18s} {step:12s} {elapsed:6.1f}s")
        summary.append({"scene": name, "verdict": report.verdict,
                        "first_failure": step})
    (outdir / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(f"reports in {outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
