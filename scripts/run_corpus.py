#!/usr/bin/env python3
"""Run the full verdict pipeline over every built-in scene and write the
JSON reports plus a one-line-per-scene summary. For every scene with a
family it also writes the CSVs of `osclab coeffs` (<scene>.coeffs.csv) and
`osclab sweep` (<scene>.sweep.csv), the records of `osclab ruled` with its
per-sample counts (<scene>.ruled.json) and of `osclab exponent`
(<scene>.exponent.json), and the slope, order, containment and distances
of the metric contact order at each verify sample (<scene>.metric.json).

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

import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from osclab import corpus  # noqa: E402
from osclab.cli import _json_text  # noqa: E402
from osclab.contact import contact_order_metric  # noqa: E402
from osclab.osculate import growth_record, ruledness_record, verify_theorem  # noqa: E402
from osclab.sweep import coefficients_csv, vanishing_verdict, volume_csv, volume_series  # noqa: E402


def _metric(scene) -> list:
    """contact_order_metric of the family curve at each verify sample."""
    M, p = scene.manifold, scene.params
    out = []
    for x in M.grid(p.samples, margin=p.margin):
        mo = contact_order_metric(scene.family.curve_at(x), M, tol=p.tol)
        out.append({"x": x.tolist(), "slope": mo.slope, "order": mo.order,
                    "contained": mo.contained, "distances": mo.distances.tolist()})
    return out


def main() -> int:
    outdir = Path(sys.argv[1] if len(sys.argv) > 1 else "out/corpus")
    outdir.mkdir(parents=True, exist_ok=True)
    summary = []
    for name in corpus.names():
        scene = corpus.load(name)
        start = time.perf_counter()
        report = verify_theorem(scene, seed=0)
        elapsed = time.perf_counter() - start
        (outdir / f"{name}.json").write_text(_json_text(report.as_dict()))
        if scene.family is not None:
            M, p = scene.manifold, scene.params
            vv = vanishing_verdict(scene.family, p.samples, p.margin, p.tol)
            (outdir / f"{name}.coeffs.csv").write_text(coefficients_csv(vv.table, M.m))
            (outdir / f"{name}.sweep.csv").write_text(
                volume_csv(volume_series(scene.family, p.t_grid(), p.quad)))
            ruled, rv = ruledness_record(M, scene.family, p)
            ruled["per_sample"] = rv.per_sample
            (outdir / f"{name}.ruled.json").write_text(_json_text(ruled))
            (outdir / f"{name}.exponent.json").write_text(
                _json_text(growth_record(scene.family, p)))
            (outdir / f"{name}.metric.json").write_text(_json_text(_metric(scene)))
        step = "-" if report.first_failure is None else report.first_failure["step"]
        print(f"{name:24s} {report.verdict:18s} {step:12s} {elapsed:6.1f}s")
        summary.append({"scene": name, "verdict": report.verdict,
                        "first_failure": step})
    (outdir / "summary.json").write_text(_json_text(summary))
    print(f"reports in {outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
