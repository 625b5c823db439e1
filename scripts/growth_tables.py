#!/usr/bin/env python3
"""Emit swept-volume series (CSV) and growth-exponent fits for every
corpus sweep; the CSVs are the plotting interface.

Usage: python scripts/growth_tables.py [outdir]
"""

import os

# one BLAS thread, set before numpy loads: the reduction order of the
# quadrature's products can follow the thread count, and with it the
# last digits of a volume
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from osclab import corpus  # noqa: E402
from osclab.sweep import growth_exponent, volume_csv, volume_series  # noqa: E402


def main() -> int:
    outdir = Path(sys.argv[1] if len(sys.argv) > 1 else "out/growth")
    outdir.mkdir(parents=True, exist_ok=True)
    fits = {}
    for name in corpus.names():
        scene = corpus.load(name)
        series = volume_series(scene.family, scene.params.t_grid(),
                               scene.params.quad)
        (outdir / f"{name}.csv").write_text(volume_csv(series), newline="")
        fit = growth_exponent(series)
        fits[name] = {
            "identically_zero": fit.identically_zero,
            "slope": fit.slope,
            "intercept": fit.intercept,
            "residual": fit.residual,
            "k": scene.k,
            "m": scene.manifold.m,
            "threshold": scene.k * (scene.manifold.m + 1),
        }
        label = "zero" if fit.identically_zero else f"slope {fit.slope:.3f}"
        print(f"{name:24s} {label}")
    (outdir / "fits.json").write_text(
        json.dumps(fits, sort_keys=True, indent=2) + "\n")
    print(f"series in {outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
