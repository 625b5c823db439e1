#!/usr/bin/env python3
"""Print the volume series of every corpus family and of four shapes off
the corpus, each with a short SHA-256 of its values and errors.

A corpus family's series is `sweep.volume_series` over its run's t-grid
and quadrature, as `osclab exponent` and verify's growth step read it: an
exact 0.0 wherever the certificate holds, else one quadrature per t. The
shapes are the families of `tests/test_sweep.py`'s `_SHAPES`: a curve in
R^3 (3 minors), a class-2 surface in R^4 (4 minors), a transverse field
under a cutoff and a ruled 3-fold in R^4, each over `geometric_grid()` at
its own quadrature settings.

Usage:
    python scripts/series_digest.py [--save FILE.npz] [--against FILE.npz]

`--save` stores every series. `--against` compares with a stored run, for
instance one made from another checkout with its `src` on PYTHONPATH, and
lists per family the largest relative move of the value and of the error
over its t-grid. Both moves are measured against the stored sample's
value, since an error of rounding size has no digits of its own; a sample
whose stored value is 0 moves by 0 if it stays 0, else by inf. It exits 1
when a move exceeds 1e-14, or when a family or its t-grid is in one run
only.
"""

import os

# one BLAS thread, set before numpy loads, as scripts/run_corpus.py does:
# the reduction order of the quadrature's products can follow the thread
# count, and with it the last digits of a volume
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

from osclab import corpus  # noqa: E402
from osclab.config import QuadConfig, geometric_grid  # noqa: E402
from osclab.manifold import Submanifold  # noqa: E402
from osclab.sweep import Cutoff, SweepFamily, VolumeSample, volume_series  # noqa: E402

#: the largest relative move that --against accepts
BOUND = 1e-14


def _shapes() -> dict:
    """{name: (family, quad)} for the shapes off the corpus."""
    square = [[-1, 1], [-1, 1]]
    return {
        "curve_in_R3": (SweepFamily(
            Submanifold.graph(["x"], [[0, 1]], ["x^2", "x^3"]), 1,
            fields=[["0", "1", "x"]]), QuadConfig()),
        "surface_in_R4": (SweepFamily(
            Submanifold.graph(["x", "y"], square, ["x*y", "x^2 - y^2"]), 2,
            fields=[["0", "0", "1", "x"], ["y", "0", "0", "1"]]), QuadConfig(cells=8)),
        "cutoff_transverse": (SweepFamily(
            Submanifold.graph(["x", "y"], square, ["0"]), 1,
            fields=[["y", "0", "1"]], cutoff=Cutoff(0.3, 0.8, np.zeros(2))),
            QuadConfig(cells=8)),
        "ruled_3fold_in_R4": (SweepFamily(
            Submanifold.graph(["x", "y", "z"], [[-1, 1]] * 3, ["x*y + z^2"]), 1,
            fields=[["1", "0", "0", "y"]]), QuadConfig(cells=4)),
    }


def digest() -> dict:
    """{family: {"t": ..., "value": ..., "error": ...}} over the corpus
    families and the shapes."""
    runs = {}
    for name in corpus.names():
        scene = corpus.load(name)
        if scene.family is not None:
            p = scene.params
            runs[name] = (scene.family, p.t_grid(), p.quad)
    for name, (family, quad) in _shapes().items():
        runs[name] = (family, geometric_grid(), quad)
    out = {}
    for name, (family, ts, quad) in runs.items():
        series = volume_series(family, ts, quad)
        out[name] = {key: np.array([getattr(s, key) for s in series], dtype=float)
                     for key in VolumeSample._fields}
    return out


def _short_hash(series: dict) -> str:
    h = hashlib.sha256()
    for key in VolumeSample._fields:
        h.update(np.ascontiguousarray(series[key]).tobytes())
    return h.hexdigest()[:12]


def _relative(a: np.ndarray, b: np.ndarray, scale: np.ndarray) -> float:
    """The largest |a - b| / |scale|; 0 where a equals b, inf where they
    differ on a zero scale."""
    moved = a != b
    if not np.any(moved):
        return 0.0
    with np.errstate(divide="ignore"):
        return float(np.max(np.abs(a - b)[moved] / np.abs(scale[moved])))


def compare(run: dict, ref: dict) -> int:
    """Print the largest relative moves of `run` against `ref` per family;
    return the count of families that fail."""
    failing = 0
    for name in sorted(set(run) | set(ref)):
        if name not in run or name not in ref:
            side = "this run" if name in run else "the stored run"
            print(f"{name:22s} only in {side}")
            failing += 1
            continue
        a, b = run[name], ref[name]
        if a["t"].shape != b["t"].shape or not np.array_equal(a["t"], b["t"]):
            print(f"{name:22s} the t-grids differ")
            failing += 1
            continue
        value = _relative(a["value"], b["value"], b["value"])
        error = _relative(a["error"], b["error"], b["value"])
        bad = max(value, error) > BOUND
        failing += bad
        print(f"{name:22s} largest relative move: value {value:.3g}"
              f" error {error:.3g}{'  ABOVE ' + format(BOUND, 'g') if bad else ''}")
    return failing


def _save(path: str, run: dict) -> None:
    np.savez(path, **{f"{name}:{key}": v for name, series in run.items()
                      for key, v in series.items()})


def _load(path: str) -> dict:
    out: dict = {}
    with np.load(path) as data:
        for entry in data.files:
            name, key = entry.split(":")
            out.setdefault(name, {})[key] = data[entry]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--save", metavar="FILE", help="store every series as .npz")
    ap.add_argument("--against", metavar="FILE", help="compare with a stored .npz")
    args = ap.parse_args(argv)
    run = digest()
    for name, series in run.items():
        print(f"{name:22s} {len(series['t']):3d} t {_short_hash(series)}"
              f" largest value {np.max(series['value']):.6g}")
    if args.save:
        _save(args.save, run)
    if args.against:
        print("this run against the stored one:")
        return 1 if compare(run, _load(args.against)) else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
