"""A subset of the class-k fits of scripts/fit_digest.py, pinned against
the baseline in data/fit_digest.npz and compared by the script's own
`compare`: a sample's None must match exactly, and a curve's coefficients
within the script's BOUND of 1e-14 relative to its largest coefficient.

The subset, all at seed 0, takes about 1 s: paraboloid,
hyperbolic_paraboloid and cubic_graph at (k, target order) = (2, 6), the
k = 2 surfaces; cylinder at (1, 2), whose parametric chart takes the
re-chart's linearized residual; and circle and paraboloid at (1, 2), where
no curve exists, so every start after start 0 runs as well. A change that
moves a fit rewrites the baseline in the same commit and says what moved:

    PYTHONPATH=src python tests/test_fit_pin.py
"""

import importlib.util
import os
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "tests" / "data" / "fit_digest.npz"
CASES = ([(name, 2, 6) for name in ("paraboloid", "hyperbolic_paraboloid", "cubic_graph")]
         + [(name, 1, 2) for name in ("cylinder", "circle", "paraboloid")])
SEEDS = (0,)


def _fit_digest():
    """scripts/fit_digest.py as a module; the BLAS thread variables it sets
    on import are restored after it."""
    spec = importlib.util.spec_from_file_location(
        "fit_digest", ROOT / "scripts" / "fit_digest.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


def test_fits_match_the_baseline(capsys):
    script = _fit_digest()
    failing = script.compare(script.digest(CASES, SEEDS), script._load(str(BASELINE)))
    lines = capsys.readouterr().out.splitlines()
    moved = [line for line in lines if not line.endswith("largest relative move: 0")]
    assert failing == 0, "fits moved:\n" + "\n".join(moved)


if __name__ == "__main__":
    script = _fit_digest()
    script._save(str(BASELINE), script.digest(CASES, SEEDS))
