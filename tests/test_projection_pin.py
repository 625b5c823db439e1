"""A subset of the projections of scripts/projection_digest.py, pinned
against the baseline in data/projection_digest.npz and compared by the
script's own `compare`: every `project_batch` field of every row (foot,
chart point, distance and the three flags) must match bit for bit, and so
must every `distances` row that keeps its route.

The subset takes well under 1 s: sphere, a graph whose `distances` rows
are certified by a descent within its reach bound or projected; cylinder, a
parametric chart whose rows settle or project, with two tube-radius levels;
and circle, a curve in R^2 whose every row projects. Each runs all of its
inputs (tube levels, ruledness points, distances and the seeded far
points). A change that moves a projection rewrites the baseline in the same
commit and says what moved:

    PYTHONPATH=src python tests/test_projection_pin.py
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "tests" / "data" / "projection_digest.npz"
SCENES = ("sphere", "cylinder", "circle")


def _projection_digest():
    """scripts/projection_digest.py as a module."""
    spec = importlib.util.spec_from_file_location(
        "projection_digest", ROOT / "scripts" / "projection_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_projections_match_the_baseline(capsys):
    script = _projection_digest()
    failing = script.compare(script.digest(SCENES), script._load(str(BASELINE)))
    lines = capsys.readouterr().out.splitlines()
    moved = [line for line in lines if " 0 of " not in line]
    assert failing == 0, "projections moved:\n" + "\n".join(moved)


if __name__ == "__main__":
    script = _projection_digest()
    script._save(str(BASELINE), script.digest(SCENES))
