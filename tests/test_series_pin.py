"""The volume series of scripts/series_digest.py, pinned against the
baseline in data/series_digest.npz: every corpus family and the four
shapes off the corpus, compared by the script's own `compare` at its BOUND
of 1e-14 relative. A change that moves a series rewrites the baseline in
the same commit and says what moved:

    PYTHONPATH=src python scripts/series_digest.py --save tests/data/series_digest.npz
"""

import importlib.util
import os
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "tests" / "data" / "series_digest.npz"


def _series_digest():
    """scripts/series_digest.py as a module; the BLAS thread variables it
    sets on import are restored after it."""
    spec = importlib.util.spec_from_file_location(
        "series_digest", ROOT / "scripts" / "series_digest.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


def test_volume_series_match_the_baseline(capsys):
    script = _series_digest()
    failing = script.compare(script.digest(), script._load(str(BASELINE)))
    lines = capsys.readouterr().out.splitlines()
    moved = [line for line in lines if not line.endswith("value 0 error 0")]
    assert failing == 0, "volume series moved:\n" + "\n".join(moved)
