"""The verify reports of every corpus scene at seeds 0, 1 and 3, pinned
against the baseline in data/corpus_reports.json.

Strings, integers, booleans and nulls must match exactly, and so must the
keys and lengths of every mapping and list. A float may move by
PIN_RELATIVE of the stored value plus PIN_ABSOLUTE, so that a drift of
5.6e-17 may become 0 but no digit that an `osclab verify --report` file
prints with meaning can move. A change that moves a report rewrites the
baseline in the same commit and says what moved:

    PYTHONPATH=src python tests/test_corpus_pin.py
"""

import json
import math
import sys
from pathlib import Path

import pytest

from osclab import corpus
from osclab.osculate import verify_theorem

BASELINE = Path(__file__).resolve().parent / "data" / "corpus_reports.json"
SEEDS = (0, 1, 3)
#: a float may move by this much of its stored value ...
PIN_RELATIVE = 1e-14
#: ... plus this much, four ulps of 1: rounding-level values may become 0
PIN_ABSOLUTE = 4 * 2.0**-52


def _key(name: str, seed: int) -> str:
    return f"{name}@{seed}"


def reports(names=None) -> dict:
    """{"scene@seed": report} as plain JSON data, as `--report` writes it."""
    out = {}
    for name in names or corpus.names():
        scene = corpus.load(name)
        for seed in SEEDS:
            report = verify_theorem(scene, seed=seed).as_dict()
            out[_key(name, seed)] = json.loads(json.dumps(report))
    return out


def differences(got, want, path: str = "") -> list[tuple[str, str]]:
    """Every place where `got` leaves `want`, as (path, "got != want")."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [(path, f"keys {sorted(got)} != {sorted(want)}")]
        return [d for k in sorted(want) for d in differences(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [(path, f"length {len(got)} != {len(want)}")]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in differences(g, w, f"{path}[{i}]")]
    if type(got) is float and type(want) is float:
        if got == want or (math.isnan(got) and math.isnan(want)):
            return []
        if abs(got - want) <= PIN_RELATIVE * abs(want) + PIN_ABSOLUTE:
            return []
    elif type(got) is type(want) and got == want:
        return []
    return [(path, f"{got!r} != {want!r}")]


def _step(path: str) -> str:
    """The pipeline step a path lies in, else its top-level field."""
    parts = path.lstrip(".").replace("[", ".").split(".")
    return parts[1] if parts[0] == "steps" and len(parts) > 1 else parts[0]


@pytest.fixture(scope="module")
def baseline():
    return json.loads(BASELINE.read_text(encoding="utf-8"))


def test_baseline_covers_every_scene_and_seed(baseline):
    assert sorted(baseline) == sorted(_key(n, s) for n in corpus.names() for s in SEEDS)


@pytest.mark.parametrize("name", corpus.names())
def test_verify_reports_match_the_baseline(name, baseline):
    moved = []
    for key, report in reports([name]).items():
        moved += [f"{key} step {_step(path)}: {path.lstrip('.')}: {text}"
                  for path, text in differences(report, baseline[key])]
    assert not moved, "verify reports moved:\n" + "\n".join(moved)


def test_pin_reads_floats_within_its_bounds():
    want = {"steps": {"flow": {"records": [{"max_drift": 0.5, "steps": 8}]}}}
    same = {"steps": {"flow": {"records": [{"max_drift": 0.5 * (1 + 1e-15), "steps": 8}]}}}
    assert differences(same, want) == []
    moved = {"steps": {"flow": {"records": [{"max_drift": 0.5 * (1 + 1e-13), "steps": 8}]}}}
    ((path, _),) = differences(moved, want)
    assert path == ".steps.flow.records[0].max_drift" and _step(path) == "flow"
    assert _step(".first_failure.detail") == "first_failure"
    assert differences({"a": 5.6e-17}, {"a": 0.0}) == []
    assert differences({"a": 1}, {"a": 1.0}) == [(".a", "1 != 1.0")]
    assert differences({"a": True}, {"a": 1}) != []


if __name__ == "__main__":
    BASELINE.parent.mkdir(exist_ok=True)
    BASELINE.write_text(json.dumps(reports(), sort_keys=True, indent=1) + "\n",
                        encoding="utf-8")
    print(f"wrote {BASELINE}", file=sys.stderr)
