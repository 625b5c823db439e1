"""scripts/work_counts.py on its smallest workload: the counts repeat from
run to run, and --against a stored run of the same tree lists no change."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "work_counts.py"


def _counts(*args: str) -> str:
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(SCRIPT), "--workload", "verify_corpus", *args],
                          env=env, capture_output=True, text=True, check=True).stdout


def test_work_counts_repeat_and_compare(tmp_path):
    saved = tmp_path / "counts.json"
    first = _counts("--save", str(saved))
    again = _counts("--against", str(saved))
    assert again.startswith(first)
    listed = again[len(first):]
    assert listed.startswith("the stored run, then this one:\n")
    changes = re.findall(r"[+-]\d+\.\d%", listed)
    assert changes and set(changes) == {"+0.0%"}
    run = json.loads(saved.read_text(encoding="utf-8"))
    assert list(run) == ["verify_corpus"]
    counts = run["verify_corpus"]
    assert counts["python"] == sum(n["python"] for n in counts["labels"].values()) > 0
    assert counts["c"] == sum(n["c"] for n in counts["labels"].values()) > 0
    assert counts["kernels"]["sweep.frame_many"] > 0
    assert f"python {counts['python']:9,d}" in first
