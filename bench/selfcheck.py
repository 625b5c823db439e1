#!/usr/bin/env python3
"""Self-check of the osclab benchmark.

Run from the repository root (takes a few minutes):

    python3 bench/selfcheck.py

It checks BENCHMARK.json against the limits run.py and the layer table rely
on, runs every workload at minimal size (one pass) untraced and traced, and
asserts that each metric BENCHMARK.json names is printed by name with its
unit, in the JSON line and in the human-readable lines. Finally it runs the
benchmark from a copy that holds only BENCHMARK.json and bench/, where it
must fail without printing a result.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
STEPS = ("osculation", "growth", "vanishing", "flow", "ruledness")


def check(cond: bool, message: str):
    if not cond:
        raise SystemExit(f"selfcheck: FAILED: {message}")


def check_definition(d: dict):
    check(set(d) == {"command", "paths", "run_seconds", "workloads",
                     "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(isinstance(d["run_seconds"], int) and 1 <= d["run_seconds"] <= 60,
          "run_seconds")
    check(2 <= len(d["workloads"]) <= 8, "workload count")
    names = []
    for w in d["workloads"]:
        check(set(w) == {"name", "why"}, f"workload keys {w}")
        check("\n" not in w["why"] and len(w["why"]) <= 200, f"why of {w['name']}")
        names.append(w["name"])
    bounds = {}
    for group, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                        ("per_layer", {"name", "unit", "better"})):
        for m in d[group]:
            check(set(m) == keys, f"keys of {m}")
            check(bool(NAME.fullmatch(m["name"])) and bool(UNIT.fullmatch(m["unit"])),
                  f"name or unit of {m}")
            check(m["better"] in ("lower", "higher"), f"better of {m}")
            names.append(m["name"])
            if group == "end_to_end":
                check(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
                bounds[m["name"]] = m["bound"]
    check(len(names) == len(set(names)), "names are unique")
    check(bounds.get("setup_s") == max(bounds.values()), "setup_s has the largest bound")
    table = json.loads((HERE / "layers.json").read_text())
    listed = [m for g in table["groups"] for m in g["metrics"]]
    check(sorted(listed) == sorted(m["name"] for m in d["per_layer"]),
          "layers.json lists every per-layer metric once")


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "0.001", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(d: dict, workload: str, trace: int):
    proc = run(ROOT, workload, trace)
    check(proc.returncode == 0, f"{workload} trace={trace} exit {proc.returncode}: "
          f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    human = "\n".join(lines[:-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    check(result["correct"] is True, f"{workload}: correct is {result['correct']}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, "attempted")
    check(isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"],
          "failed")
    check(f"fail_frac = {result['failed']}/{result['attempted']}" in human,
          "fail_frac printed with its base")
    wanted = d["per_layer" if trace else "end_to_end"]
    check(set(result["metrics"]) == {m["name"] for m in wanted},
          f"{workload} trace={trace} prints exactly the named metrics")
    for m in wanted:
        got = result["metrics"][m["name"]]
        check(got["unit"] == m["unit"], f"unit of {m['name']}")
        value = got["value"]
        check(isinstance(value, (int, float)) and not isinstance(value, bool)
              and math.isfinite(value), f"value of {m['name']}")
        check(re.search(rf"^{re.escape(m['name'])} = \S+ {re.escape(m['unit'])}$",
                        human, re.M) is not None, f"{m['name']} printed with its unit")
    if workload == "verify_corpus" and not trace:
        for scene in ("plane", "cylinder", "hyperbolic_paraboloid", "saddle",
                      "paraboloid", "circle_rotation"):
            check(re.search(rf"^verify_s\.{scene} = \S+ s ", human, re.M) is not None,
                  f"verify_s.{scene} printed")
    if workload == "verify_corpus" and trace:
        v = result["metrics"]
        steps = sum(v[f"osculate.step.{s}_s"]["value"] for s in STEPS)
        wall = v["trace.wall_s"]["value"]
        check(abs(steps - wall) <= 0.02 * wall,
              f"step times {steps:.3f} s add up to traced wall_s {wall:.3f} s")
    print(f"selfcheck: {workload} trace={trace}: ok "
          f"({result['attempted']} operations, {result['failed']} failed)")


def check_bare():
    """Without the library sources the benchmark exits nonzero, no result."""
    bare = ROOT / ".bench_out" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare)
    for f in HERE.iterdir():
        if f.is_file():
            shutil.copy2(f, bare / "bench" / f.name)
    proc = run(bare, "containment", 0)
    shutil.rmtree(bare, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    check(proc.returncode != 0 and not last[0].startswith("{"),
          "a copy without sources fails without a result")
    print("selfcheck: copy without sources fails: ok")


def main():
    d = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_definition(d)
    print("selfcheck: BENCHMARK.json: ok")
    check_bare()
    for w in d["workloads"]:
        for trace in (0, 1):
            check_run(d, w["name"], trace)
    print("selfcheck: all ok")


if __name__ == "__main__":
    main()
