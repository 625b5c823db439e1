#!/usr/bin/env python3
"""Count the calls that one pass of each benchmark workload makes: a
measure of work that, unlike wall time, does not move with the machine's
load, and that is exact at a fixed PYTHONHASHSEED.

Each workload is built as `bench/run.py` builds it, from the corpus of the
osclab on the path, through `bench/workloads.py`'s `build_scenes` and
`make_ops`. One pass runs first to warm the caches, then the operations of
a pass on freshly built scenes run under `sys.setprofile`, which counts
every Python call per code object and every call of a C function apart.
Building the scenes is not counted. The script prints, per workload, the
Python and C calls of the whole pass and of each operation label, and the
calls of the kernels that the roadmap names. Calls made inside one numpy
call are not seen, so work that moves into larger arrays lowers the counts
without lowering the time by as much; the counts complement wall time and
do not replace it.

Usage:
    PYTHONHASHSEED=0 python scripts/work_counts.py [--seed N]
        [--workload NAME] [--save FILE.json] [--against FILE.json]

`--save` stores the counts as JSON. `--against` compares with a stored
run, for instance one made from another checkout with its `src` on
PYTHONPATH, and lists per workload, label and kernel the stored count, this
run's and the relative change. It exits 1 when the two runs do not cover
the same workloads.
"""

import os

# one BLAS thread, set before numpy loads, as bench/run.py does
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads as wl  # noqa: E402

WORKLOADS = ("verify_corpus", "containment", "fit_growth")
#: the kernels counted one by one, as module.function of their code, the
#: module's file name without a leading "_" (numpy's pinv is in
#: numpy/linalg/_linalg.py)
KERNELS = ("sweep.frame_many", "jets.jet_eval_many", "jets.jet_sin_cos",
           "exterior.wedge_ring", "exterior.solve", "manifold.gauss_newton",
           "manifold.project_batch", "contact.residual_jets", "linalg.pinv")


def import_osclab():
    """osclab and the modules whose functions the workloads look up."""
    for name in ("osclab", "osclab.cli", "osclab.contact", "osclab.osculate",
                 "osclab.scene", "osclab.sweep"):
        importlib.import_module(name)
    return sys.modules["osclab"]


def _name(code) -> str:
    return f"{Path(code.co_filename).stem.lstrip('_')}.{code.co_name}"


def count_pass(osclab, workload: str, seed: int) -> dict:
    """{"python", "c", "labels", "kernels"} of one pass after a warm one."""
    texts = wl.corpus_texts(Path(osclab.__file__).resolve().parent.parent)
    for op in wl.make_ops(osclab, workload, wl.build_scenes(osclab, texts, workload), seed):
        op.run()
    ops = wl.make_ops(osclab, workload, wl.build_scenes(osclab, texts, workload), seed)
    codes: Counter = Counter()
    c_calls = [0]

    def profile(frame, event, arg):
        if event == "call":
            codes[frame.f_code] += 1
        elif event == "c_call":
            c_calls[0] += 1

    labels: dict = {}
    previous = sys.getprofile()
    for op in ops:
        before_codes, before_c = sum(codes.values()), c_calls[0]
        sys.setprofile(profile)
        try:
            outcome = op.run()
        finally:
            sys.setprofile(previous)
        if not outcome.ok:
            raise RuntimeError(f"{workload} {op.label} {op.scene}: {outcome.detail}")
        python, c = labels.get(op.label, (0, 0))
        labels[op.label] = (python + sum(codes.values()) - before_codes,
                            c + c_calls[0] - before_c)
    kernels = Counter()
    for code, n in codes.items():
        kernels[_name(code)] += n
    return {"python": sum(codes.values()), "c": c_calls[0],
            "labels": {k: {"python": p, "c": c} for k, (p, c) in labels.items()},
            "kernels": {name: kernels[name] for name in KERNELS}}


def _print_run(run: dict) -> None:
    for workload, counts in run.items():
        print(f"{workload:24s} python {counts['python']:9,d}  C {counts['c']:9,d}")
        for label, n in counts["labels"].items():
            print(f"  {label:22s} python {n['python']:9,d}  C {n['c']:9,d}")
        for kernel, n in counts["kernels"].items():
            print(f"  kernel {kernel:24s} {n:9,d}")


def _change(new: int, old: int) -> str:
    return f"{old:9,d} -> {new:9,d}  " + (
        f"{(new - old) / old:+.1%}" if old else ("+0.0%" if new == old else "new"))


def compare(run: dict, ref: dict) -> int:
    """Print each count of `run` beside the stored one; 1 when the runs
    cover different workloads."""
    if set(run) != set(ref):
        print(f"workloads differ: this run {sorted(run)}, stored {sorted(ref)}")
        return 1
    for workload in run:
        a, b = run[workload], ref[workload]
        print(f"{workload:24s} python {_change(a['python'], b['python'])}"
              f"  C {_change(a['c'], b['c'])}")
        for label in sorted(set(a["labels"]) | set(b["labels"])):
            new = a["labels"].get(label, {"python": 0})["python"]
            old = b["labels"].get(label, {"python": 0})["python"]
            print(f"  {label:22s} python {_change(new, old)}")
        for kernel in sorted(set(a["kernels"]) | set(b["kernels"])):
            print(f"  kernel {kernel:24s} {_change(a['kernels'].get(kernel, 0), b['kernels'].get(kernel, 0))}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=3, help="the workloads' seed (3)")
    ap.add_argument("--workload", choices=WORKLOADS, action="append",
                    help="count only this workload (repeatable; default all)")
    ap.add_argument("--save", metavar="FILE", help="store the counts as JSON")
    ap.add_argument("--against", metavar="FILE", help="compare with stored counts")
    args = ap.parse_args(argv)
    osclab = import_osclab()
    run = {w: count_pass(osclab, w, args.seed) for w in args.workload or WORKLOADS}
    print(f"calls of one pass after a warm pass, seed {args.seed}")
    _print_run(run)
    if args.save:
        Path(args.save).write_text(json.dumps(run, indent=1) + "\n", encoding="utf-8")
    if args.against:
        print("the stored run, then this one:")
        return compare(run, json.loads(Path(args.against).read_text(encoding="utf-8")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
