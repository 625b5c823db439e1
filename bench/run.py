#!/usr/bin/env python3
"""osclab benchmark: time to a correct verdict, on three workloads.

Run from the repository root:

    python3 bench/run.py --workload verify_corpus --seed 1 --seconds 20 --trace 0

One process and one caller drive the library from ``src/`` in a closed
loop: each operation starts when the previous one has returned, with no
pool. BLAS and OpenMP are pinned to one thread before numpy loads.

The run makes passes over the workload's operations, each on freshly
built scenes so that per-scene caches start empty as in a CLI run. The
number of passes is fixed by ``--seconds`` alone (``--seconds`` over the
workload's nominal pass time in PASS_SECONDS, at least one), so a seed
always attempts the same operations and fails the same ones. ``wall_s``
and ``cpu_s`` are the time of one pass in which every operation takes its
median over the run's passes: a burst of machine slowness that hits one
pass moves the medians of the operations it hit, not the whole figure.
``setup_s`` is the median of set-ups
(fresh ``import osclab`` plus building every scene of the workload from
JSON) taken at the start and between operations. ``--trace 1`` makes one
untraced pass and one pass with spans around osclab's public functions
(see tracer.py) and reports the per-layer metrics instead of the
end-to-end ones.

Every operation's result is checked; one that raises or gives a wrong
result counts in ``failed``. ``correct`` is false when a failure is not the
documented fit defect (see workloads._fit_op) or when two passes disagree
in any result or report byte. Human-readable lines go to stdout first; the
last line is one JSON object. Full results, run metadata and the spans go
to ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import os

THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

WORKLOADS = ("verify_corpus", "containment", "fit_growth")
#: nominal seconds of one untraced pass on a 2-vCPU x86-64 VM
PASS_SECONDS = {"verify_corpus": 30.0, "containment": 10.0, "fit_growth": 10.0}
SETUP_FIRST = 3
SETUP_EVERY = 1.0
OSCLAB_MODULES = ("osclab", "osclab.cli", "osclab.config", "osclab.contact",
                  "osclab.osculate", "osclab.scene", "osclab.sweep")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_osclab():
    """Import osclab from src/ afresh (modules of an earlier import dropped)."""
    for key in [k for k in sys.modules if k == "osclab" or k.startswith("osclab.")]:
        del sys.modules[key]
    for name in OSCLAB_MODULES:
        importlib.import_module(name)
    return sys.modules["osclab"]


def git_commit() -> str:
    """Commit of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(np, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREADS,
        "clients": 1,
        "seed": seed,
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# passes


class SetupSampler:
    """setup_s samples: a fresh ``import osclab`` plus building every scene
    of the workload from JSON.

    Samples are taken at the start and then between operations, at most
    once per SETUP_EVERY seconds, so they spread over the run and their
    median does not hang on how fast the machine was at one moment.
    """

    def __init__(self, texts: dict, workload: str):
        self.texts, self.workload = texts, workload
        self.times: list[float] = []
        self.last = float("-inf")

    def sample(self):
        t0 = time.perf_counter()
        osclab = import_osclab()
        wl.build_scenes(osclab, self.texts, self.workload)
        self.last = time.perf_counter()
        self.times.append(self.last - t0)
        return osclab

    def between_ops(self):
        if time.perf_counter() - self.last >= SETUP_EVERY:
            self.sample()


def run_pass(osclab, texts, workload, seed, tracer=None, between=None) -> dict:
    """Build fresh scenes, then time every operation of the workload once.

    wall_s and cpu_s sum the operations' own times, so work done between
    operations (set-up samples) is not counted; ``results`` holds each
    operation's outcome, wall time and CPU time, in the order of make_ops.
    """
    if tracer is None:
        scenes = wl.build_scenes(osclab, texts, workload)
    else:
        scenes = tracer.operation(
            "build", lambda: wl.build_scenes(osclab, texts, workload))
    ops = wl.make_ops(osclab, workload, scenes, seed)
    gc.collect()
    results = []
    wall = cpu = 0.0
    for op in ops:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                outcome = op.run()
            else:
                outcome = tracer.operation(f"{op.label}:{op.scene}", op.run)
        except Exception as err:  # an operation that raises counts as failed
            traceback.print_exc(file=sys.stderr)
            outcome = wl.Outcome(False, f"raised {type(err).__name__}: {err}")
        dt = time.perf_counter() - t0
        dc = time.process_time() - c0
        wall += dt
        cpu += dc
        results.append((op, outcome, dt, dc))
        if between is not None:
            between()
    return {"wall_s": wall, "cpu_s": cpu, "results": results}


def check_passes(passes) -> tuple[bool, list[str]]:
    """Run-level verdict: only known-defect failures, identical passes."""
    problems = []
    for op, out, *_ in passes[0]["results"]:
        if not out.ok and not out.known_defect:
            problems.append(f"{op.label} on {op.scene}: {out.detail}")
    first = [(o.label, o.scene, out) for o, out, *_ in passes[0]["results"]]
    for i, p in enumerate(passes[1:], start=2):
        other = [(o.label, o.scene, out) for o, out, *_ in p["results"]]
        if other != first:
            problems.append(f"pass {i} differs from pass 1 in results or report bytes")
    return not problems, problems


# ---------------------------------------------------------------------------
# metrics


def median_pass(passes, column: int) -> float:
    """Sum over operations of each operation's median over passes."""
    per_op = zip(*(p["results"] for p in passes))
    return sum(statistics.median(r[column] for r in runs) for runs in per_op)


def end_to_end(setup_times, passes) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": median_pass(passes, 2),
        "cpu_s": median_pass(passes, 3),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def verify_times(passes) -> dict:
    """verify_s.<scene>: median verify_theorem time per confirmed scene."""
    per = {}
    for p in passes:
        for op, _, dt, _ in p["results"]:
            if op.label == "verify" and op.scene in wl.VERIFY_TIMED:
                per.setdefault(op.scene, []).append(dt)
    return {f"verify_s.{name}": statistics.median(per[name])
            for name in wl.VERIFY_TIMED if name in per}


def _frac(num, den) -> float:
    return num / den if den else 0.0


def per_layer(tracer, traced_wall: float, untraced_wall: float) -> dict:
    s = tracer.summary()
    c = tracer.counts

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def own(name):
        return s.get(name, {}).get("self_s", 0.0)

    steps = tracer.step_times()
    out = {f"osculate.step.{k}_s": v for k, v in steps.items()}
    fit, ruled = "osculate.fit_class_k_curve", "osculate.ruledness_check"
    out.update({
        f"{fit}.calls": calls(fit),
        f"{fit}.s": own(fit),
        "osculate.fit.found_frac": _frac(c[fit]["found"], calls(fit)),
        f"{ruled}.counted_frac": _frac(c[ruled]["counted"], c[ruled]["samples"]),
    })
    sv, fm = "sweep.swept_volume", "sweep.frame_many"
    out.update({
        f"{sv}.calls": calls(sv),
        f"{sv}.s": own(sv),
        "sweep.quad_nodes": c[sv]["quad_nodes"],
        "sweep.volume_element.dets": c[sv]["dets"],
        f"{fm}.calls": calls(fm),
        f"{fm}.points": c[fm]["points"],
        f"{fm}.s": own(fm),
        "sweep.tangency_flow_check.calls": calls("sweep.tangency_flow_check"),
        "sweep.tangency_flow_check.s": own("sweep.tangency_flow_check"),
        "sweep.vanishing_verdict.s": own("sweep.vanishing_verdict"),
        "sweep.extract_t_polynomials.calls": calls("sweep.extract_t_polynomials"),
    })
    pb, tr = "manifold.project_batch", "manifold.tube_radius"
    halvings = tracer.child_counts(tr, pb)
    out.update({
        f"{pb}.calls": calls(pb),
        f"{pb}.queries": c[pb]["queries"],
        f"{pb}.seed_rows": c[pb]["seed_rows"],
        f"{pb}.s": own(pb),
        f"{pb}.converged_frac": _frac(c[pb]["converged"], c[pb]["queries"]),
        f"{pb}.ambiguous_frac": _frac(c[pb]["ambiguous"], c[pb]["queries"]),
        f"{tr}.calls": calls(tr),
        f"{tr}.halvings": int(sum(max(h - 1, 0) for h in halvings)),
        f"{tr}.s": own(tr),
        "manifold.embed_many.calls": calls("manifold.embed_many"),
        "manifold.jacobian_many.calls": calls("manifold.jacobian_many"),
        "manifold.hessian_many.calls": calls("manifold.hessian_many"),
        "manifold.eval.s": sum(own(f"manifold.{f}")
                               for f in ("embed_many", "jacobian_many", "hessian_many")),
        "manifold.nearest_point.calls": calls("manifold.nearest_point"),
    })
    for name in ("contact.residual_jets", "contact.contact_order_metric",
                 "jets.jet_eval_expr", "expr.evaluate"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = own(name)
    out.update({
        "exterior.wedge_ring.calls": calls("exterior.wedge_ring"),
        "exterior.frame_norm.calls": calls("exterior.frame_norm"),
        "scene.build_scene.s": own("scene.build_scene"),
        "expr.parse.calls": calls("expr.parse"),
        "expr.diff.calls": calls("expr.diff"),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": len(tracer.name),
    })
    return out


# ---------------------------------------------------------------------------
# output


def human_report(args, meta, setup_times, passes, traced, attempted, failed,
                 problems, metrics, verify_s):
    lines = [f"osclab benchmark: workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}",
             "run: " + " ".join(f"{k}={v}" for k, v in meta.items())]
    lines.append(f"setup_s: median of {len(setup_times)} set-ups "
                 f"(import osclab + build scenes)")
    n = len(passes)
    lines.append(f"wall_s, cpu_s: one pass, each operation's median over {n} "
                 f"untraced pass(es); no tail percentile (reported only with "
                 f">= 10 samples beyond it)")
    lines.append(f"fail_frac = {failed}/{attempted} = {_frac(failed, attempted):.6g} "
                 f"(operations failed / attempted, {n + (traced is not None)} pass(es))")
    for op, out, *_ in passes[0]["results"]:
        if not out.ok:
            tag = "known defect" if out.known_defect else "FAILED"
            lines.append(f"  {tag}: {op.label} on {op.scene}: {out.detail}")
    for p in problems:
        lines.append(f"  problem: {p}")
    for name, value in verify_s.items():
        lines.append(f"{name} = {value:.6f} s (median of {n})")
    for name, m in metrics.items():
        lines.append(f"{name} = {m['value']:.9g} {m['unit']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    definition_path = ROOT / "BENCHMARK.json"
    if not definition_path.is_file() or not (SRC / "osclab" / "__init__.py").is_file():
        print(f"bench: BENCHMARK.json or the osclab sources are missing under {ROOT}",
              file=sys.stderr)
        return 2
    definition = json.loads(definition_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import numpy as np
    np.linalg.lstsq(np.eye(3), np.ones(3), rcond=None)  # load LAPACK before timing

    texts = wl.corpus_texts(SRC)
    sampler = SetupSampler(texts, args.workload)
    for _ in range(SETUP_FIRST):
        osclab = sampler.sample()

    n_passes = 1 if args.trace else max(
        1, int(args.seconds / PASS_SECONDS[args.workload] + 0.5))
    passes = [run_pass(osclab, texts, args.workload, args.seed,
                       between=sampler.between_ops)
              for _ in range(n_passes)]
    setup_times = sampler.times

    traced = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(osclab)
        try:
            traced = run_pass(osclab, texts, args.workload, args.seed, tracer)
        finally:
            tracer.uninstall()

    all_passes = passes + ([traced] if traced else [])
    correct, problems = check_passes(all_passes)
    attempted = sum(len(p["results"]) for p in all_passes)
    failed = sum(not out.ok for p in all_passes for _, out, *_ in p["results"])

    if args.trace:
        values = per_layer(tracer, traced["wall_s"], passes[0]["wall_s"])
        wanted = definition["per_layer"]
    else:
        values = end_to_end(setup_times, passes)
        wanted = definition["end_to_end"]
    mismatch = {m["name"] for m in wanted} ^ set(values)
    if mismatch:
        print(f"bench: metrics and BENCHMARK.json disagree on {sorted(mismatch)}",
              file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    verify_s = verify_times(passes)
    meta = metadata(np, args.seed)
    print(human_report(args, meta, setup_times, passes, traced, attempted,
                       failed, problems, metrics, verify_s))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if traced is not None:
        tracer.write(OUT / f"{stem}-spans.npz")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    detail = {**result, "run": meta, "setup_s": setup_times,
              "passes": [{"wall_s": p["wall_s"], "cpu_s": p["cpu_s"]} for p in passes],
              "fail_frac": _frac(failed, attempted),
              "verify_s": {k: {"value": v, "unit": "s"} for k, v in verify_s.items()},
              "problems": problems}
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
