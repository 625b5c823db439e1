"""Spans around osclab's public functions, recorded from outside the library.

``Tracer.install`` replaces each target function with a wrapper in every
osclab module that holds it, so calls made through a by-name import
(``from .jets import jet_eval_expr`` in ``contact``, ``sweep``; the step
functions in ``osculate``) are seen as well. Methods are wrapped on their
class. A span records name, start, end, parent span and operation id, in
flat arrays kept in memory; ``write`` saves them once the run is over.

A wrapped function that calls itself (``expr.diff``) records only the
outermost call, so ``calls`` counts calls made by other code.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from math import comb
from types import ModuleType

import numpy as np


def _frame_points(counts, args, kwargs, result):
    counts["points"] += np.atleast_2d(np.asarray(args[1])).shape[0]


def _quad_work(counts, args, kwargs, result):
    family = args[0]
    quad = args[2] if len(args) > 2 else kwargs.get("quad")
    if quad is None:  # swept_volume's default, from the module that owns it
        quad = vars(sys.modules[type(family).__module__])["QuadConfig"]()
    m, n = family.M.m, family.M.n
    for order in (quad.order, quad.halved().order):
        nodes = (quad.cells * order) ** m * quad.t_cells * order
        counts["quad_nodes"] += nodes
        counts["dets"] += nodes * comb(n, m + 1)


def _projection(counts, args, kwargs, result):
    q = result.distance.shape[0]
    m = args[0].m
    counts["queries"] += q
    counts["seed_rows"] += q * 9 ** m
    counts["converged"] += int(np.count_nonzero(result.converged))
    counts["ambiguous"] += int(np.count_nonzero(result.ambiguous))


def _fit_found(counts, args, kwargs, result):
    counts["found"] += result is not None


def _ruled_counted(counts, args, kwargs, result):
    counts["counted"] += result.counted
    counts["samples"] += result.counted + result.skipped


#: (module, attribute) or (module, class, method) under osclab, with an
#: optional hook(counts, args, kwargs, result) that adds to the span's counters
TARGETS = [
    (("expr", "parse"), None),
    (("expr", "diff"), None),
    (("expr", "evaluate"), None),
    (("jets", "jet_eval_expr"), None),
    (("exterior", "wedge_ring"), None),
    (("exterior", "frame_norm"), None),
    (("manifold", "Submanifold", "embed_many"), None),
    (("manifold", "Submanifold", "jacobian_many"), None),
    (("manifold", "Submanifold", "hessian_many"), None),
    (("manifold", "Submanifold", "project_batch"), _projection),
    (("manifold", "Submanifold", "nearest_point"), None),
    (("manifold", "Submanifold", "tube_radius"), None),
    (("contact", "residual_jets"), None),
    (("contact", "contact_order_metric"), None),
    (("sweep", "SweepFamily", "frame_many"), _frame_points),
    (("sweep", "swept_volume"), _quad_work),
    (("sweep", "volume_series"), None),
    (("sweep", "growth_exponent"), None),
    (("sweep", "extract_t_polynomials"), None),
    (("sweep", "vanishing_verdict"), None),
    (("sweep", "tangency_flow_check"), None),
    (("osculate", "fit_class_k_curve"), _fit_found),
    (("osculate", "ruledness_check"), _ruled_counted),
    (("osculate", "verify_theorem"), None),
    (("scene", "build_scene"), None),
]


def span_name(target: tuple) -> str:
    """Layer-qualified name: module then function (class names dropped)."""
    return f"{target[0]}.{target[-1]}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("i")
        self.op_labels: list[str] = []
        self.counts: dict[str, Counter] = {}
        self._stack: list[int] = []
        self._current_op = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def begin(self, name: str) -> int:
        sid = len(self.name)
        self.name.append(self._name_id(name))
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._current_op)
        self._stack.append(sid)
        return sid

    def finish(self, sid: int):
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def operation(self, label: str, fn):
        """Run fn() as one benchmark operation, under its own span and id."""
        self._current_op = len(self.op_labels)
        self.op_labels.append(label)
        sid = self.begin("bench.op")
        try:
            return fn()
        finally:
            self.finish(sid)
            self._current_op = -1

    def _wrap(self, name: str, fn, hook):
        counts = self.counts.setdefault(name, Counter())
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(sid)
                depth[0] -= 1
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self, osclab):
        """Wrap every target wherever a module of this osclab import looks it up."""
        modules = [osclab] + [mod for mod in vars(osclab).values()
                              if isinstance(mod, ModuleType)
                              and mod.__name__.startswith("osclab.")]
        for target, hook in TARGETS:
            module = getattr(osclab, target[0])
            name = span_name(target)
            if len(target) == 3:
                cls = getattr(module, target[1])
                original = cls.__dict__[target[2]]
                self._swap(cls, target[2], self._wrap(name, original, hook))
                continue
            original = getattr(module, target[1])
            wrapper = self._wrap(name, original, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._swap(mod, attr, wrapper)

    def _swap(self, owner, attr: str, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        self_s = np.bincount(a["name"], weights=own, minlength=k)
        return {n: {"calls": int(calls[i]), "total_s": float(total[i]),
                    "self_s": float(self_s[i])}
                for i, n in enumerate(self.names)}

    def step_times(self) -> dict[str, float]:
        """verify_theorem time split by the step functions it calls.

        Growth is volume_series + growth_exponent, then vanishing_verdict,
        tangency_flow_check and ruledness_check; what verify_theorem spends
        outside these direct children is step 1 (osculation) plus report
        assembly, so the five add up to the verify_theorem time.
        """
        steps = {"osculation": 0.0, "growth": 0.0, "vanishing": 0.0,
                 "flow": 0.0, "ruledness": 0.0}
        if "osculate.verify_theorem" not in self._index:
            return steps
        of = {"sweep.volume_series": "growth", "sweep.growth_exponent": "growth",
              "sweep.vanishing_verdict": "vanishing",
              "sweep.tangency_flow_check": "flow",
              "osculate.ruledness_check": "ruledness",
              "manifold.tube_radius": "ruledness"}
        a = self.arrays()
        dur = a["end"] - a["start"]
        verify = self._index["osculate.verify_theorem"]
        is_verify = a["name"] == verify
        steps["osculation"] = float(np.sum(dur[is_verify]))
        has_parent = a["parent"] >= 0
        under_verify = np.zeros(dur.size, dtype=bool)
        under_verify[has_parent] = is_verify[a["parent"][has_parent]]
        for name, step in of.items():
            if name in self._index:
                sel = under_verify & (a["name"] == self._index[name])
                t = float(np.sum(dur[sel]))
                steps[step] += t
                steps["osculation"] -= t
        return steps

    def child_counts(self, parent: str, child: str) -> np.ndarray:
        """Number of direct `child` spans under each `parent` span."""
        if parent not in self._index or child not in self._index:
            return np.zeros(0, dtype=int)
        a = self.arrays()
        parents = np.nonzero(a["name"] == self._index[parent])[0]
        kids = a["parent"][a["name"] == self._index[child]]
        return np.array([np.count_nonzero(kids == p) for p in parents], dtype=int)

    def write(self, path):
        np.savez_compressed(path, names=np.array(self.names),
                            op_labels=np.array(self.op_labels), **self.arrays())

