"""The benchmark calls osclab positionally (bench/workloads.py), so a
library change that moves or renames a parameter of, say,
fit_class_k_curve or ruledness_check breaks the benchmark's runs. This test
loads the workloads as the benchmark does and runs one pass of each: every
operation must succeed, and a second verify pass must give the same
report digests."""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

import osclab
import osclab.cli  # noqa: F401  (the report digest reads osclab.cli)

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
SRC = Path(osclab.__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _run(workloads, texts, workload, seed):
    """The outcomes of one pass of a workload, on freshly built scenes."""
    scenes = workloads.build_scenes(osclab, texts, workload)
    return [(op, op.run()) for op in workloads.make_ops(osclab, workload, scenes, seed)]


def test_every_workload_operation_succeeds(workloads):
    texts = workloads.corpus_texts(SRC)
    counts = Counter()
    digests = {}
    for workload in ("verify_corpus", "containment", "fit_growth"):
        for op, outcome in _run(workloads, texts, workload, seed=3):
            assert outcome.ok, (workload, op.label, op.scene, outcome.detail)
            counts[workload] += 1
            if outcome.digest is not None:
                digests[op.scene] = outcome.digest
    assert counts == {"verify_corpus": 10, "containment": 71, "fit_growth": 39}
    again = {op.scene: outcome.digest
             for op, outcome in _run(workloads, texts, "verify_corpus", seed=3)}
    assert len(digests) == 10 and again == digests
