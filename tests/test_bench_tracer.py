"""The benchmark's tracer wraps osclab functions by name (bench/tracer.py's
TARGETS), so a library change that renames or deletes one of them breaks
`bench/run.py --trace 1`. This test installs the tracer on the library as
the benchmark does and checks that every target was found and wrapped."""

import importlib.util
from pathlib import Path

import osclab

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lookup(target):
    owner = getattr(osclab, target[0])
    if len(target) == 3:
        return vars(getattr(owner, target[1]))[target[2]]
    return getattr(owner, target[1])


def test_every_tracer_target_resolves():
    tracer_mod = _load_tracer()
    targets = [target for target, _ in tracer_mod.TARGETS]
    originals = [_lookup(target) for target in targets]
    tracer = tracer_mod.Tracer()
    try:
        tracer.install(osclab)
        for target, original in zip(targets, originals):
            assert getattr(_lookup(target), "__wrapped__", None) is original, target
    finally:
        tracer.uninstall()
    assert [_lookup(target) for target in targets] == originals
