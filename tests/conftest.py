import sys
from pathlib import Path

import hypothesis
import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from osclab import corpus, sweep
from osclab.osculate import verify_theorem
from osclab.sweep import volume_series

hypothesis.settings.register_profile(
    "ci", max_examples=40, deadline=None, derandomize=True)
hypothesis.settings.load_profile("ci")

np.seterr(all="warn")


@pytest.fixture(scope="session")
def scenes():
    return {name: corpus.load(name) for name in corpus.names()}


@pytest.fixture(scope="session")
def series_for(scenes):
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = volume_series(scenes[name].family)
        return cache[name]

    return get


@pytest.fixture(scope="session")
def verify_report(scenes):
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = verify_theorem(scenes[name], seed=0)
        return cache[name]

    return get


@pytest.fixture
def quadrature_calls(monkeypatch):
    """The t of every swept_volume call, in call order."""
    calls = []
    swept_volume = sweep.swept_volume

    def spy(family, t, quad=None):
        calls.append(t)
        return swept_volume(family, t, quad)

    monkeypatch.setattr(sweep, "swept_volume", spy)
    return calls
