import sys
from pathlib import Path

import hypothesis
import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from osclab import corpus, sweep
from osclab.manifold import Submanifold
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


@pytest.fixture
def routes(monkeypatch):
    """One {"descended": [...], "projected": [...]} per Submanifold.distances
    call, in call order: the queries of the distances call's own _descend
    calls (the certified route's rows) and of its project_batch calls. The
    descents inside project_batch are not recorded."""
    calls, inside = [], []
    distances = Submanifold.distances
    descend, project_batch = Submanifold._descend, Submanifold.project_batch

    def distances_spy(self, P, settle, start=None):
        calls.append({"descended": [], "projected": []})
        inside.append("distances")
        try:
            return distances(self, P, settle, start)
        finally:
            inside.pop()

    def descend_spy(self, X, P):
        if inside[-1:] == ["distances"]:
            calls[-1]["descended"].append(np.array(P))
        return descend(self, X, P)

    def project_spy(self, P):
        if inside[-1:] == ["distances"]:
            calls[-1]["projected"].append(np.array(P))
        inside.append("project_batch")
        try:
            return project_batch(self, P)
        finally:
            inside.pop()

    monkeypatch.setattr(Submanifold, "distances", distances_spy)
    monkeypatch.setattr(Submanifold, "_descend", descend_spy)
    monkeypatch.setattr(Submanifold, "project_batch", project_spy)
    return calls
