"""Shared fixtures: the three reproduction runs are expensive (full
certificate-derived horizons), so they run once per session and are shared
between module tests and the acceptance suite."""
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from waveconsensus import harness
from waveconsensus.graph import build_topology

# property tests draw the same examples on every run and keep no database
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


def samples(block):
    """The samples of a block one at a time, each with the block's fields
    for that sample and its step index and time."""
    for j, (k, t) in enumerate(zip(block.steps.tolist(), block.times.tolist())):
        yield SimpleNamespace(step_index=k, time=t, leader=block.leader[j],
                              leader_vel=block.leader_vel[j], error=block.error[j],
                              error_vel=block.error_vel[j])


def each_sample(observer):
    """A block observer that calls `observer` on every sample of a block."""
    def call(block):
        for sp in samples(block):
            observer(sp)
    return call


@pytest.fixture(scope="session")
def path3_topology():
    return build_topology([[0, 1, 0], [1, 0, 1], [0, 1, 0]], [1, 0, 0])


@pytest.fixture(scope="session")
def reference_matrix():
    return np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])


def _timed_reproduce(test_id, tmp_path_factory):
    out = tmp_path_factory.mktemp(f"repro{test_id}")
    t0 = time.perf_counter()
    result = harness.run_reproduce(test_id, str(out))
    elapsed = time.perf_counter() - t0
    return result, elapsed


@pytest.fixture(scope="session")
def test1_run(tmp_path_factory):
    return _timed_reproduce(1, tmp_path_factory)


@pytest.fixture(scope="session")
def test2_run(tmp_path_factory):
    return _timed_reproduce(2, tmp_path_factory)


@pytest.fixture(scope="session")
def test3_run(tmp_path_factory):
    return _timed_reproduce(3, tmp_path_factory)
