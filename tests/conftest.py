"""Shared fixtures for the quantour test suite."""

import os

import numpy as np
import pytest

from quantour import PointCloud

SQRT3 = np.sqrt(3.0)


def make_cloud(seed, n, k=2, scale=1.0):
    """Seeded Gaussian cloud, jittered enough to be in general position."""
    rng = np.random.default_rng(seed)
    return PointCloud(scale * rng.standard_normal((n, k)))


@pytest.fixture
def hexagon():
    """Regular hexagon with unit circumradius, vertices every 60 degrees."""
    ang = np.arange(6) * np.pi / 3.0
    return PointCloud(np.column_stack([np.cos(ang), np.sin(ang)]))


@pytest.fixture
def triangle():
    return PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))


@pytest.fixture
def square():
    return PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))


@pytest.fixture
def collinear5():
    return np.array([[float(i), 2.0 * float(i)] for i in range(5)])


@pytest.fixture
def forks(monkeypatch):
    """Two allowed CPUs on any machine, and the pid of every child forked."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
