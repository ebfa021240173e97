"""Shared fixtures of the cluster test suite.

Cluster tests cross a process boundary: the backend a shard executes runs
in a forked child, so in-memory coordination primitives
(``threading.Event``, plain counters) cannot reach it.  Two stand-ins:

* backends registered *before* the cluster starts are inherited by the
  forked workers (the fork copies the registry), so stub backends work as
  long as they are registered first;
* coordination happens through the *filesystem* — :class:`FileGatedBackend`
  polls for a sentinel file, which both parent and worker processes can
  see, giving tests a cross-process way to hold jobs "in flight" and
  release them on cue.
"""

import itertools
import os
import time
from pathlib import Path

import pytest

from repro.runtime import SimJob, SimOutcome, register_backend
from repro.runtime.backends import SimulationBackend
from repro.workloads import GemmWorkload

_COUNTER = itertools.count()


def _analytic(job):
    ideal = job.workload.ideal_compute_cycles(
        job.design.gemm_mu, job.design.gemm_nu, job.design.gemm_ku
    )
    return SimOutcome.analytic(job, utilization=0.5, ideal_compute_cycles=ideal)


class InstantBackend(SimulationBackend):
    """Analytic outcome immediately; the cluster's fast-path stub."""

    def __init__(self, name):
        self.name = name

    def execute(self, job):
        return _analytic(job)


class FileGatedBackend(SimulationBackend):
    """Backend that blocks every execution until a sentinel file appears.

    ``gate_path`` is created by the test (in the parent process) when the
    held jobs should proceed; the polling loop runs inside the shard
    worker.  ``touch_dir`` records a ``started-<pid>`` file per shard
    process that started an execution, so the test can wait until a job is
    genuinely *running* and then pick that shard to kill or stop.  With ``error`` set, a released execution raises
    ``ValueError(error)`` instead of returning.
    """

    def __init__(self, name, gate_path, touch_dir=None, timeout=30.0, error=None):
        self.name = name
        self.gate_path = str(gate_path)
        self.touch_dir = str(touch_dir) if touch_dir is not None else None
        self.timeout = timeout
        self.error = error

    def execute(self, job):
        if self.touch_dir is not None:
            marker = Path(self.touch_dir) / f"started-{os.getpid()}"
            marker.touch()
        deadline = time.monotonic() + self.timeout
        while not Path(self.gate_path).exists():
            if time.monotonic() > deadline:
                raise TimeoutError("test gate never released")
            time.sleep(0.01)
        if self.error is not None:
            raise ValueError(self.error)
        return _analytic(job)


@pytest.fixture
def instant_backend():
    """Register a uniquely named :class:`InstantBackend` (pre-fork)."""
    backend = InstantBackend(f"cluster-instant-{next(_COUNTER)}")
    register_backend(backend)
    return backend


@pytest.fixture
def gated_backend(tmp_path):
    """Factory for :class:`FileGatedBackend` with a tmp-path sentinel."""

    def make(touch=False, error=None):
        index = next(_COUNTER)
        backend = FileGatedBackend(
            f"cluster-gated-{index}",
            gate_path=tmp_path / f"gate-{index}",
            touch_dir=tmp_path if touch else None,
            error=error,
        )
        register_backend(backend)
        return backend

    return make


@pytest.fixture
def make_job():
    """Factory for small distinct jobs against a given backend."""

    def make(backend_name, tag=0, m=8):
        return SimJob(
            workload=GemmWorkload(name=f"cluster_{tag}", m=m, n=8, k=8),
            backend=backend_name,
            seed=tag,
        )

    return make
