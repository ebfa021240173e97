"""Fixtures of the obs test suite.

Telemetry tests that exercise a real :class:`ServiceClient` need a
deterministic backend; like the serve suite, each test registers a
throwaway uniquely named stub instead of running the cycle simulator.
"""

import itertools
import threading

import pytest

from repro.runtime import SimOutcome, register_backend
from repro.runtime.backends import SimulationBackend

_COUNTER = itertools.count()


class StubBackend(SimulationBackend):
    """Counts calls; ``gate`` (a ``threading.Event``) holds jobs in flight."""

    def __init__(self, name, gate=None):
        self.name = name
        self.gate = gate
        self.calls = 0
        self._lock = threading.Lock()

    def execute(self, job):
        with self._lock:
            self.calls += 1
        if self.gate is not None:
            assert self.gate.wait(timeout=10), "test gate never released"
        ideal = job.workload.ideal_compute_cycles(
            job.design.gemm_mu, job.design.gemm_nu, job.design.gemm_ku
        )
        return SimOutcome.analytic(job, utilization=0.5, ideal_compute_cycles=ideal)


@pytest.fixture
def stub_backend():
    """Factory registering a uniquely named :class:`StubBackend`."""

    def make(gate=None):
        backend = StubBackend(f"obs-stub-{next(_COUNTER)}", gate=gate)
        register_backend(backend)
        return backend

    return make
