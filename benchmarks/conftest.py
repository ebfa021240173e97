"""Shared configuration of the benchmark harness.

Every benchmark regenerates one paper table/figure.  The underlying cycle
simulations are deterministic, so each benchmark executes its experiment
exactly once (``benchmark.pedantic(..., rounds=1, iterations=1)``) — the
benchmark timing records how long regenerating the artefact takes, and the
benchmark's ``extra_info`` carries the reproduced numbers so a plain
``pytest benchmarks/ --benchmark-only`` run documents the paper-vs-measured
comparison.

Set ``REPRO_FULL_SUITE=1`` to run the ablation on the full 260-workload suite
(slower); the default uses a stratified subset.
"""

import pytest

from repro.config import get_config
from repro.system import datamaestro_evaluation_system


def pytest_report_header(config):
    full = "1" if get_config().full_suite else "0"
    return [f"DataMaestro reproduction benchmarks (REPRO_FULL_SUITE={full})"]


@pytest.fixture(scope="session")
def evaluation_design():
    """The paper's evaluation-system design (Fig. 6)."""
    return datamaestro_evaluation_system()


@pytest.fixture(scope="session")
def bench_out(tmp_path_factory):
    """Directory the legacy ``BENCH_*.json`` reports are written to and read
    back from: ``$REPRO_BENCH_OUT``, or a temporary directory when unset — a
    plain test run leaves the checkout as ``git`` has it."""
    directory = get_config().bench_out or tmp_path_factory.mktemp("bench-out")
    directory.mkdir(parents=True, exist_ok=True)
    return directory


@pytest.fixture
def run_once(benchmark):
    """Run a callable exactly once under pytest-benchmark timing."""

    def runner(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
