"""DataMaestro reproduction: decoupled access/execute streaming for dataflow accelerators.

This package is a cycle-level, pure-Python reproduction of the DAC 2025 paper
*DataMaestro: A Versatile and Efficient Data Streaming Engine Bringing
Decoupled Memory Access To Dataflow Accelerators*.  ``docs/ARCHITECTURE.md``
maps the package stack; ``docs/RUNTIME.md`` documents the simulation
runtime; the per-module docstrings and the experiment reports record the
paper-vs-measured comparison for every table and figure.

The top level exports only the runtime's front door (:class:`SimJob`,
:class:`Simulator`) and ``__version__``; each sub-package exports what
something outside it imports from it, and its modules hold the full API:

* :mod:`repro.core` — the DataMaestro streaming engine itself;
* :mod:`repro.memory` — the multi-banked scratchpad and crossbar;
* :mod:`repro.accelerators` — the GeMM and quantization datapaths;
* :mod:`repro.system` — the evaluation system (five DataMaestros + host);
* :mod:`repro.compiler` — workload-to-CSR mapping, layouts and allocation;
* :mod:`repro.workloads` — workload specs, the synthetic suite, DNN models;
* :mod:`repro.runtime` — the simulation runtime: declarative jobs, the
  :class:`~repro.runtime.simulator.Simulator` facade, the admission core
  every front door shares and the on-disk result cache;
* :mod:`repro.serve` — the thread-safe in-process simulation service on
  top of the runtime: request coalescing, fair bounded admission, streaming
  lifecycle/progress events (``docs/SERVE.md``);
* :mod:`repro.cluster` — the service sharded across supervised worker
  processes: one shared fair queue whose worker slots pull for their shard,
  heartbeat/restart supervision and a durable job journal
  (``docs/SERVE.md``);
* :mod:`repro.obs` — the unified telemetry layer: metrics registry,
  Prometheus ``/metrics`` exporter, per-job trace timelines and the live
  ops dashboard (``docs/OBSERVABILITY.md``);
* :mod:`repro.config` — the typed :class:`~repro.config.RuntimeConfig`
  holding every environment knob;
* :mod:`repro.baselines` — SotA comparator models;
* :mod:`repro.analysis` — metrics, ablation driver, area/power models;
* :mod:`repro.explore` — multi-objective design-space exploration: search
  spaces over the design-time parameters, pluggable grid/random/evolutionary
  strategies, Pareto frontiers and resumable runs (``docs/EXPLORE.md``);
* :mod:`repro.experiments` — one module per paper table/figure.

The runtime is the front door for running simulations::

    from repro import SimJob, Simulator
    from repro.workloads import GemmWorkload

    outcome = Simulator().simulate(
        SimJob(workload=GemmWorkload(name="demo", m=64, n=64, k=64))
    )
"""

__version__ = "1.6.0"

from .runtime import SimJob, Simulator

__all__ = ["SimJob", "Simulator", "__version__"]
