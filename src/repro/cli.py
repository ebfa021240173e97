"""Command-line interface of the DataMaestro reproduction.

Quick access to the main entry points without writing Python.  Run it as
``repro …`` (the console script ``setup.py`` installs), ``python -m repro …``
or ``python -m repro.cli …``:

* ``repro list-experiments`` — list the paper tables/figures that can be
  regenerated and how;
* ``repro experiment fig7 --workloads-per-group 3`` — run one experiment and
  print its report;
* ``repro simulate-gemm 64 64 64 --quantize`` — compile and cycle-simulate a
  single GeMM kernel on the evaluation system;
* ``repro simulate-conv 16 16 16 32 --kernel 3 --stride 1`` — the same for a
  convolution layer;
* ``repro batch gemm:64x64x64 conv:16x16x16x32:k3:p1`` — run a set of jobs
  through the runtime (``--jobs N`` runs them on an N-shard cluster, results
  land in the on-disk cache);
* ``repro sweep gemm:32x32x64 --steps 1_baseline,6_full`` — sweep the
  ablation feature ladder over one or more workloads;
* ``repro explore --space default --strategy grid --budget 18`` —
  multi-objective design-space exploration with Pareto-frontier reporting,
  JSON/CSV export and journal-based resume (see ``docs/EXPLORE.md``);
* ``repro serve gemm:64x64x64 --repeat 8 --clients 2 --events`` — run a
  workload stream through the simulation service: duplicate in-flight
  requests coalesce onto one simulation, admission is fair and bounded, and
  lifecycle/progress events stream to stdout (see ``docs/SERVE.md``);
* ``repro serve gemm:64x64x64 --shards 4 --journal --stats-interval 5`` — the
  same stream through the multi-process sharded cluster: each shard owns a
  private GIL, a supervisor restarts crashed workers, and the durable job
  journal replays the unfinished backlog after a daemon restart (see
  ``docs/SERVE.md``);
* ``repro serve gemm:64x64x64 --repeat 32 --metrics-port 0 --trace run.json
  --stats-interval 2 --stats-format json`` — the same stream with the full
  observability surface: a loopback HTTP endpoint serving Prometheus
  ``/metrics``, a JSON ``/snapshot``, a ``/config`` report and a live
  dashboard, plus a Chrome trace-event timeline written on exit (see
  ``docs/OBSERVABILITY.md``);
* ``repro replay --regime hotkey --requests 200 --shards 2`` — drive the
  service with a realistic arrival trace (Poisson, diurnal, correlated-burst
  or Zipf hot-key-skew regimes, or a recorded JSONL trace) and report p50/p99
  latency, coalesce rate and cache hit-rate (see ``docs/SCENARIOS.md``);
* ``repro metrics --once`` — print one Prometheus text scrape of the
  process-wide registry and the result cache (or serve it over HTTP
  without ``--once``);
* ``repro cache info|prune|clear`` — inspect or bound the on-disk result
  cache (``prune`` evicts least-recently-used entries);
* ``repro selftest`` — tiny cached GeMM end-to-end smoke test;
* ``repro suite-info`` — describe the synthetic ablation suite.

All simulation goes through :mod:`repro.runtime`; ``--jobs``, ``--cache-dir``
and ``--no-cache`` control parallelism and result caching wherever they
appear, and ``--engine {event,lockstep}`` selects the simulation engine
(event-driven next-event scheduling vs the legacy per-cycle loop; see
``docs/ENGINE.md``).  The exit code is 0 when the command ran, 1 when the run
itself failed, 2 for a usage error (``error: …`` on stderr, never a
traceback).  ``docs/ARCHITECTURE.md`` maps every subcommand to the subsystem
behind it.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import tempfile
import threading
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Iterator, List, Optional

from .analysis.reporting import format_comparison, format_table
from .compiler.allocator import AllocationError
from .config import get_config
from .core.params import FeatureSet, ablation_feature_sets
from .experiments import EXPERIMENTS
from .explore import (
    JournalError,
    ParameterAxis,
    available_strategies,
    make_strategy,
    named_search_spaces,
    parse_objectives,
    search_space_by_name,
)
from .engine import DEFAULT_ENGINE, available_engines
from .runtime import (
    DATAMAESTRO_BACKEND,
    ResultCache,
    SimJob,
    Simulator,
    available_backends,
    default_cache_dir,
)
from .runtime.admission import AdmissionShell
from .workloads.spec import ConvWorkload, GemmWorkload, Workload
from .workloads.synthetic import FULL_SUITE_COUNTS, synthetic_suite


class CliError(ValueError):
    """The command line asks for something that cannot be run.  Raised
    wherever an argument turns out to be unusable and caught once, in
    :func:`main`, which prints ``error: <text>`` and exits 2.  A ``ValueError``
    because that is what :func:`parse_workload_spec` always raised."""


@contextmanager
def _usage_errors(*kinds: type) -> Iterator[None]:
    """Report the named exceptions of a parsing or loading step as usage
    errors.  For argument handling only — a ``ValueError`` out of a running
    simulation is a bug, and must stay a traceback."""
    try:
        yield
    except kinds as error:
        # str() of a KeyError is the repr of its message.
        message = error.args[0] if isinstance(error, KeyError) else error
        raise CliError(str(message)) from error


def _require(args: argparse.Namespace, *flags: str, positive: bool = True) -> None:
    """Reject a numeric ``--flag`` that is not positive (or, with
    ``positive=False``, negative); a flag left at ``None`` passes."""
    wanted = "positive" if positive else "non-negative"
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and (value <= 0 if positive else value < 0):
            raise CliError(f"{flag} must be {wanted}")


def _check_port(flag: str, port: Optional[int]) -> None:
    if port is not None and not 0 <= port <= 65535:
        raise CliError(f"{flag} must be in [0, 65535]")


def _check_backend(name: str) -> None:
    backends = available_backends()
    if name not in backends:
        raise CliError(f"unknown backend {name!r}; available: {backends}")


def _or_config(value, field: str):
    """A flag's value or, when it was not given, the ``$REPRO_*`` knob behind
    it (``RuntimeConfig.<field>``; the table is in docs/ARCHITECTURE.md)."""
    return value if value is not None else getattr(get_config(), field)


# ----------------------------------------------------------------------
# Flag groups: a flag that several subcommands take is declared once, here
# (what differs arrives as an argument), and read back once, below;
# ``tests/test_docs.py`` fails when two subcommands disagree on a flag.
# ----------------------------------------------------------------------
def _add_cache_flags(
    parser: argparse.ArgumentParser,
    no_cache: bool = True,
    help: str = "result-cache directory (default: $REPRO_CACHE_DIR or "
    "~/.cache/repro-datamaestro)",
) -> None:
    """Cache flags: ``--cache-dir`` and, where caching can be off, ``--no-cache``."""
    parser.add_argument("--cache-dir", default=None, metavar="PATH", help=help)
    if no_cache:
        parser.add_argument(
            "--no-cache", action="store_true", help="disable the on-disk result cache"
        )


def _add_engine_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine",
        choices=available_engines(),
        default=DEFAULT_ENGINE,
        help="simulation engine: 'event' skips provably idle cycles, "
        "'lockstep' is the legacy per-cycle loop (see docs/ENGINE.md)",
    )


def _add_runtime_flags(
    parser: argparse.ArgumentParser, cache_default: bool = False
) -> None:
    """Runtime flags: ``--jobs`` plus the cache and engine flags.

    ``cache_default`` decides whether the command caches when neither
    ``--cache-dir`` nor ``--no-cache`` is given (batch/sweep/explore do; the
    single-shot commands do not).
    """
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="shard processes for batched simulation (default: 1, in-process)",
    )
    _add_cache_flags(parser)
    _add_engine_flag(parser)
    parser.set_defaults(cache_default=cache_default)


def _add_baseline_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--baseline", action="store_true", help="disable every DataMaestro feature"
    )


def _add_job_flags(
    parser: argparse.ArgumentParser,
    nargs: str = "+",
    spec_help: str = "workload specs, e.g. gemm:64x64x64 or conv:16x16x16x32:k3:p1",
    backend: Optional[str] = DATAMAESTRO_BACKEND,
    seed: Optional[int] = 0,
    seed_help: str = "operand-data seed of the simulations (default: 0)",
    baseline: bool = True,
) -> None:
    """Job flags: the ``SPEC`` positional, ``--backend``, ``--seed`` and
    (where the feature set is not what is being swept) ``--baseline``."""
    parser.add_argument("workloads", nargs=nargs, metavar="SPEC", help=spec_help)
    parser.add_argument(
        "--backend",
        default=backend,
        help="simulation backend (datamaestro or baseline:<slug>)",
    )
    parser.add_argument("--seed", type=int, default=seed, metavar="N", help=seed_help)
    if baseline:
        _add_baseline_flag(parser)


def _add_service_flags(parser: argparse.ArgumentParser, backlog: int) -> None:
    """Service flags: ``--shards``, ``--workers`` and ``--backlog`` (unset unless given)."""
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="shard the service over N worker processes (private GIL each; "
        "default: $REPRO_SERVE_SHARDS or 0 = single-process thread service; "
        "see docs/SERVE.md)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="worker threads per service/shard (default: 2)",
    )
    parser.add_argument(
        "--backlog",
        type=int,
        default=None,
        metavar="N",
        help="thread-service admission-queue bound, overflow raises QueueFullError "
        f"(default: {backlog}; not with --shards, which admits every job)",
    )
    parser.set_defaults(backlog_default=backlog)


def _cache_dir(args: argparse.Namespace, default: bool = True):
    """The directory the cache flags name; ``None`` means run uncached."""
    if getattr(args, "no_cache", False):
        return None
    if args.cache_dir:
        return args.cache_dir
    return default_cache_dir() if default else None


class _ShardedShell(AdmissionShell):
    """``--jobs N``: the inline shell — it admits, probes, counts and writes
    back, and runs a lone job itself (a shard round trip per serial job
    costs more) — with each batch of two or more new entries run on an
    N-shard cluster with no cache, opened on first need, closed by ``main``."""

    def __init__(self, args: argparse.Namespace, cache_dir) -> None:
        super().__init__(cache_dir=cache_dir)
        self._args, self._cluster, self._sent = args, None, {}  # job hash -> ticket

    def _run_batch(self, batch) -> None:
        if len(batch) > 1:
            if self._cluster is None:
                from .cluster import ClusterConfig, ClusterService

                cluster = ClusterService(config=ClusterConfig(shards=self._args.jobs))
                self._cluster = self._args.resources.enter_context(cluster)
            for entry in batch:
                self._sent[entry.key] = self._cluster.submit_wait(entry.job, "simulator")
        super()._run_batch(batch)

    def _simulate(self, entry):
        # A ticket an aborted batch left unclaimed answers its job if it runs again.
        sent = self._sent.pop(entry.key, None)
        return super()._simulate(entry) if sent is None else sent.result()


def _simulator_from_args(args: argparse.Namespace) -> Simulator:
    """Build the Simulator the runtime flags describe."""
    _require(args, "--jobs", positive=False)
    cache_dir = _cache_dir(args, default=args.cache_default)
    shell = _ShardedShell(args, cache_dir) if args.jobs > 1 else AdmissionShell(cache_dir=cache_dir)
    return Simulator(service=shell)


def _features_from_args(args: argparse.Namespace) -> FeatureSet:
    return FeatureSet.all_disabled() if args.baseline else FeatureSet.all_enabled()


def _jobs_from_args(args: argparse.Namespace) -> List[SimJob]:
    """One SimJob per ``SPEC``, as the job flags describe it."""
    _check_backend(args.backend)
    features = _features_from_args(args)
    return [
        SimJob(
            workload=parse_workload_spec(spec),
            features=features,
            backend=args.backend,
            seed=args.seed,
            engine=args.engine,
        )
        for spec in args.workloads
    ]


def _service_shards(args: argparse.Namespace) -> int:
    """Validate the service flags; return the shard count they resolve to
    (0 = the single-process thread service)."""
    _require(args, "--workers", "--backlog")
    _require(args, "--shards", positive=False)
    shards = _or_config(args.shards, "serve_shards")
    if shards and args.backlog is not None:
        raise CliError("--backlog bounds the thread service; --shards admits every job")
    args.backlog = None if shards else args.backlog or args.backlog_default
    return shards


def _open_service(
    args: argparse.Namespace, shards: int, journal=None, on_event=None, **config
):
    """Start the service ``serve`` and ``replay`` submit to: worker threads
    in this process (``config`` goes to ``ServiceConfig`` as is), or
    ``shards`` supervised worker processes (``journal`` makes their backlog
    durable); ``on_event`` hears the lifecycle events of either."""
    cache_dir = _cache_dir(args)
    if shards > 0:
        from .cluster import ClusterConfig, ClusterService

        cluster = ClusterConfig(shards=shards, worker_threads=args.workers)
        return ClusterService(
            cache_dir=cache_dir, config=cluster, journal=journal, on_event=on_event
        )
    from .serve import ServiceClient, ServiceConfig

    threads = ServiceConfig(max_workers=args.workers, max_backlog=args.backlog, **config)
    return ServiceClient(cache_dir=cache_dir, config=threads, on_event=on_event)


@_usage_errors(ValueError)
def parse_workload_spec(text: str) -> Workload:
    """Parse a CLI workload spec — the one place a command line becomes a
    workload (``simulate-gemm`` / ``simulate-conv`` come through here too).

    Formats::

        gemm:MxNxK[:t][:q]           (t = transposed A, q = quantize)
        conv:HxWxCINxCOUT[:kN][:sN][:pN][:q]

    Anything else — the non-integer and non-positive dimensions the workload
    classes reject included — is a :class:`CliError`.
    """
    tokens = text.split(":")
    kind = tokens[0].lower()
    if len(tokens) < 2:
        raise ValueError(f"workload spec {text!r} is missing its dimensions")
    dims = tokens[1].lower().split("x")
    flags = [token.lower() for token in tokens[2:]]
    if kind == "gemm":
        if len(dims) != 3:
            raise ValueError(f"gemm spec needs MxNxK dimensions, got {text!r}")
        m, n, k = (int(value) for value in dims)
        transposed = "t" in flags
        quantize = "q" in flags
        unknown = [f for f in flags if f not in ("t", "q")]
        if unknown:
            raise ValueError(f"unknown gemm flags {unknown} in {text!r}")
        name = f"cli_gemm_{m}x{n}x{k}" + ("_t" if transposed else "")
        return GemmWorkload(
            name=name, m=m, n=n, k=k, transposed_a=transposed, quantize=quantize
        )
    if kind == "conv":
        if len(dims) != 4:
            raise ValueError(f"conv spec needs HxWxCINxCOUT dimensions, got {text!r}")
        height, width, cin, cout = (int(value) for value in dims)
        shape = {"k": 3, "s": 1, "p": 0}  # kernel, stride, padding
        for flag in flags:
            if flag[:1] in shape and flag[1:].isdigit():
                shape[flag[0]] = int(flag[1:])
            elif flag != "q":
                raise ValueError(f"unknown conv flag {flag!r} in {text!r}")
        kernel, stride, padding = shape["k"], shape["s"], shape["p"]
        quantize = "q" in flags
        name = f"cli_conv_{height}x{width}x{cin}_{cout}_k{kernel}s{stride}p{padding}"
        return ConvWorkload(
            name=name,
            in_height=height,
            in_width=width,
            in_channels=cin,
            out_channels=cout,
            kernel_h=kernel,
            kernel_w=kernel,
            stride=stride,
            padding=padding,
            quantize=quantize,
        )
    raise ValueError(f"unknown workload kind {kind!r} (use gemm: or conv:)")


def _print_outcomes(outcomes, title: str) -> None:
    rows = [
        [
            outcome.workload_name,
            outcome.backend,
            f"{outcome.utilization:.2%}",
            outcome.kernel_cycles,
            outcome.memory_accesses,
            "hit" if outcome.cache_hit else "miss",
        ]
        for outcome in outcomes
    ]
    print(
        format_table(
            ["workload", "backend", "utilization", "kernel cycles", "mem accesses", "cache"],
            rows,
            title=title,
        )
    )


def _print_runtime_stats(simulator: Simulator) -> None:
    stats = simulator.stats
    cache_text = (
        f"cache dir {simulator.cache.directory}" if simulator.cache else "cache off"
    )
    print(
        f"runtime: {stats.executed} simulated, {stats.cache_hits} cache hits, "
        f"{stats.coalesced} deduplicated ({cache_text})"
    )


def _print_simulation(outcome) -> None:
    rows = [
        ["workload", outcome.workload_name],
        ["backend", outcome.backend],
        ["engine", outcome.provenance.get("engine", "-")],
        ["ideal compute cycles", outcome.ideal_compute_cycles],
        ["kernel cycles", outcome.kernel_cycles],
        ["utilization", f"{outcome.utilization:.2%}"],
        ["memory accesses", outcome.memory_accesses],
        ["bank conflicts", outcome.bank_conflicts],
        ["pre-pass cycles", outcome.prepass_cycles],
        ["functional match", outcome.functional_match],
        ["cache", "hit" if outcome.cache_hit else "miss"],
    ]
    print(format_table(["metric", "value"], rows, title="Simulation result"))


# ----------------------------------------------------------------------
# Subcommands.
# ----------------------------------------------------------------------
def cmd_list_experiments(_args: argparse.Namespace) -> int:
    rows = []
    for name, module in EXPERIMENTS.items():
        # Each experiment module's docstring opens with its paper artefact.
        title = (inspect.getdoc(module) or "").partition("\n")[0].rstrip(".")
        rows.append([name, title, f"python -m {module.__name__}"])
    print(format_table(["id", "paper artefact", "command"], rows, title="Experiments"))
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    module = EXPERIMENTS.get(args.name)
    if module is None:
        raise CliError(f"unknown experiment {args.name!r}; run 'list-experiments'")
    _require(args, "--workloads-per-group")
    kwargs = {}
    if args.name == "fig7" and args.workloads_per_group is not None:
        kwargs["workloads_per_group"] = args.workloads_per_group
    parameters = inspect.signature(module.run).parameters
    simulator = None
    if "simulator" in parameters:
        simulator = _simulator_from_args(args)
        kwargs["simulator"] = simulator
    if "engine" in parameters:
        kwargs["engine"] = args.engine
    results = module.run(**kwargs)
    print(module.report(results))
    if simulator is not None:
        _print_runtime_stats(simulator)
    return 0


def _simulate_spec(args: argparse.Namespace, spec: str) -> int:
    """``simulate-gemm`` / ``simulate-conv``: the job ``batch SPEC`` would
    run (same workload, same cache entry), reported in full."""
    job = SimJob(
        workload=parse_workload_spec(spec + (":q" if args.quantize else "")),
        features=_features_from_args(args),
        engine=args.engine,
    )
    _print_simulation(_simulator_from_args(args).simulate(job))
    return 0


def cmd_simulate_gemm(args: argparse.Namespace) -> int:
    transposed = ":t" if args.transposed else ""
    return _simulate_spec(args, f"gemm:{args.m}x{args.n}x{args.k}{transposed}")


def cmd_simulate_conv(args: argparse.Namespace) -> int:
    return _simulate_spec(
        args,
        f"conv:{args.height}x{args.width}x{args.cin}x{args.cout}"
        f":k{args.kernel}:s{args.stride}:p{args.padding}",
    )


def cmd_batch(args: argparse.Namespace) -> int:
    jobs = _jobs_from_args(args)
    simulator = _simulator_from_args(args)
    outcomes = simulator.simulate_many(jobs)
    _print_outcomes(outcomes, f"Batch results ({len(jobs)} jobs)")
    _print_runtime_stats(simulator)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    workloads = [parse_workload_spec(spec) for spec in args.workloads]
    backend = args.backend or DATAMAESTRO_BACKEND
    _check_backend(backend)
    ladder = ablation_feature_sets()
    step_names = list(ladder) if args.steps is None else args.steps.split(",")
    unknown = [step for step in step_names if step not in ladder]
    if unknown:
        raise CliError(f"unknown ablation steps {unknown}; available: {list(ladder)}")
    simulator = _simulator_from_args(args)
    outcomes = simulator.sweep(
        workloads,
        features=[ladder[step] for step in step_names],
        backends=(backend,),
        seed=args.seed,
        engine=args.engine,
    )
    # sweep() nests feature sets outside workloads, in deterministic order.
    comparison = {workload.name: {} for workload in workloads}
    for index, outcome in enumerate(outcomes):
        step = step_names[index // len(workloads)]
        workload = workloads[index % len(workloads)]
        comparison[workload.name][step] = outcome.utilization
    print(
        format_comparison(
            "Feature-ladder sweep: GeMM-core utilization per architecture step",
            comparison,
        )
    )
    _print_runtime_stats(simulator)
    return 0


def _parse_axis_override(text: str) -> ParameterAxis:
    """Parse a CLI axis spec ``name=v1,v2,...`` (ints where possible)."""
    if "=" not in text:
        raise ValueError(f"axis spec {text!r} must look like name=v1,v2,...")
    name, _, values_text = text.partition("=")
    values = []
    for token in values_text.split(","):
        token = token.strip()
        if not token:
            continue
        if token.lower() in ("true", "false"):
            values.append(token.lower() == "true")
        else:
            values.append(int(token))
    if not values:
        raise ValueError(f"axis spec {text!r} has no values")
    return ParameterAxis.make(name.strip(), values)


def cmd_explore(args: argparse.Namespace) -> int:
    from .explore.engine import ExplorationEngine

    _require(args, "--budget", "--population")
    if args.resume and not args.journal:
        raise CliError("--resume requires --journal")
    # Unknown space / strategy names are KeyErrors, unparsable axis,
    # objective and workload specs ValueErrors, each naming the valid ones.
    with _usage_errors(KeyError, ValueError):
        space = search_space_by_name(args.space)
        if args.axis:
            overrides = [_parse_axis_override(spec) for spec in args.axis]
            axes = {axis.name: axis for axis in space.axes}
            axes.update({axis.name: axis for axis in overrides})
            space.axes = tuple(axes.values())
        objectives = parse_objectives(args.objectives)
        strategy = make_strategy(
            args.strategy, objectives=objectives, population=args.population
        )
        workloads = (
            [parse_workload_spec(spec) for spec in args.workload]
            if args.workload
            else None
        )

    simulator = _simulator_from_args(args)
    engine = ExplorationEngine(
        space=space,
        strategy=strategy,
        objectives=objectives,
        workloads=workloads,
        simulator=simulator,
        seed=args.seed,
        sim_seed=args.sim_seed,
        sim_engine=args.engine,
    )
    # A journal that cannot be used (JournalError is a ValueError), or an
    # --axis override the design builder does not understand (KeyError).
    with _usage_errors(JournalError, KeyError):
        report_data = engine.run(
            budget=args.budget, journal=args.journal, resume=args.resume
        )
    if not report_data.evaluations:
        raise CliError(
            "no valid candidates in the search space (every axis combination "
            "was filtered by a constraint or failed design validation)"
        )

    objective_names = report_data.objective_names()
    print(
        format_table(
            ["candidate"] + objective_names,
            report_data.frontier_rows(),
            title=(
                f"Pareto frontier ({len(report_data.frontier)} of "
                f"{len(report_data.evaluations)} evaluated designs)"
            ),
            float_format="{:.4g}",
        )
    )
    best = report_data.best()
    print(
        f"best on {objective_names[0]}: {best.candidate.key()} "
        f"({objective_names[0]}={best.metrics[objective_names[0]]:.6g})"
    )
    print(
        f"exploration: {report_data.simulated} simulated, "
        f"{report_data.cache_hits} cache hits, "
        f"{report_data.replayed_from_journal} replayed from journal"
    )
    if report_data.proposal_shortfall:
        print(
            f"note: budget under-spent — the strategy came up "
            f"{report_data.proposal_shortfall} proposal(s) short (space "
            f"smaller than the budget, or draws exhausted)"
        )
    if args.json:
        report_data.to_json(args.json)
        print(f"wrote JSON report to {args.json}")
    if args.csv:
        report_data.to_csv(args.csv)
        print(f"wrote CSV report to {args.csv}")
    _print_runtime_stats(simulator)
    return 0


def _format_stats_line(snapshot: dict) -> str:
    """One compact periodic-stats line for a thread or cluster snapshot."""
    line = (
        f"stats: queue={snapshot['queue_depth']} inflight={snapshot['inflight']} "
        f"submitted={snapshot['submitted']} executed={snapshot['executed']} "
        f"coalesced={snapshot['coalesced']} cache_hits={snapshot['cache_hits']}"
    )
    latency = snapshot.get("latency")
    if isinstance(latency, dict) and latency.get("count"):
        line += (
            f" p50={latency['p50_seconds'] * 1000:.1f}ms"
            f" p99={latency['p99_seconds'] * 1000:.1f}ms"
        )
    if "shards" in snapshot:
        alive = sum(1 for shard in snapshot["shards"] if shard.get("alive"))
        line += f" shards={alive}/{snapshot['shard_count']}"
        if snapshot["restarts"]:
            line += f" restarts={snapshot['restarts']}"
    return line


def _emit_stats(snapshot: dict, fmt: str) -> None:
    """Print one periodic-stats record: text line or a JSON object line."""
    if fmt == "json":
        print(json.dumps(snapshot, default=str, sort_keys=True))
    else:
        print(f"  {_format_stats_line(snapshot)}")


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a workload stream through the simulation service."""
    from .serve import QueueFullError

    _require(args, "--repeat", "--clients", "--progress-interval", "--stats-interval")
    shards = _service_shards(args)
    jobs = [job for job in _jobs_from_args(args) for _ in range(args.repeat)]
    # --metrics-port on the command line always wins; otherwise the env
    # knob enables the exporter when non-zero.  An *explicit* 0 asks for
    # an ephemeral port (the bound port is printed), while an unset flag
    # with REPRO_METRICS_PORT=0 keeps the exporter off entirely.
    metrics_port = args.metrics_port
    if metrics_port is None:
        metrics_port = get_config().metrics_port or None
    _check_port("--metrics-port", metrics_port)
    trace_path = _or_config(args.trace, "trace_path")
    journal = None
    if args.journal is not None:
        if shards == 0:
            raise CliError("--journal needs the sharded service (--shards N, N >= 1)")
        # The bare flag parses as "": the default journal file.
        journal = Path(args.journal or get_config().journal_dir / "serve.jsonl")
    recorder = None
    if trace_path is not None:
        from .obs.trace import install_tracer

        # Installed before the service exists so admission/replay of the
        # very first submissions is already on the timeline.
        recorder = install_tracer()
    client = _open_service(
        args,
        shards,
        journal=journal,
        on_event=(lambda event: print(f"  {event.describe()}")) if args.events else None,
        progress_interval=args.progress_interval,
    )
    metrics_server = None
    if metrics_port is not None:
        from .obs.http import MetricsServer

        metrics_server = MetricsServer(client, port=metrics_port).start()
        print(
            f"metrics: {metrics_server.url}/metrics "
            f"(snapshot {metrics_server.url}/snapshot, "
            f"dashboard {metrics_server.url}/)"
        )
    stop_stats = threading.Event()
    if args.stats_interval:

        def _dump_stats() -> None:
            while not stop_stats.wait(args.stats_interval):
                try:
                    _emit_stats(client.snapshot(), args.stats_format)
                except Exception:  # noqa: BLE001 — telemetry must not kill serving
                    break

        threading.Thread(
            target=_dump_stats, name="repro-serve-stats", daemon=True
        ).start()
    try:
        # Spread the stream round-robin over the simulated clients; the
        # fair queue interleaves them, duplicates coalesce in-flight.
        tickets = []
        for index, job in enumerate(jobs):
            name = f"client{index % args.clients}"
            try:
                tickets.append(client.submit(job, client_name=name))
            except QueueFullError as error:
                print(f"  backpressure: {error}", file=sys.stderr)
                return 1
        outcomes = [ticket.result() for ticket in tickets]
        if args.stats_interval:
            # Guarantee at least one stats record even when the stream
            # drains faster than the first interval tick.
            _emit_stats(client.snapshot(), args.stats_format)
    finally:
        stop_stats.set()
        if metrics_server is not None:
            metrics_server.close()
        client.close(drain=True)
        if recorder is not None:
            from .obs.trace import uninstall_tracer

            uninstall_tracer()
            count = recorder.export(trace_path)
            print(f"trace: {count} events -> {trace_path} (view in Perfetto)")
    unique = {}
    for outcome in outcomes:
        unique.setdefault(outcome.job_hash, outcome)
    _print_outcomes(
        unique.values(), f"Service results ({len(jobs)} submissions, "
        f"{len(unique)} unique jobs)"
    )
    stats = client.stats_dict()
    print(
        f"service: {stats['submitted']} submitted, {stats['executed']} simulated, "
        f"{stats['coalesced']} coalesced, {stats['cache_hits']} cache hits "
        f"(coalescing hit-rate {stats['coalescing_hit_rate']:.0%}, "
        f"workers {args.workers}, "
        + (f"shards {shards}, restarts {stats['restarts']})" if shards
           else f"backlog {args.backlog})")
    )
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Replay an arrival trace (synthetic regime or recorded JSONL) against
    the service and report latency/avoidance per regime."""
    from .serve.replay import (
        REGIMES,
        build_trace,
        default_pool,
        load_trace,
        replay_trace,
        save_trace,
    )

    _check_backend(args.backend)
    _require(args, "--requests", "--rate", "--pool", "--time-scale")
    shards = _service_shards(args)
    seed = _or_config(args.seed, "fuzz_seed")

    if args.trace_file is not None:
        with _usage_errors(OSError, ValueError):
            trace = load_trace(Path(args.trace_file))
        if not trace:
            raise CliError(f"{args.trace_file} holds no events")
        regime = "trace"
    else:
        if args.workloads:
            pool = [parse_workload_spec(spec) for spec in args.workloads]
        else:
            pool = default_pool(args.pool, seed=seed)
        trace = build_trace(args.regime, args.requests, args.rate, pool, seed=seed)
        regime = args.regime
    if args.record is not None:
        save_trace(Path(args.record), trace)
        print(f"recorded {len(trace)} events -> {args.record}")

    with _open_service(args, shards) as client:  # closes draining
        report = replay_trace(
            client,
            trace,
            regime=regime,
            backend=args.backend,
            engine=args.engine,
            seed=seed,
            time_scale=args.time_scale,
        )
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        shape = REGIMES.get(regime)
        if shape is not None:
            print(f"regime {shape.name}: {shape.description}")
        print(f"replay: {report.summary_line()}")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect, prune or clear the on-disk result cache."""
    _require(args, "--max-entries", "--max-bytes", positive=False)
    cache = ResultCache(_cache_dir(args))
    if args.action == "info":
        stats = cache.stats()
        rows = [[key, value] for key, value in stats.items()]
        print(format_table(["field", "value"], rows, title="Result cache"))
    elif args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} entries from {cache.directory}")
    else:  # prune
        if args.max_entries is None and args.max_bytes is None:
            raise CliError("cache prune needs --max-entries and/or --max-bytes")
        report = cache.prune(max_entries=args.max_entries, max_bytes=args.max_bytes)
        print(
            f"pruned {report.removed} entries ({report.bytes_freed} bytes) from "
            f"{cache.directory}; {report.remaining} entries "
            f"({report.bytes_remaining} bytes) remain"
        )
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Expose process-wide telemetry over HTTP, or print one scrape."""
    from .obs.exposition import cache_families, render
    from .obs.metrics import MetricsRegistry, get_registry

    _check_port("--port", args.port)
    _require(args, "--duration")
    # No service here: a registry of this command's own renders the
    # process-wide one plus the cache (as a serving daemon's ``collect()``
    # does) and leaves the process-wide one as it was.
    cache = ResultCache(_cache_dir(args))
    registry = MetricsRegistry()
    registry.add_callback("process", get_registry().collect)
    registry.add_callback("repro_result_cache", lambda: cache_families(cache.stats()))
    if args.once:
        sys.stdout.write(render(registry.collect()))
        return 0
    from .obs.http import MetricsServer

    port = _or_config(args.port, "metrics_port")
    server = MetricsServer(registry=registry, port=port).start()
    print(
        f"metrics: {server.url}/metrics (config {server.url}/config, "
        f"dashboard {server.url}/) — Ctrl-C to stop"
    )
    try:
        if args.duration is not None:
            time.sleep(args.duration)
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    """Run one tiny GeMM job end-to-end, twice, through a result cache."""
    engine, cache_dir = args.engine, args.cache_dir or args.resources.enter_context(
        tempfile.TemporaryDirectory(prefix="repro-selftest-")
    )
    workload = GemmWorkload(name="selftest_gemm", m=16, n=16, k=16)
    job = SimJob(workload=workload, engine=engine, label="selftest")

    cold = Simulator(cache_dir=cache_dir)
    outcome = cold.simulate(job)
    warm = Simulator(cache_dir=cache_dir)
    cached = warm.simulate(job)

    checks = [
        ("cycle simulation ran", cold.stats.executed == 1),
        ("functional match vs numpy", outcome.functional_match is True),
        ("utilization in (0, 1]", 0.0 < outcome.utilization <= 1.0),
        ("second run served from cache", warm.stats.executed == 0 and cached.cache_hit),
        ("cached outcome identical", cached.as_dict() == {**outcome.as_dict(), "cache_hit": True}),
        ("cache counters consistent", cold.cache.misses == 1 and warm.stats.cache_hits == 1),
    ]
    steady_line = ""
    if engine == "event":
        # Exercise the steady-span macro-step fast path on a kernel dense
        # enough to reach a periodic steady state, against lockstep truth.
        from .compiler import compile_workload
        from .system import AcceleratorSystem, datamaestro_evaluation_system

        design = datamaestro_evaluation_system()
        dense = GemmWorkload(name="selftest_dense", m=64, n=64, k=64)
        program = compile_workload(dense, design, FeatureSet.all_enabled())
        fast = AcceleratorSystem(design)
        fast_result = fast.run(program, engine="event")
        slow_result = AcceleratorSystem(design).run(program, engine="lockstep")
        steady = fast.steady_stats()
        checks.append(("macro fast path engaged", steady.get("jumps", 0) >= 1))
        checks.append(
            (
                "macro fast path bit-identical to lockstep",
                fast_result.streaming_cycles == slow_result.streaming_cycles
                and fast_result.bank_conflicts == slow_result.bank_conflicts,
            )
        )
        steady_line = (
            f", macro-stepped {steady.get('cycles_skipped', 0)}/"
            f"{fast_result.streaming_cycles} dense cycles in "
            f"{steady.get('jumps', 0)} jump(s)"
        )
    failed = [label for label, ok in checks if not ok]
    for label, ok in checks:
        print(f"  [{'ok' if ok else 'FAIL'}] {label}")
    if failed:
        print(f"selftest FAILED: {failed}", file=sys.stderr)
        return 1
    print(
        f"selftest ok: {workload.name} at {outcome.utilization:.2%} utilization, "
        f"{outcome.kernel_cycles} cycles, engine {engine}"
        f"{steady_line} (cache: {cache_dir})"
    )
    return 0


def cmd_suite_info(_args: argparse.Namespace) -> int:
    suite = synthetic_suite()
    rows = []
    for group, workloads in suite.items():
        rows.append(
            [
                group.value,
                len(workloads),
                workloads[0].name,
                workloads[-1].name,
            ]
        )
    print(
        format_table(
            ["group", "count", "first workload", "last workload"],
            rows,
            title=f"Synthetic ablation suite ({sum(FULL_SUITE_COUNTS.values())} workloads)",
        )
    )
    return 0


#: ``repro.serve.replay.REGIMES``' names, spelled out: the parser loads no service.
REPLAY_REGIMES = ("poisson", "diurnal", "bursty", "hotkey")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DataMaestro reproduction command-line interface"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser(
        "list-experiments", help="list the reproducible paper tables/figures"
    ).set_defaults(func=cmd_list_experiments)

    experiment = subparsers.add_parser("experiment", help="run one experiment")
    experiment.add_argument("name", help="experiment id (e.g. fig7, table3)")
    experiment.add_argument(
        "--workloads-per-group",
        type=int,
        default=None,
        help="subset size per workload group (fig7 only)",
    )
    _add_runtime_flags(experiment)
    experiment.set_defaults(func=cmd_experiment)

    gemm = subparsers.add_parser("simulate-gemm", help="simulate one GeMM kernel")
    for dimension in ("m", "n", "k"):
        gemm.add_argument(dimension, type=int)
    gemm.add_argument("--transposed", action="store_true", help="A operand stored transposed")
    gemm.set_defaults(func=cmd_simulate_gemm)

    conv = subparsers.add_parser("simulate-conv", help="simulate one convolution layer")
    for dimension in ("height", "width", "cin", "cout"):
        conv.add_argument(dimension, type=int)
    conv.add_argument("--kernel", type=int, default=3)
    conv.add_argument("--stride", type=int, default=1)
    conv.add_argument("--padding", type=int, default=0)
    conv.set_defaults(func=cmd_simulate_conv)

    for kernel in (gemm, conv):  # a spec says :q where these say --quantize
        kernel.add_argument(
            "--quantize", action="store_true", help="requantize the output to int8"
        )
        _add_baseline_flag(kernel)
        _add_runtime_flags(kernel)

    batch = subparsers.add_parser(
        "batch", help="run a batch of workload jobs through the runtime"
    )
    _add_job_flags(batch)
    _add_runtime_flags(batch, cache_default=True)
    batch.set_defaults(func=cmd_batch)

    sweep = subparsers.add_parser(
        "sweep", help="sweep the ablation feature ladder over workloads"
    )
    sweep.add_argument(
        "--steps",
        default=None,
        help="comma-separated ablation steps (default: all six)",
    )
    # The ladder is the feature axis: no --baseline.
    _add_job_flags(sweep, backend=None, baseline=False)
    _add_runtime_flags(sweep, cache_default=True)
    sweep.set_defaults(func=cmd_sweep)

    explore = subparsers.add_parser(
        "explore",
        help="multi-objective design-space exploration (see docs/EXPLORE.md)",
    )
    explore.add_argument(
        "--space",
        default="default",
        help=f"named search space (available: {sorted(named_search_spaces())})",
    )
    explore.add_argument(
        "--axis",
        action="append",
        default=None,
        metavar="NAME=V1,V2,...",
        help="override or add an axis, e.g. --axis data_fifo_depth=2,4,8",
    )
    explore.add_argument(
        "--strategy",
        default="grid",
        help=f"search strategy (available: {available_strategies()})",
    )
    explore.add_argument(
        "--budget",
        type=int,
        default=16,
        metavar="N",
        help="maximum number of candidate evaluations (default: 16)",
    )
    explore.add_argument(
        "--objectives",
        default="cycles,energy_pj,area",
        help="comma-separated objectives, e.g. cycles,energy_pj,area "
        "(prefix min:/max: to override the intrinsic direction)",
    )
    explore.add_argument(
        "--workload",
        action="append",
        default=None,
        metavar="SPEC",
        help="workload spec (repeatable; default: the 64x64x96 DSE GeMM)",
    )
    # Not the job flags' --seed: it seeds the search, --sim-seed the operands.
    explore.add_argument(
        "--seed", type=int, default=0, metavar="N", help="strategy seed"
    )
    explore.add_argument(
        "--sim-seed", type=int, default=0, help="operand-data seed for simulations"
    )
    explore.add_argument(
        "--population",
        type=int,
        default=8,
        help="batch/population size for random and evolutionary strategies",
    )
    explore.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="JSONL run journal enabling checkpoint/resume",
    )
    explore.add_argument(
        "--resume",
        action="store_true",
        help="replay an existing journal instead of starting fresh",
    )
    explore.add_argument("--json", default=None, metavar="PATH", help="write JSON report")
    explore.add_argument("--csv", default=None, metavar="PATH", help="write CSV report")
    _add_runtime_flags(explore, cache_default=True)
    explore.set_defaults(func=cmd_explore)

    serve = subparsers.add_parser(
        "serve",
        help="serve a workload stream through the simulation service "
        "(see docs/SERVE.md)",
    )
    serve.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="submit each spec N times (duplicates coalesce in-flight; default: 1)",
    )
    serve.add_argument(
        "--clients",
        type=int,
        default=1,
        metavar="N",
        help="spread submissions round-robin over N client names (default: 1)",
    )
    _add_service_flags(serve, backlog=64)
    serve.add_argument(
        "--progress-interval",
        type=int,
        default=250_000,
        metavar="CYCLES",
        help="cycle cadence of streaming progress events (default: 250000)",
    )
    serve.add_argument(
        "--journal",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help="durable job journal for the sharded service: accepted jobs are "
        "recorded before dispatch and a restarted daemon resubmits the "
        "unfinished backlog (bare flag: $REPRO_JOURNAL_DIR/serve.jsonl)",
    )
    serve.add_argument(
        "--stats-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="periodically print a structured stats snapshot (queue depth, "
        "hit rates, latency percentiles, live shards)",
    )
    serve.add_argument(
        "--stats-format",
        choices=("text", "json"),
        default="text",
        help="format of --stats-interval records: human-readable text or "
        "one JSON snapshot object per line (default: text)",
    )
    serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="expose /metrics (Prometheus text), /snapshot, /config and the "
        "live dashboard on this loopback port while serving (0 = ephemeral, "
        "the bound port is printed; default: $REPRO_METRICS_PORT, else off; "
        "see docs/OBSERVABILITY.md)",
    )
    serve.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record the per-job span timeline and export Chrome trace-event "
        "JSON to PATH on exit (open in Perfetto; default: $REPRO_TRACE, "
        "else off)",
    )
    serve.add_argument(
        "--events",
        action="store_true",
        help="stream per-job lifecycle/progress events to stdout",
    )
    _add_job_flags(serve)
    _add_cache_flags(serve)
    _add_engine_flag(serve)
    serve.set_defaults(func=cmd_serve)

    replay = subparsers.add_parser(
        "replay",
        help="drive the service with a realistic arrival trace and report "
        "latency/coalescing per regime (see docs/SCENARIOS.md)",
    )
    replay.add_argument(
        "--regime",
        choices=REPLAY_REGIMES,
        default="poisson",
        help="synthetic arrival regime (ignored with --trace-file; "
        "default: poisson)",
    )
    replay.add_argument(
        "--requests",
        type=int,
        default=100,
        metavar="N",
        help="number of arrivals to synthesise (default: 100)",
    )
    replay.add_argument(
        "--rate",
        type=float,
        default=200.0,
        metavar="PER_SEC",
        help="nominal arrival rate in requests/second (default: 200)",
    )
    replay.add_argument(
        "--pool",
        type=int,
        default=24,
        metavar="N",
        help="size of the generated workload pool — the request key space "
        "(default: 24)",
    )
    replay.add_argument(
        "--time-scale",
        type=float,
        default=1.0,
        metavar="FACTOR",
        help="multiply arrival gaps by FACTOR (< 1 compresses the trace; "
        "default: 1.0)",
    )
    replay.add_argument(
        "--trace-file",
        default=None,
        metavar="PATH",
        help="replay a recorded JSONL trace instead of synthesising one",
    )
    replay.add_argument(
        "--record",
        default=None,
        metavar="PATH",
        help="write the (synthesised or loaded) trace as JSONL to PATH "
        "before replaying it",
    )
    _add_service_flags(replay, backlog=256)
    replay.add_argument(
        "--json",
        action="store_true",
        help="print the full replay report as JSON instead of one summary line",
    )
    _add_job_flags(
        replay,
        nargs="*",
        spec_help="optional workload pool specs (e.g. gemm:16x16x16); default: a "
        "seeded generator pool of --pool distinct small workloads",
        seed=None,
        seed_help="trace/pool seed (default: $REPRO_FUZZ_SEED, else 0)",
        baseline=False,
    )
    _add_cache_flags(replay)
    _add_engine_flag(replay)
    replay.set_defaults(func=cmd_replay)

    cache = subparsers.add_parser(
        "cache", help="inspect, prune or clear the on-disk result cache"
    )
    cache.add_argument(
        "action",
        choices=("info", "prune", "clear"),
        help="info: show entry count/size; prune: evict least-recently-used "
        "entries down to the given bounds; clear: delete every entry",
    )
    _add_cache_flags(cache, no_cache=False)
    cache.add_argument(
        "--max-entries",
        type=int,
        default=None,
        metavar="N",
        help="prune: keep at most N entries",
    )
    cache.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="prune: keep at most BYTES of cached outcomes",
    )
    cache.set_defaults(func=cmd_cache)

    metrics = subparsers.add_parser(
        "metrics",
        help="expose process-wide telemetry over HTTP, or print one "
        "Prometheus scrape (see docs/OBSERVABILITY.md)",
    )
    metrics.add_argument(
        "--once",
        action="store_true",
        help="print one Prometheus text scrape to stdout and exit",
    )
    metrics.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="PORT",
        help="bind port (0 = ephemeral; default: $REPRO_METRICS_PORT, else 0)",
    )
    metrics.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="serve for a fixed time then exit (default: until Ctrl-C)",
    )
    _add_cache_flags(
        metrics,
        no_cache=False,
        help="result cache whose entry count/size to expose (default: "
        "$REPRO_CACHE_DIR or ~/.cache/repro-datamaestro)",
    )
    metrics.set_defaults(func=cmd_metrics)

    selftest = subparsers.add_parser(
        "selftest", help="tiny cached GeMM end-to-end smoke test"
    )
    _add_cache_flags(
        selftest,
        no_cache=False,
        help="cache directory (default: a temporary directory, removed afterwards)",
    )
    _add_engine_flag(selftest)
    selftest.set_defaults(func=cmd_selftest)

    subparsers.add_parser(
        "suite-info", help="describe the synthetic ablation workload suite"
    ).set_defaults(func=cmd_suite_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command line and return its exit code (module docstring)."""
    args = build_parser().parse_args(argv)
    try:
        with ExitStack() as args.resources:
            return args.func(args)
    except (CliError, AllocationError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
