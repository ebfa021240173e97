"""Command-line interface of the DataMaestro reproduction.

Provides quick access to the main entry points without writing Python:

* ``python -m repro.cli list-experiments`` — list the paper tables/figures
  that can be regenerated and how;
* ``python -m repro.cli experiment fig7 --workloads-per-group 3`` — run one
  experiment and print its report;
* ``python -m repro.cli simulate-gemm 64 64 64 --quantize`` — compile and
  cycle-simulate a single GeMM kernel on the evaluation system;
* ``python -m repro.cli simulate-conv 16 16 16 32 --kernel 3 --stride 1`` —
  the same for a convolution layer;
* ``python -m repro.cli batch gemm:64x64x64 conv:16x16x16x32:k3:p1`` — run a
  set of jobs through the runtime (``--jobs N`` fans out over processes,
  results land in the on-disk cache);
* ``python -m repro.cli sweep gemm:32x32x64 --steps 1_baseline,6_full`` —
  sweep the ablation feature ladder over one or more workloads;
* ``python -m repro.cli explore --space default --strategy grid --budget 18``
  — multi-objective design-space exploration with Pareto-frontier reporting,
  JSON/CSV export and journal-based resume (see ``docs/EXPLORE.md``);
* ``python -m repro.cli serve gemm:64x64x64 --repeat 8 --clients 2 --events``
  — run a workload stream through the simulation service:
  duplicate in-flight requests coalesce onto one simulation, admission is
  fair and bounded, and lifecycle/progress events stream to stdout (see
  ``docs/SERVE.md``);
* ``python -m repro.cli serve gemm:64x64x64 --shards 4 --journal
  --stats-interval 5`` — the same stream through the multi-process sharded
  cluster: each shard owns a private GIL, a supervisor restarts crashed
  workers, and the durable job journal replays the unfinished backlog after
  a daemon restart (see ``docs/SERVE.md``);
* ``python -m repro.cli serve gemm:64x64x64 --repeat 32 --metrics-port 0
  --trace run.json --stats-interval 2 --stats-format json`` — the same
  stream with the full observability surface: a loopback HTTP endpoint
  serving Prometheus ``/metrics``, a JSON ``/snapshot``, a ``/config``
  report and a live dashboard, plus a Chrome trace-event timeline written
  on exit (see ``docs/OBSERVABILITY.md``);
* ``python -m repro.cli replay --regime hotkey --requests 200 --shards 2``
  — drive the service with a realistic arrival trace (Poisson, diurnal,
  correlated-burst or Zipf hot-key-skew regimes, or a recorded JSONL trace)
  and report p50/p99 latency, coalesce rate and cache hit-rate (see
  ``docs/SCENARIOS.md``);
* ``python -m repro.cli metrics --once`` — print one Prometheus text scrape
  of the process-wide registry (or serve it over HTTP without ``--once``);
* ``python -m repro.cli cache info|prune|clear`` — inspect or bound the
  on-disk result cache (``prune`` evicts least-recently-used entries);
* ``python -m repro.cli selftest`` — tiny cached GeMM end-to-end smoke test;
* ``python -m repro.cli suite-info`` — describe the synthetic ablation suite.

All simulation goes through :mod:`repro.runtime`; ``--jobs``, ``--cache-dir``
and ``--no-cache`` control parallelism and result caching wherever they
appear, and ``--engine {event,lockstep}`` selects the simulation engine
(event-driven next-event scheduling vs the legacy per-cycle loop; see
``docs/ENGINE.md``).  ``docs/ARCHITECTURE.md`` maps every subcommand to the
subsystem behind it.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import tempfile
from typing import List, Optional

from .analysis.reporting import format_comparison, format_table
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
    SimJob,
    Simulator,
    available_backends,
    default_cache_dir,
)
from .workloads.spec import ConvWorkload, GemmWorkload, Workload
from .workloads.synthetic import FULL_SUITE_COUNTS, synthetic_suite


def _features_from_args(args: argparse.Namespace) -> FeatureSet:
    if getattr(args, "baseline", False):
        return FeatureSet.all_disabled()
    return FeatureSet.all_enabled()


# ----------------------------------------------------------------------
# Runtime plumbing shared by the simulation-running subcommands.
# ----------------------------------------------------------------------
def _add_runtime_flags(
    parser: argparse.ArgumentParser, cache_default: bool = False
) -> None:
    """Attach the shared --jobs / --cache-dir / --no-cache flags.

    ``cache_default`` decides whether the command caches when neither
    ``--cache-dir`` nor ``--no-cache`` is given (batch/sweep do; the
    single-shot commands do not).
    """
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for batched simulation (default: 1, in-process)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="result-cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-datamaestro)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache",
    )
    parser.add_argument(
        "--engine",
        choices=available_engines(),
        default=DEFAULT_ENGINE,
        help="simulation engine: 'event' skips provably idle cycles, "
        "'lockstep' is the legacy per-cycle loop (see docs/ENGINE.md)",
    )
    parser.set_defaults(cache_default=cache_default)


def _simulator_from_args(args: argparse.Namespace) -> Simulator:
    """Build the Simulator the runtime flags describe."""
    if getattr(args, "no_cache", False):
        cache_dir = None
    elif getattr(args, "cache_dir", None):
        cache_dir = args.cache_dir
    elif getattr(args, "cache_default", False):
        cache_dir = default_cache_dir()
    else:
        cache_dir = None
    return Simulator(cache_dir=cache_dir, max_workers=getattr(args, "jobs", 1))


def parse_workload_spec(text: str) -> Workload:
    """Parse a CLI workload spec.

    Formats::

        gemm:MxNxK[:t][:q]           (t = transposed A, q = quantize)
        conv:HxWxCINxCOUT[:kN][:sN][:pN][:q]
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
        kernel, stride, padding, quantize = 3, 1, 0, False
        for flag in flags:
            if flag == "q":
                quantize = True
            elif flag.startswith("k") and flag[1:].isdigit():
                kernel = int(flag[1:])
            elif flag.startswith("s") and flag[1:].isdigit():
                stride = int(flag[1:])
            elif flag.startswith("p") and flag[1:].isdigit():
                padding = int(flag[1:])
            else:
                raise ValueError(f"unknown conv flag {flag!r} in {text!r}")
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
        f"{stats.deduplicated} deduplicated ({cache_text})"
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
    descriptions = {
        "table1": "Feature comparison of SotA data-movement solutions",
        "fig4": "AGU address-generation example (4x4x4 GeMM on 2x2x2 PEs)",
        "fig7": "Ablation study: utilization and data access counts",
        "fig8": "FPGA prototype resource utilization",
        "fig9": "Area and power breakdowns, energy efficiency",
        "fig10": "Throughput and overhead comparison with SotA",
        "table3": "Real-world DNN utilization (ResNet/VGG/ViT/BERT + MobileNetV2)",
    }
    for name in EXPERIMENTS:
        rows.append([name, descriptions.get(name, ""), f"python -m repro.experiments.{EXPERIMENTS[name].__name__.split('.')[-1]}"])
    print(format_table(["id", "paper artefact", "command"], rows, title="Experiments"))
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    module = EXPERIMENTS.get(args.name)
    if module is None:
        print(f"unknown experiment {args.name!r}; run 'list-experiments'", file=sys.stderr)
        return 2
    kwargs = {}
    if args.name == "fig7" and args.workloads_per_group is not None:
        kwargs["workloads_per_group"] = args.workloads_per_group
    parameters = inspect.signature(module.run).parameters
    simulator = None
    if "simulator" in parameters:
        simulator = _simulator_from_args(args)
        kwargs["simulator"] = simulator
    if "engine" in parameters:
        kwargs["engine"] = getattr(args, "engine", DEFAULT_ENGINE)
    results = module.run(**kwargs)
    print(module.report(results))
    if simulator is not None:
        _print_runtime_stats(simulator)
    return 0


def cmd_simulate_gemm(args: argparse.Namespace) -> int:
    workload = GemmWorkload(
        name=f"cli_gemm_{args.m}x{args.n}x{args.k}",
        m=args.m,
        n=args.n,
        k=args.k,
        transposed_a=args.transposed,
        quantize=args.quantize,
    )
    outcome = _simulator_from_args(args).simulate(
        SimJob(workload=workload, features=_features_from_args(args), engine=args.engine)
    )
    _print_simulation(outcome)
    return 0


def cmd_simulate_conv(args: argparse.Namespace) -> int:
    workload = ConvWorkload(
        name=f"cli_conv_{args.height}x{args.width}x{args.cin}_{args.cout}",
        in_height=args.height,
        in_width=args.width,
        in_channels=args.cin,
        out_channels=args.cout,
        kernel_h=args.kernel,
        kernel_w=args.kernel,
        stride=args.stride,
        padding=args.padding,
        quantize=args.quantize,
    )
    outcome = _simulator_from_args(args).simulate(
        SimJob(workload=workload, features=_features_from_args(args), engine=args.engine)
    )
    _print_simulation(outcome)
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    try:
        workloads = [parse_workload_spec(spec) for spec in args.workloads]
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.backend not in available_backends():
        print(
            f"error: unknown backend {args.backend!r}; "
            f"available: {available_backends()}",
            file=sys.stderr,
        )
        return 2
    simulator = _simulator_from_args(args)
    features = _features_from_args(args)
    jobs = [
        SimJob(
            workload=workload,
            features=features,
            backend=args.backend,
            seed=args.seed,
            engine=args.engine,
        )
        for workload in workloads
    ]
    outcomes = simulator.simulate_many(jobs)
    _print_outcomes(outcomes, f"Batch results ({len(jobs)} jobs)")
    _print_runtime_stats(simulator)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        workloads = [parse_workload_spec(spec) for spec in args.workloads]
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.backend and args.backend not in available_backends():
        print(
            f"error: unknown backend {args.backend!r}; "
            f"available: {available_backends()}",
            file=sys.stderr,
        )
        return 2
    ladder = ablation_feature_sets()
    step_names = list(ladder) if args.steps is None else args.steps.split(",")
    unknown = [step for step in step_names if step not in ladder]
    if unknown:
        print(
            f"error: unknown ablation steps {unknown}; available: {list(ladder)}",
            file=sys.stderr,
        )
        return 2
    simulator = _simulator_from_args(args)
    outcomes = simulator.sweep(
        workloads,
        features=[ladder[step] for step in step_names],
        backends=(args.backend,) if args.backend else (DATAMAESTRO_BACKEND,),
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

    try:
        space = search_space_by_name(args.space)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    try:
        if args.axis:
            overrides = [_parse_axis_override(spec) for spec in args.axis]
            axes = {axis.name: axis for axis in space.axes}
            axes.update({axis.name: axis for axis in overrides})
            space.axes = tuple(axes.values())
        objectives = parse_objectives(args.objectives)
        workloads = (
            [parse_workload_spec(spec) for spec in args.workload]
            if args.workload
            else None
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.strategy not in available_strategies():
        print(
            f"error: unknown strategy {args.strategy!r}; "
            f"available: {available_strategies()}",
            file=sys.stderr,
        )
        return 2
    if args.resume and not args.journal:
        print("error: --resume requires --journal", file=sys.stderr)
        return 2
    if args.budget <= 0:
        print("error: --budget must be positive", file=sys.stderr)
        return 2

    simulator = _simulator_from_args(args)
    engine = ExplorationEngine(
        space=space,
        strategy=make_strategy(
            args.strategy, objectives=objectives, population=args.population
        ),
        objectives=objectives,
        workloads=workloads,
        simulator=simulator,
        seed=args.seed,
        sim_seed=args.sim_seed,
        sim_engine=args.engine,
    )
    try:
        report_data = engine.run(
            budget=args.budget, journal=args.journal, resume=args.resume
        )
    except JournalError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyError as error:
        # An --axis override the design builder does not understand.
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    if not report_data.evaluations:
        print(
            "error: no valid candidates in the search space (every axis "
            "combination was filtered by a constraint or failed design "
            "validation)",
            file=sys.stderr,
        )
        return 2

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
    """One compact periodic-stats line for thread or cluster snapshots."""
    counters = snapshot.get("stats", snapshot)  # cluster nests its counters
    line = (
        f"stats: queue={snapshot.get('queue_depth', 0)} "
        f"inflight={snapshot.get('inflight', 0)} "
        f"submitted={counters.get('submitted', 0)} "
        f"executed={counters.get('executed', 0)} "
        f"coalesced={counters.get('coalesced', 0)} "
        f"cache_hits={counters.get('cache_hits', 0)}"
    )
    latency = snapshot.get("latency")
    if isinstance(latency, dict) and latency.get("count"):
        line += (
            f" p50={latency['p50_seconds'] * 1000:.1f}ms"
            f" p99={latency['p99_seconds'] * 1000:.1f}ms"
        )
    if "shards" in snapshot:
        alive = sum(1 for shard in snapshot["shards"] if shard.get("alive"))
        line += f" shards={alive}/{snapshot.get('shard_count', 0)}"
        restarts = counters.get("restarts", 0)
        if restarts:
            line += f" restarts={restarts}"
    return line


def _emit_stats(snapshot: dict, fmt: str) -> None:
    """Print one periodic-stats record: text line or a JSON object line."""
    if fmt == "json":
        print(json.dumps(snapshot, default=str, sort_keys=True))
    else:
        print(f"  {_format_stats_line(snapshot)}")


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a workload stream through the simulation service."""
    import threading

    from .config import get_config
    from .serve import QueueFullError, ServiceClient, ServiceConfig

    try:
        workloads = [parse_workload_spec(spec) for spec in args.workloads]
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.backend not in available_backends():
        print(
            f"error: unknown backend {args.backend!r}; "
            f"available: {available_backends()}",
            file=sys.stderr,
        )
        return 2
    if args.repeat <= 0 or args.clients <= 0:
        print("error: --repeat and --clients must be positive", file=sys.stderr)
        return 2
    if args.workers <= 0 or args.backlog <= 0 or args.progress_interval <= 0:
        print(
            "error: --workers, --backlog and --progress-interval must be positive",
            file=sys.stderr,
        )
        return 2
    runtime_config = get_config()
    shards = args.shards if args.shards is not None else runtime_config.serve_shards
    if shards < 0:
        print("error: --shards must be non-negative", file=sys.stderr)
        return 2
    if args.stats_interval is not None and args.stats_interval <= 0:
        print("error: --stats-interval must be positive", file=sys.stderr)
        return 2
    # --metrics-port on the command line always wins; otherwise the env
    # knob enables the exporter when non-zero.  An *explicit* 0 asks for
    # an ephemeral port (the bound port is printed), while an unset flag
    # with REPRO_METRICS_PORT=0 keeps the exporter off entirely.
    metrics_port = args.metrics_port
    if metrics_port is None and runtime_config.metrics_port:
        metrics_port = runtime_config.metrics_port
    if metrics_port is not None and not 0 <= metrics_port <= 65535:
        print("error: --metrics-port must be in [0, 65535]", file=sys.stderr)
        return 2
    trace_path = args.trace if args.trace is not None else runtime_config.trace_path
    if args.journal is not None and shards == 0:
        print(
            "error: --journal needs the sharded service (--shards N, N >= 1)",
            file=sys.stderr,
        )
        return 2
    if args.events and shards > 0:
        print(
            "note: --events is unavailable in sharded mode (events stay "
            "inside each shard process); ignoring it",
            file=sys.stderr,
        )
    recorder = None
    if trace_path is not None:
        from .obs.trace import install_tracer

        # Installed before the service exists so admission/replay of the
        # very first submissions is already on the timeline.
        recorder = install_tracer()
    cache_dir = None if args.no_cache else (args.cache_dir or default_cache_dir())
    features = _features_from_args(args)
    jobs = [
        SimJob(
            workload=workload,
            features=features,
            backend=args.backend,
            seed=args.seed,
            engine=args.engine,
        )
        for workload in workloads
        for _ in range(args.repeat)
    ]
    if shards > 0:
        from pathlib import Path

        from .cluster import ClusterConfig, ClusterService

        journal_path = None
        if args.journal == "":
            journal_path = runtime_config.journal_dir / "serve.jsonl"
        elif args.journal is not None:
            journal_path = Path(args.journal)
        client = ClusterService(
            cache_dir=cache_dir,
            config=ClusterConfig(
                shards=shards,
                worker_threads=args.workers,
                max_backlog=args.backlog,
                progress_interval=args.progress_interval,
            ),
            journal=journal_path,
        )
    else:
        on_event = (
            (lambda event: print(f"  {event.describe()}")) if args.events else None
        )
        client = ServiceClient(
            cache_dir=cache_dir,
            config=ServiceConfig(
                max_workers=args.workers,
                max_backlog=args.backlog,
                progress_interval=args.progress_interval,
            ),
            on_event=on_event,
        )
    metrics_server = None
    if metrics_port is not None:
        from .obs.http import MetricsServer

        metrics_server = MetricsServer(
            snapshot_fn=client.snapshot, port=metrics_port
        ).start()
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
        f"workers {args.workers}, backlog {args.backlog}"
        + (f", shards {shards}, restarts {stats['restarts']})" if shards else ")")
    )
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Replay an arrival trace (synthetic regime or recorded JSONL) against
    the service and report latency/avoidance per regime."""
    from pathlib import Path

    from .config import get_config
    from .serve import ServiceClient, ServiceConfig
    from .serve.replay import (
        REGIMES,
        build_trace,
        default_pool,
        load_trace,
        replay_trace,
        save_trace,
    )

    if args.backend not in available_backends():
        print(
            f"error: unknown backend {args.backend!r}; "
            f"available: {available_backends()}",
            file=sys.stderr,
        )
        return 2
    for flag, value in (
        ("--requests", args.requests),
        ("--rate", args.rate),
        ("--pool", args.pool),
        ("--workers", args.workers),
        ("--backlog", args.backlog),
        ("--time-scale", args.time_scale),
    ):
        if value <= 0:
            print(f"error: {flag} must be positive", file=sys.stderr)
            return 2
    runtime_config = get_config()
    shards = args.shards if args.shards is not None else runtime_config.serve_shards
    if shards < 0:
        print("error: --shards must be non-negative", file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else runtime_config.fuzz_seed

    if args.trace_file is not None:
        try:
            trace = load_trace(Path(args.trace_file))
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        if not trace:
            print(f"error: {args.trace_file} holds no events", file=sys.stderr)
            return 2
        regime = "trace"
    else:
        if args.workloads:
            try:
                pool = [parse_workload_spec(spec) for spec in args.workloads]
            except ValueError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
        else:
            pool = default_pool(args.pool, seed=seed)
        trace = build_trace(args.regime, args.requests, args.rate, pool, seed=seed)
        regime = args.regime
    if args.record is not None:
        save_trace(Path(args.record), trace)
        print(f"recorded {len(trace)} events -> {args.record}")

    cache_dir = None if args.no_cache else (args.cache_dir or default_cache_dir())
    if shards > 0:
        from .cluster import ClusterConfig, ClusterService

        client = ClusterService(
            cache_dir=cache_dir,
            config=ClusterConfig(
                shards=shards,
                worker_threads=args.workers,
                max_backlog=args.backlog,
            ),
        )
    else:
        client = ServiceClient(
            cache_dir=cache_dir,
            config=ServiceConfig(
                max_workers=args.workers,
                max_backlog=args.backlog,
            ),
        )
    try:
        report = replay_trace(
            client,
            trace,
            regime=regime,
            backend=args.backend,
            engine=args.engine,
            seed=seed,
            time_scale=args.time_scale,
        )
    finally:
        client.close(drain=True)
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
    from .runtime import ResultCache

    cache = ResultCache(args.cache_dir or default_cache_dir())
    if args.action == "info":
        stats = cache.stats()
        rows = [[key, value] for key, value in stats.items()]
        print(format_table(["field", "value"], rows, title="Result cache"))
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} entries from {cache.directory}")
        return 0
    # prune
    if args.max_entries is None and args.max_bytes is None:
        print(
            "error: cache prune needs --max-entries and/or --max-bytes",
            file=sys.stderr,
        )
        return 2
    report = cache.prune(max_entries=args.max_entries, max_bytes=args.max_bytes)
    print(
        f"pruned {report.removed} entries ({report.bytes_freed} bytes) from "
        f"{cache.directory}; {report.remaining} entries "
        f"({report.bytes_remaining} bytes) remain"
    )
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Expose process-wide telemetry over HTTP, or print one scrape."""
    from .obs.exposition import render
    from .obs.metrics import get_registry
    from .runtime import ResultCache

    if args.port is not None and not 0 <= args.port <= 65535:
        print("error: --port must be in [0, 65535]", file=sys.stderr)
        return 2
    if args.duration is not None and args.duration <= 0:
        print("error: --duration must be positive", file=sys.stderr)
        return 2
    registry = get_registry()
    # No service snapshot here, so the cache reports through the registry
    # (a serving daemon instead carries cache stats inside its snapshot).
    cache = ResultCache(args.cache_dir or default_cache_dir())
    cache.register_metrics(registry)
    if args.once:
        sys.stdout.write(render(registry.collect()))
        return 0
    import time

    from .config import get_config
    from .obs.http import MetricsServer

    port = args.port if args.port is not None else get_config().metrics_port
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
    cache_dir = args.cache_dir or tempfile.mkdtemp(prefix="repro-selftest-")
    engine = getattr(args, "engine", DEFAULT_ENGINE)
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
        ("cache counters consistent", cold.stats.cache_misses == 1 and warm.stats.cache_hits == 1),
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
    gemm.add_argument("m", type=int)
    gemm.add_argument("n", type=int)
    gemm.add_argument("k", type=int)
    gemm.add_argument("--transposed", action="store_true", help="A operand stored transposed")
    gemm.add_argument("--quantize", action="store_true", help="requantize the output to int8")
    gemm.add_argument("--baseline", action="store_true", help="disable every DataMaestro feature")
    _add_runtime_flags(gemm)
    gemm.set_defaults(func=cmd_simulate_gemm)

    conv = subparsers.add_parser("simulate-conv", help="simulate one convolution layer")
    conv.add_argument("height", type=int)
    conv.add_argument("width", type=int)
    conv.add_argument("cin", type=int)
    conv.add_argument("cout", type=int)
    conv.add_argument("--kernel", type=int, default=3)
    conv.add_argument("--stride", type=int, default=1)
    conv.add_argument("--padding", type=int, default=0)
    conv.add_argument("--quantize", action="store_true")
    conv.add_argument("--baseline", action="store_true")
    _add_runtime_flags(conv)
    conv.set_defaults(func=cmd_simulate_conv)

    batch = subparsers.add_parser(
        "batch", help="run a batch of workload jobs through the runtime"
    )
    batch.add_argument(
        "workloads",
        nargs="+",
        metavar="SPEC",
        help="workload specs, e.g. gemm:64x64x64 or conv:16x16x16x32:k3:p1",
    )
    batch.add_argument(
        "--backend",
        default=DATAMAESTRO_BACKEND,
        help="simulation backend (datamaestro or baseline:<slug>)",
    )
    batch.add_argument("--seed", type=int, default=0)
    batch.add_argument("--baseline", action="store_true", help="disable every DataMaestro feature")
    _add_runtime_flags(batch, cache_default=True)
    batch.set_defaults(func=cmd_batch)

    sweep = subparsers.add_parser(
        "sweep", help="sweep the ablation feature ladder over workloads"
    )
    sweep.add_argument("workloads", nargs="+", metavar="SPEC")
    sweep.add_argument(
        "--steps",
        default=None,
        help="comma-separated ablation steps (default: all six)",
    )
    sweep.add_argument("--backend", default=None, help="simulation backend")
    sweep.add_argument("--seed", type=int, default=0)
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
    explore.add_argument("--seed", type=int, default=0, help="strategy seed")
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
        "workloads",
        nargs="+",
        metavar="SPEC",
        help="workload specs, e.g. gemm:64x64x64 or conv:16x16x16x32:k3:p1",
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
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="concurrent service worker threads (default: 2)",
    )
    serve.add_argument(
        "--backlog",
        type=int,
        default=64,
        metavar="N",
        help="bounded admission-queue depth; overflowing it is rejected "
        "with QueueFullError (default: 64)",
    )
    serve.add_argument(
        "--progress-interval",
        type=int,
        default=250_000,
        metavar="CYCLES",
        help="cycle cadence of streaming progress events (default: 250000)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="shard the service over N worker processes (private GIL each; "
        "default: $REPRO_SERVE_SHARDS or 0 = single-process thread service; "
        "see docs/SERVE.md)",
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
        help="stream per-job lifecycle/progress events to stdout "
        "(single-process mode only)",
    )
    serve.add_argument(
        "--backend",
        default=DATAMAESTRO_BACKEND,
        help="simulation backend (datamaestro or baseline:<slug>)",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--baseline", action="store_true", help="disable every DataMaestro feature"
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="result-cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-datamaestro)",
    )
    serve.add_argument(
        "--no-cache", action="store_true", help="disable the on-disk result cache"
    )
    serve.add_argument(
        "--engine",
        choices=available_engines(),
        default=DEFAULT_ENGINE,
        help="simulation engine: 'event' skips provably idle cycles, "
        "'lockstep' is the legacy per-cycle loop (see docs/ENGINE.md)",
    )
    serve.set_defaults(func=cmd_serve)

    replay = subparsers.add_parser(
        "replay",
        help="drive the service with a realistic arrival trace and report "
        "latency/coalescing per regime (see docs/SCENARIOS.md)",
    )
    replay.add_argument(
        "workloads",
        nargs="*",
        metavar="SPEC",
        help="optional workload pool specs (e.g. gemm:16x16x16); default: a "
        "seeded generator pool of --pool distinct small workloads",
    )
    replay.add_argument(
        "--regime",
        choices=("poisson", "diurnal", "bursty", "hotkey"),
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
    replay.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="replay against the N-process sharded cluster (default: "
        "$REPRO_SERVE_SHARDS or 0 = single-process thread service)",
    )
    replay.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="worker threads per service/shard (default: 2)",
    )
    replay.add_argument(
        "--backlog",
        type=int,
        default=256,
        metavar="N",
        help="bounded admission-queue depth (default: 256)",
    )
    replay.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="N",
        help="trace/pool seed (default: $REPRO_FUZZ_SEED, else 0)",
    )
    replay.add_argument(
        "--json",
        action="store_true",
        help="print the full replay report as JSON instead of one summary line",
    )
    replay.add_argument(
        "--backend",
        default=DATAMAESTRO_BACKEND,
        help="simulation backend (datamaestro or baseline:<slug>)",
    )
    replay.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="result-cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-datamaestro)",
    )
    replay.add_argument(
        "--no-cache", action="store_true", help="disable the on-disk result cache"
    )
    replay.add_argument(
        "--engine",
        choices=available_engines(),
        default=DEFAULT_ENGINE,
        help="simulation engine: 'event' skips provably idle cycles, "
        "'lockstep' is the legacy per-cycle loop (see docs/ENGINE.md)",
    )
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
    cache.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="result-cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-datamaestro)",
    )
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
    metrics.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="result cache whose entry count/size to expose (default: "
        "$REPRO_CACHE_DIR or ~/.cache/repro-datamaestro)",
    )
    metrics.set_defaults(func=cmd_metrics)

    selftest = subparsers.add_parser(
        "selftest", help="tiny cached GeMM end-to-end smoke test"
    )
    selftest.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="cache directory (default: a fresh temporary directory)",
    )
    selftest.add_argument(
        "--engine",
        choices=available_engines(),
        default=DEFAULT_ENGINE,
        help="simulation engine to exercise (event or lockstep)",
    )
    selftest.set_defaults(func=cmd_selftest)

    subparsers.add_parser(
        "suite-info", help="describe the synthetic ablation workload suite"
    ).set_defaults(func=cmd_suite_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
