"""The DataMaestro evaluation system: five streamers + GeMM + quantizer.

:class:`AcceleratorSystem` instantiates the cycle-level models of every
component in the paper's Figure 6 — the multi-banked scratchpad behind an
interleaved crossbar, the five DataMaestros (ports A–E), the Tensor-Core-like
GeMM accelerator, the quantization accelerator, the DMA and the host driver —
and executes compiled :class:`~repro.compiler.programs.KernelProgram` objects
on them.  A DataMaestro is built only for a port the loaded program uses
(:meth:`~repro.compiler.programs.KernelProgram.active_ports`).

Per-cycle phase order (one call to :meth:`step`):

1. streamers reset per-cycle state and the memory delivers matured reads
   straight into the channels' data FIFOs;
2. the quantizer then the GeMM core fire if their operands are valid and
   their output sinks are ready;
3. every streamer's AGU produces at most one address bundle (gated by the
   prefetch mode);
4. every streamer issues at most one word (one request per active channel),
   and the crossbar grants at most one request per bank.

The measured quantities follow the paper's definitions (see DESIGN.md §4):
utilization is ideal compute cycles over kernel cycles (streaming plus any
explicit pre-passes), and data access counts are scratchpad word accesses
during the kernel.

:meth:`run` executes a whole kernel through a simulation engine from
:mod:`repro.engine`: the default event-driven scheduler steps only through
cycles in which the system can change state and bulk-advances over idle
spans, while ``engine="lockstep"`` retains the legacy cycle-by-cycle loop.
Both produce identical results; the system supports the scheduler through
:attr:`last_step_activity`, :meth:`next_event_cycle` and :meth:`advance`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..accelerators.gemm_core import GemmCore
from ..accelerators.quantizer import Quantizer
from ..compiler.programs import KernelProgram
from ..core.streamer import DataMaestro
from ..engine import DEFAULT_ENGINE, get_engine
from ..memory.subsystem import MemorySubsystem
from ..sim.result import (
    DEFAULT_CYCLE_BUDGET,
    DEFAULT_PROGRESS_INTERVAL,
    SimulationResult,
)
from .design import (
    AcceleratorSystemDesign,
    datamaestro_evaluation_system,
    validate_port_widths,
)
from .dma import Dma
from .host import HostProcessor


class AcceleratorSystem:
    """Executable cycle-level model of the evaluation platform."""

    def __init__(self, design: Optional[AcceleratorSystemDesign] = None) -> None:
        self.design = design or datamaestro_evaluation_system()
        validate_port_widths(self.design)
        self.reset()

    # ------------------------------------------------------------------
    # Construction / reset.
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Build fresh memory, streamers and accelerators for a new kernel."""
        self.memory = MemorySubsystem(
            self.design.memory.geometry(), read_latency=self.design.memory.read_latency
        )
        #: One DataMaestro per port the loaded program uses (built by
        #: :meth:`load_program`); ports it leaves idle get none.
        self.streamers: Dict[str, DataMaestro] = {}
        self.gemm_core = GemmCore(
            self.design.gemm_mu, self.design.gemm_nu, self.design.gemm_ku
        )
        self.quantizer = Quantizer(self.design.gemm_mu, self.design.gemm_nu)
        self.dma = Dma(self.memory, self.design.dma_words_per_cycle)
        self.host = HostProcessor(self.design)
        self._active_ports: List[str] = []
        #: The program's streamers, in port order.
        self._live: List[DataMaestro] = []
        self._program: Optional[KernelProgram] = None
        self._quantizes = False
        self._cycles = 0
        self.last_step_activity = 0
        self._tile_completed = False
        self._steady = None

    # ------------------------------------------------------------------
    # Program loading.
    # ------------------------------------------------------------------
    def load_program(self, program: KernelProgram) -> None:
        """Load tensors, run pre-passes and program CSRs on a fresh system.

        A new system is already fresh; one that has loaded a program before
        is rebuilt first, so every kernel starts from the same state.
        """
        if self._program is not None:
            self.reset()
        self._program = program
        self._quantizes = program.uses_quantizer

        # 1. Initial tensor loads (identical for every configuration, not
        #    charged to the kernel).
        self.dma.load_tensors(program.tensor_loads)

        # 2. Explicit data-manipulation pre-passes required by disabled
        #    features (charged to the kernel).
        self.dma.execute_prepasses(program.prepasses)

        # 3. Build one DataMaestro per port the program uses, program it
        #    through its CSR interface and bind its channels' memory ports.
        geometry = self.memory.geometry
        options = self.design.group_size_options()

        def build(port: str) -> DataMaestro:
            return DataMaestro(self.design.streamer(port), geometry, options)

        self._active_ports = program.active_ports()
        for port in self._active_ports:
            streamer = self.streamers[port] = build(port)
            self.host.program_streamer(
                streamer, program.csr_writes[port], program.features
            )
            streamer.bind(self.memory)
        self._live = [self.streamers[port] for port in self._active_ports]

        # 4. Bind and configure the accelerators.  A port the core reads but
        #    the program left unprogrammed gets an idle DataMaestro that never
        #    delivers: the kernel deadlocks against its cycle budget instead
        #    of fabricating data.
        def stream(port: str) -> DataMaestro:
            return self.streamers.get(port) or build(port)

        if self._quantizes:
            sink = self.quantizer
            self.quantizer.bind(stream("E"))
            self.quantizer.configure(program.quant_config)
        else:
            sink = stream("D")
        self.gemm_core.bind(
            a_stream=stream("A"),
            b_stream=stream("B"),
            output_sink=sink,
            c_stream=self.streamers.get("C"),
        )
        self.gemm_core.configure(program.job)

    # ------------------------------------------------------------------
    # Cycle behaviour.
    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        """True once the kernel's compute and all its streams have drained."""
        if self._program is None:
            return True
        if not self.gemm_core.done:
            return False
        if self._quantizes and self.quantizer.busy:
            return False
        return all(streamer.done for streamer in self._live)

    def step(self) -> bool:
        """Advance the whole system by one clock cycle.

        Tracks the number of state-changing events the cycle performed in
        :attr:`last_step_activity` (responses delivered, quantizer and MAC
        firings, address bundles, requests issued, crossbar grants).
        A step with zero activity is a fixpoint: nothing can change until a
        matured memory response arrives — the event engine exploits this.
        The same argument holds per streamer: one whose own cycle had zero
        activity is *parked* until the accelerator pops or pushes a word (a
        delivery decides nothing), and a drained streamer parks for good.
        """
        if self._program is None:
            return False
        memory = self.memory
        core = self.gemm_core
        streamers = self._live

        # Phase 1: the memory delivers matured reads into the data FIFOs.
        activity = memory.deliver()
        for streamer in streamers:
            if not streamer.parked:
                streamer.begin_cycle()

        # Phase 2: accelerators (quantizer first so it drains the previous
        # cycle's tile before the core produces a new one).  Popping or
        # pushing a word wakes a parked streamer.
        if self._quantizes and self.quantizer.step():
            activity += 1
        tile_before = core.tiles_completed
        if core.step():
            activity += 1

        # Phases 3 and 4, one streamer at a time (they are independent here,
        # and the list is in first-issue order): address generation and
        # request issue.  A streamer whose cycle moved nothing is parked: it
        # repeats that cycle until a pop or a push, so its phases are skipped
        # and the cycles it sits out are charged in bulk when it wakes.
        for streamer in streamers:
            if streamer.parked:
                streamer.parked_cycles += 1
                continue
            if streamer.generate_addresses():
                activity += 1
            activity += streamer.issue_requests(memory)
            streamer.parked = not streamer.cycle_activity
        activity += memory.step()

        self._cycles += 1
        self.last_step_activity = activity
        self._tile_completed = core.tiles_completed != tile_before
        return core.tiles_completed < core.output_tiles or not self.finished

    # ------------------------------------------------------------------
    # Next-event protocol (see repro.engine).
    # ------------------------------------------------------------------
    def next_event_cycle(self) -> Optional[int]:
        """Earliest future cycle at which any component can act.

        At a zero-activity fixpoint every streamer, the GeMM core and the
        quantizer are combinationally blocked, so the only *timed* event
        source is the memory subsystem's in-flight responses; the component
        queries are kept for protocol completeness and as a safety net.
        ``None`` means nothing will ever happen again (deadlock).
        """
        if self._program is None:
            return None
        now = self._cycles
        earliest = self.memory.next_event_cycle()
        for streamer in self._live:
            if streamer.done:
                continue
            event = streamer.next_event_cycle(now)
            if event is not None and (earliest is None or event < earliest):
                earliest = event
        if self._quantizes:
            event = self.quantizer.next_event_cycle(now)
            if event is not None and (earliest is None or event < earliest):
                earliest = event
        event = self.gemm_core.next_event_cycle(now)
        if event is not None and (earliest is None or event < earliest):
            earliest = event
        return earliest

    def advance(self, cycles: int) -> None:
        """Bulk-apply ``cycles`` provably inactive cycles.

        Replicates exactly what lockstep stepping across the span would have
        recorded: the clock moves, and every stalled component accumulates
        its per-cycle stall counters (GeMM stalls, quantizer stalls,
        streamer credit stalls).  No data moves — the caller guarantees
        the span contains no activity.
        """
        if self._program is None or cycles <= 0:
            return
        self._cycles += cycles
        self.memory.advance(cycles)
        for streamer in self._live:
            streamer.advance(cycles)
        if self._quantizes:
            self.quantizer.advance(cycles)
        self.gemm_core.advance(cycles)

    # ------------------------------------------------------------------
    # Macro-step protocol (see repro.engine.steady).
    # ------------------------------------------------------------------
    def steady_span(self, limit: int) -> int:
        """Cycles the system can bulk-advance from a steady-state boundary.

        Returns ``0`` except right after a step that completed an output
        tile whose surrounding schedule is a verified periodic steady state
        (see :mod:`repro.engine.steady`), and at the end of a jump that
        ``MAX_ROWS`` capped, where the next span chains.  A non-zero return
        stages a plan; the caller must follow up with :meth:`advance_active`
        for exactly that many cycles.  ``limit`` caps the span (budget
        remaining).
        """
        if not self._tile_completed or self._program is None:
            return 0
        if self._steady is None:
            # Created on first use so lockstep-only runs never pay for the
            # planner (repro.engine.steady) at all.
            from ..engine.steady import SteadySpanPlanner

            self._steady = SteadySpanPlanner(
                self.memory,
                self.gemm_core,
                self._live,
                self.quantizer if self._quantizes else None,
            )
        # The planner reads the streamer counters: charge parked cycles.
        for streamer in self._live:
            streamer.settle()
        return self._steady.boundary(limit)

    def advance_active(self, cycles: int) -> None:
        """Bulk-apply the steady span staged by :meth:`steady_span`.

        The replay rebuilds every queue, so no streamer stays parked.
        """
        assert self._steady is not None
        self._steady.advance_active(cycles)
        self._cycles += cycles
        for streamer in self._live:
            streamer.wake()

    def steady_stats(self) -> Dict[str, object]:
        """Observability counters of the macro-step fast path."""
        if self._steady is None:
            return {}
        return self._steady.stats.as_dict()

    # ------------------------------------------------------------------
    # Whole-kernel execution.
    # ------------------------------------------------------------------
    def run(
        self,
        program: KernelProgram,
        max_cycles: int = DEFAULT_CYCLE_BUDGET,
        engine: str = DEFAULT_ENGINE,
        progress_callback=None,
        progress_interval: int = DEFAULT_PROGRESS_INTERVAL,
    ) -> SimulationResult:
        """Execute a compiled kernel and return its simulation result.

        ``engine`` selects the simulation loop: ``"event"`` (the default
        next-event scheduler) or ``"lockstep"`` (the legacy per-cycle loop).
        A pre-built :class:`~repro.engine.base.SimulationEngine` instance is
        also accepted (the parity tests use this to run the event
        scheduler with macro-stepping disabled).  All variants produce
        identical results; see ``docs/ENGINE.md``.

        ``progress_callback`` (called with the current cycle count roughly
        every ``progress_interval`` simulated cycles) taps the engines'
        cooperative yield points — the simulation service streams these as
        ``progress`` events (``docs/SERVE.md``); bulk advances that cross
        an interval boundary report once with the post-jump count.
        """
        self.load_program(program)
        driver = get_engine(engine) if isinstance(engine, str) else engine
        driver.drive(
            self,
            max_cycles=max_cycles,
            describe=f"kernel {program.name!r}",
            detail=self.deadlock_report,
            progress_callback=progress_callback,
            progress_interval=progress_interval,
        )

        streamer_stats = {
            port: self.streamers[port].statistics(self.memory)
            for port in self._active_ports
        }
        counters = {
            "gemm_mac_cycles": self.gemm_core.mac_cycles,
            "gemm_stall_cycles": self.gemm_core.stall_cycles,
            "quantizer_tiles": self.quantizer.tiles_processed,
            "csr_writes": self.host.statistics()["csr_writes_issued"],
            "dma_load_cycles": self.dma.load_cycles,
        }
        # Imported here (not at module level) to keep the compiler <-> system
        # import graph acyclic: the mapper only needs the system *design*.
        from ..compiler.mapper import extract_outputs

        outputs = extract_outputs(program, self.memory)
        result = SimulationResult(
            workload_name=program.name,
            ideal_compute_cycles=program.ideal_compute_cycles,
            streaming_cycles=self._cycles,
            prepass_cycles=program.prepass_cycles,
            memory_reads=self.memory.total_reads,
            memory_writes=self.memory.total_writes,
            bank_conflicts=self.memory.total_conflicts,
            streamer_stats=streamer_stats,
            counters=counters,
            outputs=outputs,
            metadata={
                "features": program.features.as_dict(),
                "workload_group": program.workload.group.value,
                "tiles": (
                    program.job.tiles_m,
                    program.job.tiles_n,
                    program.job.tiles_k,
                ),
                "active_ports": list(self._active_ports),
                "engine": engine if isinstance(engine, str) else driver.name,
            },
        )
        return result

    # ------------------------------------------------------------------
    def deadlock_report(self) -> str:
        """Short description of what is still pending (for error messages)."""
        parts = [f"core tiles done={self.gemm_core.statistics()['tiles_completed']}"]
        for port in self._active_ports:
            streamer = self.streamers[port]
            parts.append(
                f"{port}: bundles={streamer.bundles_generated}/"
                f"{streamer.total_bundles} "
                f"words={streamer.words_streamed} busy={streamer.busy}"
            )
        return "; ".join(parts)

    def verify_outputs(self, result: SimulationResult) -> bool:
        """Compare the simulated outputs against the program's numpy oracle."""
        if self._program is None:
            raise RuntimeError("no program has been run")
        import numpy as np

        for name, expected in self._program.expected_outputs.items():
            actual = result.outputs.get(name)
            if actual is None or not np.array_equal(actual, expected):
                return False
        return True
