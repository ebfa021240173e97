"""Per-channel Memory Interface Controller and FIFOs (paper §III-C, Fig. 2(b)).

A DataMaestro splits one wide accelerator word into ``N_C`` narrow channels,
each the width of one memory bank word.  Every channel owns:

* an **address FIFO** fed by the AGU (depth ``D_ABf``);
* a **data FIFO** decoupling memory responses from the accelerator
  (depth ``D_DBf``);
* a **Memory Interface Controller** made of the *Request Side Controller*
  (issues requests as soon as an address and a credit are available) and the
  *Outstanding Request Manager* (reserves data-FIFO slots for in-flight
  requests so a response never finds its FIFO full).

This fine-grained, per-channel request issue is what the paper calls
fine-grained prefetch: each channel runs ahead independently, so a bank
conflict on one channel does not stall the others, and the data FIFOs absorb
the resulting jitter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..memory.addressing import BankLocation
from ..memory.subsystem import MemoryPort, MemoryRequest, MemorySubsystem
from ..sim.fifo import Fifo
from .params import StreamerDesign, StreamerMode


@dataclass(slots=True)
class ChannelAddress:
    """One decoded address queued for a channel."""

    logical: int
    location: BankLocation
    step: int


class StreamChannel:
    """One memory-interaction channel of a DataMaestro."""

    def __init__(self, streamer_name: str, index: int, design: StreamerDesign) -> None:
        self.streamer_name = streamer_name
        self.index = index
        self.design = design
        self.requester_id = f"{streamer_name}.ch{index}"
        self.is_read = design.mode is StreamerMode.READ
        self.address_fifo: Fifo[ChannelAddress] = Fifo(
            design.address_buffer_depth, name=f"{self.requester_id}.addr"
        )
        self.data_fifo: Fifo[np.ndarray] = Fifo(
            design.data_buffer_depth, name=f"{self.requester_id}.data"
        )
        self.outstanding = 0
        self.requests_issued = 0
        self.responses_received = 0
        self.credit_stall_cycles = 0
        self._memory: Optional[MemorySubsystem] = None
        self._port: Optional[MemoryPort] = None

    # ------------------------------------------------------------------
    def bind(self, memory: MemorySubsystem) -> MemoryPort:
        """This channel's port in ``memory``, resolved once per kernel."""
        if self._memory is not memory:
            self._memory = memory
            self._port = memory.bind(self.requester_id)
        return self._port

    @property
    def busy(self) -> bool:
        """True while the channel still holds work in any stage."""
        return (
            not self.address_fifo.is_empty
            or not self.data_fifo.is_empty
            or self.outstanding > 0
        )

    def reset(self) -> None:
        """Clear FIFOs and in-flight bookkeeping between kernels."""
        self.address_fifo.clear()
        self.data_fifo.clear()
        self.outstanding = 0
        self._memory = None

    # ------------------------------------------------------------------
    # Outstanding Request Manager: credit computation.
    # ------------------------------------------------------------------
    @property
    def read_credits(self) -> int:
        """Data-FIFO slots not yet reserved by in-flight read requests."""
        return self.data_fifo.free_slots - self.outstanding

    def can_issue_read(self) -> bool:
        return not self.address_fifo.is_empty and self.read_credits > 0

    def can_issue_write(self) -> bool:
        return not self.address_fifo.is_empty and not self.data_fifo.is_empty

    def can_issue(self) -> bool:
        """Whether the MIC could issue a request this cycle (mode-aware)."""
        return self.can_issue_read() if self.is_read else self.can_issue_write()

    # ------------------------------------------------------------------
    # Next-event protocol (see repro.engine).
    # ------------------------------------------------------------------
    def next_event_cycle(self, now: int) -> Optional[int]:
        """``now`` when the MIC can issue a request, else ``None``.

        A channel has no timed events of its own: when it cannot issue it is
        waiting on an external input (a credit freed by a memory response, an
        address from the AGU, or data from the accelerator), each of which is
        reported by the component that produces it.
        """
        return now if self.can_issue() else None

    def advance(self, cycles: int) -> None:
        """Bulk-apply ``cycles`` skipped cycles to the stall counters.

        Mirrors what :meth:`issue` would have recorded had it been called
        once per cycle across an inactive span: a read channel holding
        addresses but no Outstanding-Request-Manager credits counts a credit
        stall every cycle.
        """
        if self.is_read and not self.address_fifo.is_empty and self.read_credits <= 0:
            self.credit_stall_cycles += cycles

    # ------------------------------------------------------------------
    # Request Side Controller: per-cycle issue.
    # ------------------------------------------------------------------
    def issue(self, memory: MemorySubsystem) -> bool:
        """Issue at most one memory request this cycle; return True if issued."""
        if not self.address_fifo.entries:
            return False
        data_fifo = self.data_fifo
        data = None
        if self.is_read:
            # Outstanding Request Manager: every in-flight read owns a slot.
            if data_fifo.depth - len(data_fifo.entries) <= self.outstanding:
                self.credit_stall_cycles += 1
                return False
        elif not data_fifo.entries:
            return False
        else:
            data = data_fifo.pop()
        entry = self.address_fifo.pop()
        location = entry.location
        memory.submit(
            MemoryRequest(
                self.requester_id,
                not self.is_read,
                location.bank,
                location.line,
                data,
                None,
                entry.step,
                0,
                self.bind(memory),
            )
        )
        self.outstanding += 1
        self.requests_issued += 1
        return True

    def collect(self, memory: MemorySubsystem) -> int:
        """Drain matured responses; return the number collected."""
        responses = memory.collect(self.bind(memory))
        for response in responses:
            if not response.is_write:
                # The ORM reserved a slot when the request was issued, so a
                # full FIFO here would indicate a protocol bug.
                self.data_fifo.push(response.data)
        self.outstanding -= len(responses)
        self.responses_received += len(responses)
        return len(responses)

    # ------------------------------------------------------------------
    # Streamer-facing data movement.
    # ------------------------------------------------------------------
    def push_address(self, address: ChannelAddress) -> None:
        self.address_fifo.push(address)

    def output_word_available(self) -> bool:
        """Read mode: data ready for the accelerator."""
        return not self.data_fifo.is_empty

    def pop_output_word(self) -> np.ndarray:
        return self.data_fifo.pop()

    def input_space_available(self) -> bool:
        """Write mode: room for one more word from the accelerator."""
        return not self.data_fifo.is_full

    def push_input_word(self, data: np.ndarray) -> None:
        self.data_fifo.push(np.asarray(data, dtype=np.uint8))

    def statistics(self) -> dict:
        return {
            "requests_issued": self.requests_issued,
            "responses_received": self.responses_received,
            "credit_stall_cycles": self.credit_stall_cycles,
            "max_data_occupancy": self.data_fifo.max_occupancy,
            "max_addr_occupancy": self.address_fifo.max_occupancy,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StreamChannel({self.requester_id}, outstanding={self.outstanding}, "
            f"addr={self.address_fifo.occupancy}, data={self.data_fifo.occupancy})"
        )
