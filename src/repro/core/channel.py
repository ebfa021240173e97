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

A memory word is one :class:`~repro.memory.subsystem.MemoryRequest` for its
whole life: the AGU queues it in the address FIFO, the issue phase moves the
same object to the memory port, and the granted request comes back as its
own response.

This fine-grained, per-channel request issue is what the paper calls
fine-grained prefetch: each channel runs ahead independently, so a bank
conflict on one channel does not stall the others, and the data FIFOs absorb
the resulting jitter.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..memory.subsystem import MemoryPort, MemoryRequest
from ..sim.fifo import Fifo
from .params import StreamerDesign, StreamerMode


class StreamChannel:
    """One memory-interaction channel of a DataMaestro: its state and rules.

    The per-cycle phases run as one flat loop per streamer
    (:meth:`DataMaestro.collect_responses`, ``generate_addresses``,
    ``issue_requests``); the channel holds what they move — the two FIFOs,
    the in-flight count and the counters — and states the credit rule once
    (:meth:`can_issue`).
    """

    def __init__(self, streamer_name: str, index: int, design: StreamerDesign) -> None:
        self.streamer_name = streamer_name
        self.index = index
        self.design = design
        self.requester_id = f"{streamer_name}.ch{index}"
        self.is_read = design.mode is StreamerMode.READ
        #: The words the AGU has addressed, as the requests they will become.
        self.address_fifo: Fifo[MemoryRequest] = Fifo(
            design.address_buffer_depth, name=f"{self.requester_id}.addr"
        )
        self.data_fifo: Fifo[np.ndarray] = Fifo(
            design.data_buffer_depth, name=f"{self.requester_id}.data"
        )
        self.outstanding = 0
        self.requests_issued = 0
        self.responses_received = 0
        self.credit_stall_cycles = 0
        #: This channel's port in the memory its streamer last stepped
        #: against (:meth:`DataMaestro.bind`), resolved once per kernel.
        self.port: Optional[MemoryPort] = None

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """True while the channel still holds work in any stage."""
        return bool(
            self.address_fifo.entries or self.data_fifo.entries or self.outstanding
        )

    def reset(self) -> None:
        """Empty the channel and zero its counters for a new kernel launch.

        ``requests_granted`` / ``bank_conflict_retries`` are not here: they
        are counted by the memory port and follow
        :meth:`MemorySubsystem.reset_statistics`.
        """
        self.address_fifo.reset()
        self.data_fifo.reset()
        self.outstanding = 0
        self.requests_issued = 0
        self.responses_received = 0
        self.credit_stall_cycles = 0
        self.port = None

    # ------------------------------------------------------------------
    # Outstanding Request Manager: the credit rule.
    # ------------------------------------------------------------------
    @property
    def credit_stalled(self) -> bool:
        """A read channel holding an address but no free data-FIFO slot.

        Every in-flight read owns a slot, so a response never finds its FIFO
        full; a channel in this state counts one ``credit_stall_cycles`` per
        cycle.
        """
        fifo = self.data_fifo
        return bool(
            self.is_read
            and self.address_fifo.entries
            and fifo.depth - len(fifo.entries) <= self.outstanding
        )

    def can_issue(self) -> bool:
        """Whether the MIC could issue a request this cycle (mode-aware).

        When it cannot, the channel is waiting on an external input (a credit
        freed by a memory response, an address from the AGU, or data from the
        accelerator), each reported by the component that produces it.
        """
        if not self.address_fifo.entries:
            return False
        if self.is_read:
            return not self.credit_stalled
        return bool(self.data_fifo.entries)

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
