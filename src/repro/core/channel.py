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

The address FIFO is not stored: it holds ``bundles_generated -
requests_issued`` entries, and entry ``i`` is row ``i`` of the streamer's
decoded address window.  Nor is the in-flight count: the memory delivers
into the data FIFO itself and counts (``port.delivered``), so ``outstanding``
is ``requests_issued - port.delivered`` (see :mod:`repro.core.streamer` for
the three identities).

This fine-grained, per-channel request issue is what the paper calls
fine-grained prefetch: each channel runs ahead independently, so a bank
conflict on one channel does not stall the others, and the data FIFOs absorb
the resulting jitter.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..memory.subsystem import MemoryPort
from ..sim.fifo import Fifo
from .params import StreamerDesign


class StreamChannel:
    """One memory-interaction channel of a DataMaestro: its state.

    The per-cycle phases run as one flat loop per streamer
    (``generate_addresses``, ``issue_requests``) and the rules that need the
    streamer's counters are stated there (:meth:`DataMaestro.credit_stalled`,
    ``can_issue``); the channel holds what they move — the data FIFO, the
    issue cursor and the counters.  It lives for one kernel launch:
    :meth:`DataMaestro.configure` builds the kernel's active channels fresh.
    ``requests_granted`` / ``bank_conflict_retries`` are not here: they are
    counted by the memory port and follow
    :meth:`MemorySubsystem.reset_statistics`.
    """

    def __init__(self, streamer_name: str, index: int, design: StreamerDesign) -> None:
        self.requester_id = f"{streamer_name}.ch{index}"
        self.data_fifo: Fifo[np.ndarray] = Fifo(
            design.data_buffer_depth, name=f"{self.requester_id}.data"
        )
        #: Requests issued so far — also the step of the next address to issue.
        self.requests_issued = 0
        self.credit_stall_cycles = 0
        #: Sampled before each issue and by
        #: :meth:`DataMaestro.channel_statistics` (the FIFO only grows between).
        self.max_addr_occupancy = 0
        #: This channel's port in the memory its streamer last stepped
        #: against (:meth:`DataMaestro.bind`), resolved once per kernel.
        self.port: Optional[MemoryPort] = None

    # ------------------------------------------------------------------
    @property
    def responses_received(self) -> int:
        """Reads and write acknowledgements the memory has delivered."""
        return self.port.delivered if self.port is not None else 0

    @property
    def outstanding(self) -> int:
        """Requests issued and not yet delivered."""
        return self.requests_issued - self.responses_received

    def statistics(self) -> dict:
        return {
            "requests_issued": self.requests_issued,
            "responses_received": self.responses_received,
            "credit_stall_cycles": self.credit_stall_cycles,
            "max_data_occupancy": self.data_fifo.max_occupancy,
            "max_addr_occupancy": self.max_addr_occupancy,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StreamChannel({self.requester_id}, issued={self.requests_issued}, "
            f"outstanding={self.outstanding}, data={self.data_fifo.occupancy})"
        )
