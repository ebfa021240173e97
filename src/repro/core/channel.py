"""Per-channel Memory Interface Controller and FIFOs (paper §III-C, Fig. 2(b)).

A DataMaestro splits one wide accelerator word into ``N_C`` narrow channels,
each the width of one memory bank word.  Every channel has:

* an **address FIFO** fed by the AGU (depth ``D_ABf``);
* a **data FIFO** decoupling memory responses from the accelerator
  (depth ``D_DBf``);
* a **Memory Interface Controller** made of the *Request Side Controller*
  (issues requests as soon as an address and a credit are available) and the
  *Outstanding Request Manager* (reserves data-FIFO slots for in-flight
  requests so a response never finds its FIFO full).

In this model both issue conditions are streamer-wide — the address is the
streamer's next bundle and the credit limit is ``words_streamed + D_DBf`` —
so a streamer's channels issue together, and the issue cursor
(``requests_issued``), the credit stalls and the address-FIFO high-water mark
are the streamer's (:mod:`repro.core.streamer` states the three identities).
The channels diverge at the crossbar: each has its own port, so a bank
conflict delays one channel's grant and retries while the others are served,
and its data FIFO absorbs the jitter.  What is stored here is what differs
per channel: the requester name, the data FIFO and the port, which counts
grants, retries and deliveries.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..memory.subsystem import MemoryPort
from ..sim.fifo import Fifo
from .params import StreamerDesign


class StreamChannel:
    """One memory-interaction channel of a DataMaestro: its per-channel state.

    It lives for one kernel launch: :meth:`DataMaestro.configure` builds the
    kernel's active channels fresh.  The port's counters follow
    :meth:`MemorySubsystem.reset_statistics`.
    """

    def __init__(self, streamer_name: str, index: int, design: StreamerDesign) -> None:
        self.requester_id = f"{streamer_name}.ch{index}"
        self.data_fifo: Fifo[np.ndarray] = Fifo(
            design.data_buffer_depth, name=f"{self.requester_id}.data"
        )
        #: This channel's port in the memory its streamer last stepped
        #: against (:meth:`DataMaestro.bind`), resolved once per kernel.
        self.port: Optional[MemoryPort] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StreamChannel({self.requester_id}, data={self.data_fifo.occupancy})"
