"""The per-streamer summary a simulation result carries.

Each cycle-level component counts in plain integer attributes of its own;
:class:`StreamerStats` gathers one streamer's at the end of a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class StreamerStats:
    """Per-streamer summary extracted at the end of a simulation."""

    name: str
    words_streamed: int = 0
    requests_issued: int = 0
    requests_granted: int = 0
    bank_conflict_retries: int = 0
    stall_cycles: int = 0
    active_cycles: int = 0
    extension_words: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, int]:
        data = {
            "words_streamed": self.words_streamed,
            "requests_issued": self.requests_issued,
            "requests_granted": self.requests_granted,
            "bank_conflict_retries": self.bank_conflict_retries,
            "stall_cycles": self.stall_cycles,
            "active_cycles": self.active_cycles,
        }
        for key, value in self.extension_words.items():
            data[f"extension_{key}"] = value
        return data

