"""Statistics counters shared by all cycle-level components.

The simulator is organised around plain Python objects that are stepped once
per clock cycle.  Rather than every component inventing its own ad-hoc
dictionaries, they all record events into a :class:`StatCounters` instance.
The counters are intentionally simple — named integer counters plus a couple
of convenience helpers — so they can be merged, diffed and rendered in the
experiment reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable


class StatCounters:
    """A bag of named integer counters.

    Counters spring into existence at first use, which keeps the component
    code free from boilerplate while still producing a complete picture at
    the end of a run.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}

    def add(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        self._counters[name] = self._counters.get(name, 0) + int(amount)

    def set(self, name: str, value: int) -> None:
        """Overwrite counter ``name`` with ``value``."""
        self._counters[name] = int(value)

    def get(self, name: str, default: int = 0) -> int:
        """Return the value of counter ``name`` (``default`` if unset)."""
        return self._counters.get(name, default)

    def merge(self, other: "StatCounters") -> None:
        """Add every counter of ``other`` into this instance."""
        for name, value in other._counters.items():
            self.add(name, value)

    def as_dict(self) -> Dict[str, int]:
        """Return a copy of all counters."""
        return dict(self._counters)

    def names(self) -> Iterable[str]:
        return self._counters.keys()

    def reset(self) -> None:
        self._counters.clear()

    def __contains__(self, name: str) -> bool:
        return name in self._counters

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._counters.items()))
        return f"StatCounters({inner})"


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

