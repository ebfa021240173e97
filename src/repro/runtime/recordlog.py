"""Append-only JSON-lines record log: the file discipline under both journals.

The exploration journal (``RunJournal``: checkpoints) and the cluster's
job journal (``JobJournal``: the durable backlog) are codecs over this one
log.  What lives here, once:

* the **header line** — ``{"type": "header", "format": N, ...}`` first in
  the file, checked on every load (a missing, garbled or foreign-format
  header is unusable, never guessed at);
* **append** — one JSON object per line, flushed *and* fsynced, so a
  record that ``append`` returned from survives a power cut;
* the **truncated-tail rule** — a crash mid-append can only damage the
  final line, so an unparseable *final* line is dropped and counted while
  an unparseable *middle* line is damage and raises;
* **atomic rewrite** — a fresh log, a repair and a compaction all stage
  the new file beside the old one, fsync it, ``os.replace`` it into place
  (the write-then-rename discipline of
  :meth:`repro.runtime.cache.ResultCache.put`) and fsync the directory, so
  a crash or a power cut during the write leaves either the original (or
  no file) or the whole new file, never an empty one.

"Unparseable" includes a line that is valid JSON but that the journal's
``decode`` rejects: the codec's own validation rides inside the same rule.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Tuple, Type, TypeVar, Union

__all__ = ["RecordLog"]

T = TypeVar("T")

Record = Dict[str, object]


def _line(record: Record) -> str:
    return json.dumps(record, sort_keys=True) + "\n"


class RecordLog:
    """One JSONL file: header, durable appends, tail repair, atomic rewrite.

    ``error`` is the owning journal's exception type (a ``ValueError``
    subclass), raised for every "this file cannot be used" condition so
    callers keep catching the journal's own typed error.
    """

    def __init__(
        self, path: Union[str, Path], format: int, error: Type[ValueError]
    ) -> None:
        self.path = Path(path)
        self.format = format
        self.error = error

    def exists(self) -> bool:
        return self.path.is_file() and self.path.stat().st_size > 0

    def _header_line(self, header: Record) -> str:
        return _line({**header, "type": "header", "format": self.format})

    # ------------------------------------------------------------------
    # Writing.
    # ------------------------------------------------------------------
    def start(self, header: Record) -> None:
        """Begin a fresh log (replaces any previous file), durably: it is
        an atomic :meth:`rewrite` with no records."""
        self.rewrite(header, ())

    def append(self, record: Record) -> None:
        """Append one record; durable once this returns."""
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(_line(record))
            handle.flush()
            os.fsync(handle.fileno())

    def rewrite(self, header: Record, records: Iterable[Record]) -> None:
        """Replace the whole file atomically (temp file + rename)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{self.path.name}-", suffix=".tmp", dir=str(self.path.parent)
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(self._header_line(header))
                for record in records:
                    handle.write(_line(record))
                # The data reaches the disk before the rename can.
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        # And the rename itself: it lives in the directory's entries.
        directory = os.open(self.path.parent, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)

    # ------------------------------------------------------------------
    # Reading.
    # ------------------------------------------------------------------
    def load(
        self, decode: Callable[[Record, Record], T]
    ) -> Tuple[Record, List[T], int]:
        """Parse the file into ``(header, decoded records, dropped lines)``.

        ``decode(record, header)`` turns one parsed line into the journal's
        own object; any ``ValueError`` / ``KeyError`` / ``TypeError`` /
        ``AttributeError`` it raises marks the line unparseable.
        """
        if not self.exists():
            raise self.error(f"journal {self.path} does not exist or is empty")
        lines = self.path.read_text(encoding="utf-8").splitlines()
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as error:
            raise self.error(f"journal {self.path}: unreadable header") from error
        if not isinstance(header, dict) or header.get("type") != "header":
            raise self.error(f"journal {self.path}: first line is not a header")
        if header.get("format") != self.format:
            raise self.error(
                f"journal {self.path}: format {header.get('format')!r} "
                f"!= {self.format}"
            )
        records: List[T] = []
        dropped = 0
        for position, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                records.append(decode(json.loads(line), header))
            except (ValueError, KeyError, TypeError, AttributeError):
                if position == len(lines):
                    # Interrupted mid-append: drop the partial final record.
                    dropped += 1
                    continue
                raise self.error(
                    f"journal {self.path}: unreadable record on line {position}"
                )
        return header, records, dropped
