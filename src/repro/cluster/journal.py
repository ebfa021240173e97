"""Durable job journal: the cluster's crash-safe backlog.

The journal makes the sharded service's queue *durable*: every accepted
job is recorded before it is dispatched, every completion is recorded when
its outcome settles, and a restarted daemon replays the difference — jobs
submitted but never completed are resubmitted, jobs already completed are
served from the journal (or the shared result cache) without touching a
worker.

The file is a :class:`repro.runtime.recordlog.RecordLog` — the same
append-only JSON-lines log under :class:`repro.explore.journal.RunJournal`:
a header line, fsynced appends, a crash mid-append at worst truncates the
final line, and :meth:`JobJournal.resume` rewrites the file atomically, so
a crash during the repair itself can never lose a record either.

Record types after the header line:

* ``{"type": "submitted", "key": <job hash>, "job": <base64 pickle>,
  "workload": ..., "backend": ...}`` — the pickled job rides along so a
  restart can rebuild and resubmit it without the original caller;
* ``{"type": "completed", "key": <job hash>}`` — plus an ``"outcome"``
  base64 pickle when the cluster runs cache-less (with a shared result
  cache the outcome is already durable there, and the journal stays slim).

Resume compacts: completed work whose outcome is durable elsewhere is
dropped from the rewritten journal, so the file tracks the live backlog
instead of growing monotonically across restarts.  A journal written by a
different package version drops its pickled payloads (they may not
unpickle) and resubmits everything unfinished — safe, at worst wasteful.
"""

from __future__ import annotations

import base64
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from .. import __version__
from ..runtime.job import SimJob
from ..runtime.outcome import SimOutcome
from ..runtime.recordlog import RecordLog

__all__ = [
    "JOB_JOURNAL_FORMAT",
    "JobJournal",
    "JobJournalContents",
    "JobJournalError",
]

#: Journal format version; bump on incompatible record changes.
JOB_JOURNAL_FORMAT = 1


class JobJournalError(ValueError):
    """The journal file cannot be used (bad header, wrong format)."""


def _pickled(obj: object) -> str:
    return base64.b64encode(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def _unpickled(text: object, expected: type, foreign: bool):
    """The payload as an ``expected`` instance, or ``None`` when it is
    absent, was written by another package version, or is a stale pickle."""
    if text is None or foreign:
        return None
    try:
        decoded = pickle.loads(base64.b64decode(str(text).encode("ascii")))
    except Exception:  # noqa: BLE001 — stale pickle
        return None
    return decoded if isinstance(decoded, expected) else None


def _submission(key: str, job: SimJob) -> Dict[str, object]:
    return {
        "type": "submitted",
        "key": key,
        "workload": job.workload.name,
        "backend": job.backend,
        "job": _pickled(job),
    }


def _completion(key: str, outcome: Optional[SimOutcome]) -> Dict[str, object]:
    record: Dict[str, object] = {"type": "completed", "key": key}
    if outcome is not None:
        record["outcome"] = _pickled(outcome)
    return record


def _decode(
    record: Dict[str, object], header: Dict[str, object]
) -> Tuple[str, str, object]:
    foreign = header.get("package_version") != __version__
    kind = record.get("type")
    if kind == "submitted":
        return kind, str(record["key"]), _unpickled(record["job"], SimJob, foreign)
    if kind == "completed":
        payload = _unpickled(record.get("outcome"), SimOutcome, foreign)
        return kind, str(record["key"]), payload
    raise ValueError(f"unknown record type {kind!r}")


@dataclass
class JobJournalContents:
    """Parsed journal state: what was accepted, what finished."""

    header: Dict[str, object]
    #: job hash -> SimJob (``None`` when the pickle could not be decoded).
    submitted: Dict[str, Optional[SimJob]] = field(default_factory=dict)
    #: job hash -> journaled outcome (``None`` when durable in the cache).
    completed: Dict[str, Optional[SimOutcome]] = field(default_factory=dict)
    dropped_lines: int = 0
    undecodable_jobs: int = 0

    def unfinished(self) -> Dict[str, SimJob]:
        """Jobs accepted but never completed, ready for resubmission.

        Submissions whose pickled job failed to decode (foreign package
        version) are excluded — they are counted in ``undecodable_jobs``
        and cannot be replayed.
        """
        return {
            key: job
            for key, job in self.submitted.items()
            if key not in self.completed and job is not None
        }


class JobJournal:
    """Append-only JSONL record of cluster submissions and completions.

    A codec over :class:`~repro.runtime.recordlog.RecordLog`, which owns
    the header check, the durable append, the truncated-tail rule and the
    atomic rewrite.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._log = RecordLog(self.path, JOB_JOURNAL_FORMAT, JobJournalError)

    def exists(self) -> bool:
        return self._log.exists()

    def start(self, header: Optional[Dict[str, object]] = None) -> None:
        """Begin a fresh journal (truncates any previous file)."""
        self._log.start({"package_version": __version__, **(header or {})})

    def record_submission(self, key: str, job: SimJob) -> None:
        """Journal one accepted job before it is dispatched to a shard."""
        self._log.append(_submission(key, job))

    def record_completion(
        self, key: str, outcome: Optional[SimOutcome] = None
    ) -> None:
        """Journal one settled job; ``outcome`` rides along when the
        cluster has no shared result cache to keep it durable."""
        self._log.append(_completion(key, outcome))

    def load(self) -> JobJournalContents:
        """Parse the journal, tolerating a truncated/garbled trailing line."""
        header, records, dropped = self._log.load(_decode)
        contents = JobJournalContents(header=header, dropped_lines=dropped)
        for kind, key, payload in records:
            if kind == "submitted":
                contents.submitted[key] = payload
                contents.undecodable_jobs += payload is None
            else:
                contents.completed[key] = payload
        return contents

    def resume(self) -> JobJournalContents:
        """Load for a daemon restart: repair the tail, compact, return state.

        The rewritten journal keeps the header, every unfinished
        submission, and completed records that still carry their outcome
        (cache-less clusters).  Completed work durable in the result cache
        is compacted away.
        """
        contents = self.load()
        records = [
            _submission(key, job) for key, job in contents.unfinished().items()
        ] + [
            _completion(key, outcome)
            for key, outcome in contents.completed.items()
            if outcome is not None
        ]
        header = {**contents.header, "package_version": __version__}
        self._log.rewrite(header, records)
        contents.dropped_lines = 0
        return contents
