"""JSONL run journal: checkpointing and resume for exploration runs.

The journal is an append-only JSON-lines file.  The first line is a header
describing the run configuration (space digest, strategy, seed, objectives,
workload digests, package version); every further line records one completed
candidate evaluation (assignment, metrics, job hashes).  The file discipline
— durable appends, "an unparseable final line is a crash artefact, drop it",
atomic repair — is :class:`repro.runtime.recordlog.RecordLog`'s; this module
is the evaluation codec and the resume contract.

Resume contract: the engine replays journaled evaluations instead of
re-simulating them, but only when the header matches the current run
configuration exactly — a changed space, strategy, seed or objective list
raises :class:`JournalMismatchError` rather than silently mixing runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..runtime.recordlog import RecordLog
from .objectives import Evaluation
from .space import Candidate

#: Journal format version; bump on incompatible record changes.
JOURNAL_FORMAT = 1


class JournalError(ValueError):
    """The journal file cannot be used at all (bad header, wrong format)."""


class JournalMismatchError(JournalError):
    """The journal belongs to a different run configuration."""


@dataclass
class JournalContents:
    """Parsed journal: the header plus every readable evaluation record."""

    header: Dict[str, object]
    evaluations: List[Evaluation] = field(default_factory=list)
    dropped_lines: int = 0


def _encode(evaluation: Evaluation) -> Dict[str, object]:
    return {
        "type": "evaluation",
        "candidate": evaluation.candidate.as_dict(),
        "metrics": evaluation.metrics,
        "job_hashes": evaluation.job_hashes,
    }


def _decode(record: Dict[str, object], _header: Dict[str, object]) -> Evaluation:
    if record.get("type") != "evaluation":
        raise ValueError("not an evaluation record")
    return Evaluation(
        candidate=Candidate.from_dict(record["candidate"]),
        metrics={str(k): float(v) for k, v in record["metrics"].items()},
        job_hashes=[str(h) for h in record.get("job_hashes", [])],
        from_journal=True,
    )


class RunJournal:
    """Append-only JSONL checkpoint of one exploration run.

    A codec over :class:`~repro.runtime.recordlog.RecordLog`, which owns
    the header check, the durable append, the truncated-tail rule and the
    atomic rewrite.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._log = RecordLog(self.path, JOURNAL_FORMAT, JournalError)

    def exists(self) -> bool:
        return self._log.exists()

    def start(self, header: Dict[str, object]) -> None:
        """Begin a fresh journal (truncates any previous file)."""
        self._log.start(header)

    def append(self, evaluation: Evaluation) -> None:
        """Append one evaluation record, durable on return."""
        self._log.append(_encode(evaluation))

    def load(self) -> JournalContents:
        """Parse the journal, tolerating a truncated/garbled trailing line."""
        header, evaluations, dropped = self._log.load(_decode)
        return JournalContents(header, evaluations, dropped)

    def resume(self, header: Dict[str, object]) -> JournalContents:
        """Load for resumption, verifying the header matches ``header``.

        If the previous run died mid-append, the partial trailing line is
        dropped *and* the file is atomically rewritten without it, so that
        records appended by the resumed run start on a clean line and a
        crash *during the repair itself* cannot lose any evaluation.
        """
        contents = self.load()
        if contents.dropped_lines:
            self._log.rewrite(
                contents.header, (_encode(e) for e in contents.evaluations)
            )
            contents.dropped_lines = 0
        mismatched = {
            key: (contents.header.get(key), value)
            for key, value in header.items()
            if contents.header.get(key) != value
        }
        if mismatched:
            details = ", ".join(
                f"{key}: journal={old!r} vs run={new!r}"
                for key, (old, new) in sorted(mismatched.items())
            )
            raise JournalMismatchError(
                f"journal {self.path} belongs to a different run ({details})"
            )
        return contents

    def evaluation_map(
        self, contents: Optional[JournalContents] = None
    ) -> Dict[str, Evaluation]:
        """Journaled evaluations keyed by candidate key (first wins)."""
        contents = contents or self.load()
        replayed: Dict[str, Evaluation] = {}
        for evaluation in contents.evaluations:
            replayed.setdefault(evaluation.candidate.key(), evaluation)
        return replayed
