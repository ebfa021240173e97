"""The record log's file discipline, tested once for both journals.

:class:`repro.runtime.recordlog.RecordLog` owns the header check, the
truncated-tail rule and the atomic rewrite; ``RunJournal`` and
``JobJournal`` are codecs over it.  Each rule is exercised here through
both journals' public API, and two fixture files written by the parent
commit (format 1) prove the on-disk format did not move.
"""

import json
import os
import shutil
import stat
from pathlib import Path

import pytest

from repro import __version__
from repro.cluster.journal import JobJournal, JobJournalError
from repro.explore import Candidate, Evaluation
from repro.explore.journal import JournalError, RunJournal
from repro.runtime import SimJob
from repro.runtime.recordlog import RecordLog
from repro.workloads import GemmWorkload

FIXTURES = Path(__file__).parent / "fixtures"
RUN_HEADER = {"seed": 7, "strategy": "random", "space_digest": "abc123", "budget": 4}


def _job(tag):
    return SimJob(workload=GemmWorkload(name=f"log_{tag}", m=8, n=8, k=8), seed=tag)


class RunFlavour:
    """Drive a ``RunJournal`` through the operations both journals share."""

    error = JournalError
    partial = '{"type": "evaluation", "candidate": {"axi'

    def __init__(self, path):
        self.journal = RunJournal(path)

    def start(self):
        self.journal.start(RUN_HEADER)

    def append(self, index):
        self.journal.append(
            Evaluation(
                candidate=Candidate.from_dict({"axis0": index}),
                metrics={"cycles": float(index)},
                job_hashes=[f"hash{index}"],
            )
        )

    def records(self, contents):
        return len(contents.evaluations)

    def resume(self):
        return self.journal.resume(RUN_HEADER)


class JobFlavour:
    """Drive a ``JobJournal`` through the same operations."""

    error = JobJournalError
    partial = '{"type": "submitted", "key": "abc'

    def __init__(self, path):
        self.journal = JobJournal(path)

    def start(self):
        self.journal.start()

    def append(self, index):
        job = _job(index)
        self.journal.record_submission(job.job_hash(), job)

    def records(self, contents):
        return len(contents.submitted)

    def resume(self):
        return self.journal.resume()


@pytest.fixture(params=[RunFlavour, JobFlavour], ids=["run_journal", "job_journal"])
def flavour(request, tmp_path):
    return request.param(tmp_path / "log.jsonl")


def _truncate_tail(flavour):
    flavour.start()
    for index in range(3):
        flavour.append(index)
    with flavour.journal.path.open("a", encoding="utf-8") as handle:
        handle.write(flavour.partial)  # no newline: cut off mid-append


class TestSharedDiscipline:
    def test_truncated_tail_is_dropped_and_counted(self, flavour):
        _truncate_tail(flavour)
        contents = flavour.journal.load()
        assert contents.dropped_lines == 1
        assert flavour.records(contents) == 3

    def test_resume_rewrites_without_the_partial_line(self, flavour):
        _truncate_tail(flavour)
        contents = flavour.resume()
        assert contents.dropped_lines == 0
        path = flavour.journal.path
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4 and all(json.loads(line) for line in lines)
        assert [p.name for p in path.parent.iterdir()] == [path.name]
        flavour.append(3)  # the next append starts on a clean line
        assert flavour.records(flavour.journal.load()) == 4

    def test_corrupt_middle_line_raises(self, flavour):
        flavour.start()
        flavour.append(0)
        path = flavour.journal.path
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join([lines[0], "garbage{{{", lines[1]]) + "\n")
        with pytest.raises(flavour.error, match="line 2"):
            flavour.journal.load()

    def test_valid_json_of_the_wrong_shape_follows_the_same_rule(self, flavour):
        """A line the codec rejects is unparseable too: fatal in the
        middle, a dropped crash artefact at the tail."""
        flavour.start()
        flavour.append(0)
        path = flavour.journal.path
        with path.open("a", encoding="utf-8") as handle:
            handle.write("[1, 2]\n")
        assert flavour.journal.load().dropped_lines == 1
        flavour.append(1)
        with pytest.raises(flavour.error):
            flavour.journal.load()

    @pytest.mark.parametrize(
        "first_line",
        ["not json", json.dumps([1, 2]), json.dumps({"type": "evaluation"})],
        ids=["garbage", "not_an_object", "not_a_header"],
    )
    def test_bad_header_rejected(self, flavour, first_line):
        flavour.journal.path.write_text(first_line + "\n")
        with pytest.raises(flavour.error):
            flavour.journal.load()

    def test_foreign_format_rejected(self, flavour):
        flavour.journal.path.write_text(
            json.dumps({"type": "header", "format": 999}) + "\n"
        )
        with pytest.raises(flavour.error, match="format 999"):
            flavour.journal.load()

    def test_missing_or_empty_file_rejected(self, flavour):
        with pytest.raises(flavour.error):
            flavour.journal.load()
        flavour.journal.path.write_text("")
        assert not flavour.journal.exists()
        with pytest.raises(flavour.error):
            flavour.journal.load()

    def test_crash_during_rewrite_leaves_the_original(self, flavour, monkeypatch):
        _truncate_tail(flavour)
        path = flavour.journal.path
        before = path.read_bytes()

        def exploding_replace(src, dst):
            raise OSError("simulated crash during rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            flavour.resume()
        assert path.read_bytes() == before
        assert [p.name for p in path.parent.iterdir()] == [path.name]
        monkeypatch.undo()
        assert flavour.records(flavour.resume()) == 3


def _record_sync_ops(monkeypatch):
    """Log every ``os.fsync`` (of a file or a directory) and ``os.replace``."""
    ops = []
    replace = os.replace

    def recording_fsync(fd):
        kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
        ops.append(f"fsync {kind}")

    def recording_replace(src, dst):
        ops.append("replace")
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    return ops


class TestRecordLog:
    def test_append_is_fsynced(self, tmp_path, monkeypatch):
        """One durability discipline: every append reaches the disk."""
        synced = []
        monkeypatch.setattr(os, "fsync", synced.append)
        log = RecordLog(tmp_path / "log.jsonl", 1, ValueError)
        log.start({"note": "x"})
        synced.clear()
        log.append({"type": "r", "n": 1})
        assert len(synced) == 1
        for journal in (RunFlavour(tmp_path / "run.jsonl"), JobFlavour(tmp_path / "job.jsonl")):
            journal.start()
            synced.clear()
            journal.append(0)
            assert len(synced) == 1

    def test_start_syncs_the_file_before_the_rename_and_the_directory_after(
        self, tmp_path, monkeypatch
    ):
        """A power cut right after ``start`` finds the whole header: a fresh
        log is written the way ``rewrite`` writes one."""
        ops = _record_sync_ops(monkeypatch)
        log = RecordLog(tmp_path / "log.jsonl", 1, ValueError)
        log.start({"note": "x"})
        assert ops == ["fsync file", "replace", "fsync dir"]
        header, records, _ = log.load(lambda record, _header: record)
        assert header["note"] == "x" and records == []

    def test_rewrite_syncs_the_file_before_the_rename_and_the_directory_after(
        self, tmp_path, monkeypatch
    ):
        """A power cut after a compaction finds the old file or the whole
        new one: the temp file is on disk before the rename, and the rename
        is on disk before ``rewrite`` returns."""
        log = RecordLog(tmp_path / "log.jsonl", 1, ValueError)
        log.start({"note": "x"})
        ops = _record_sync_ops(monkeypatch)
        log.rewrite({"note": "y"}, [{"n": 1}, {"n": 2}])
        assert ops == ["fsync file", "replace", "fsync dir"]
        header, records, _ = log.load(lambda record, _header: record["n"])
        assert header["note"] == "y" and records == [1, 2]

    def test_rewrite_header_cannot_smuggle_a_foreign_format(self, tmp_path):
        log = RecordLog(tmp_path / "log.jsonl", 1, ValueError)
        log.rewrite({"type": "bogus", "format": 7, "note": "kept"}, [{"n": 1}])
        header, records, dropped = log.load(lambda record, _header: record["n"])
        assert (header["type"], header["format"], header["note"]) == ("header", 1, "kept")
        assert records == [1] and dropped == 0


class TestParentCommitFixtures:
    """Files written by the parent commit's journals resume unchanged."""

    def test_run_journal_fixture_resumes(self, tmp_path):
        path = tmp_path / "run.jsonl"
        shutil.copy(FIXTURES / "run_journal_format1.jsonl", path)
        contents = RunJournal(path).resume(RUN_HEADER)
        assert [e.candidate.as_dict() for e in contents.evaluations] == [
            {"axis0": 0},
            {"axis0": 1},
            {"axis0": 2},
        ]
        assert [e.metrics["cycles"] for e in contents.evaluations] == [100.0, 101.0, 102.0]
        assert all(e.from_journal for e in contents.evaluations)
        # The partial fourth line was repaired away; the three records and
        # the header are byte-identical to what the parent wrote.
        original = (FIXTURES / "run_journal_format1.jsonl").read_text().splitlines()
        assert path.read_text().splitlines() == original[:4]

    def test_job_journal_fixture_resumes(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        shutil.copy(FIXTURES / "job_journal_format1.jsonl", path)
        journal = JobJournal(path)
        contents = journal.load()
        assert contents.dropped_lines == 1
        assert contents.header["note"] == "written by the parent of PR 14"
        assert len(contents.submitted) == 3 and len(contents.completed) == 2
        if contents.header["package_version"] != __version__:
            # A later release: the pickles are foreign and must be dropped,
            # never trusted (tests/cluster/test_journal.py pins that rule).
            assert contents.undecodable_jobs == 3
            return
        for key, job in contents.submitted.items():
            assert job.job_hash() == key
        with_outcome = [k for k, o in contents.completed.items() if o is not None]
        assert len(with_outcome) == 1
        resumed = journal.resume()
        (unfinished,) = resumed.unfinished()
        # Compacted: header + the unfinished submission + the completion
        # that carries its outcome; the cache-durable one is gone.
        kinds = [json.loads(line)["type"] for line in path.read_text().splitlines()]
        assert kinds == ["header", "submitted", "completed"]
        assert journal.resume().unfinished().keys() == {unfinished}
