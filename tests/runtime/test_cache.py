"""Tests for the on-disk content-addressed result cache."""

import errno
import os
import pickle
import sys
import warnings

import pytest

from repro.runtime import ResultCache, SimJob, SimOutcome, Simulator
from repro.runtime import cache as cache_module
from repro.serve import ServiceClient
from repro.system import datamaestro_evaluation_system
from repro.workloads import GemmWorkload

GEMM = GemmWorkload(name="cache_gemm", m=16, n=16, k=16)


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = SimJob(workload=GEMM)
        key = job.job_hash()
        assert cache.get(key) is None

        outcome = Simulator(cache=cache).simulate(job)
        assert not outcome.cache_hit
        assert key in cache

        cached = cache.get(key)
        assert cached is not None
        assert cached.cache_hit
        assert cached.utilization == outcome.utilization
        assert cached.result is not None  # full cycle-level payload survives

    def test_invalidation_on_design_change(self, tmp_path):
        """A different design is a different key: no stale reuse."""
        cache = ResultCache(tmp_path)
        simulator = Simulator(cache=cache)
        simulator.simulate(SimJob(workload=GEMM))
        assert simulator.stats.executed == 1

        small = datamaestro_evaluation_system(num_banks=32, gima_group_size=8)
        outcome = simulator.simulate(SimJob(workload=GEMM, design=small))
        assert simulator.stats.executed == 2  # design change forced a re-run
        assert not outcome.cache_hit
        assert len(cache) == 2

    def test_version_partitions_entries(self, tmp_path):
        job = SimJob(workload=GEMM)
        old = ResultCache(tmp_path, version="0.9.9")
        Simulator(cache=old).simulate(job)

        new = ResultCache(tmp_path, version="1.0.0")
        assert new.get(job.job_hash()) is None  # version bump invalidates
        assert old.get(job.job_hash()) is not None

    def test_corrupt_entry_treated_as_miss_and_removed(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = SimJob(workload=GEMM).job_hash()
        cache.path_for(key).write_bytes(b"not a pickle")
        assert cache.get(key) is None
        assert key not in cache

    def test_truncated_entry_treated_as_miss_and_recoverable(self, tmp_path):
        """A valid entry cut short (killed writer, full disk) must read as a
        miss — never raise — and the next put/get cycle must heal it."""
        cache = ResultCache(tmp_path)
        job = SimJob(workload=GEMM)
        key = job.job_hash()
        outcome = Simulator(cache=cache).simulate(job)

        payload = cache.path_for(key).read_bytes()
        for cut in (1, len(payload) // 2, len(payload) - 1):
            cache.path_for(key).write_bytes(payload[:cut])
            assert cache.get(key) is None
            assert key not in cache  # the damaged file was removed

        cache.put(key, outcome)
        healed = cache.get(key)
        assert healed is not None
        assert healed.utilization == outcome.utilization

    def test_empty_entry_treated_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = SimJob(workload=GEMM).job_hash()
        cache.path_for(key).write_bytes(b"")
        assert cache.get(key) is None
        assert key not in cache

    def test_garbage_entry_of_valid_pickle_opcodes_rejected(self, tmp_path):
        """Random bytes that happen to start like a pickle stream still miss."""
        cache = ResultCache(tmp_path)
        key = SimJob(workload=GEMM).job_hash()
        cache.path_for(key).write_bytes(b"\x80\x04\x95\xff\xff\xff\xff" + b"\x00" * 32)
        assert cache.get(key) is None

    def test_corrupt_entry_does_not_count_as_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = SimJob(workload=GEMM).job_hash()
        cache.path_for(key).write_bytes(b"junk")
        cache.get(key)
        assert cache.hits == 0 and cache.misses == 1

    def test_foreign_pickle_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = SimJob(workload=GEMM).job_hash()
        cache.path_for(key).write_bytes(pickle.dumps({"not": "an outcome"}))
        assert cache.get(key) is None

    def test_entry_naming_a_missing_module_is_a_miss_and_removed(self, tmp_path):
        """A pickle from another build (another numpy, a renamed module)
        must read as a miss, not raise out of admission."""
        cache = ResultCache(tmp_path)
        key = SimJob(workload=GEMM).job_hash()
        cache.path_for(key).write_bytes(b"\x80\x04cnumpz\nndarray\n.")
        assert cache.get(key) is None
        assert key not in cache
        assert (cache.hits, cache.misses) == (0, 1)

    def test_clear_and_stats(self, tmp_path):
        cache = ResultCache(tmp_path)
        Simulator(cache=cache).simulate(SimJob(workload=GEMM))
        assert len(cache) == 1
        stats = cache.stats()
        assert stats["entries"] == 1
        assert cache.clear() == 1
        assert len(cache) == 0


class TestPrune:
    """LRU-by-mtime eviction (`prune`) — the long-running-service bound."""

    @staticmethod
    def _fill(cache, count):
        """Store `count` analytic outcomes with strictly increasing mtimes."""
        import os

        from repro.runtime import SimOutcome

        keys = []
        for index in range(count):
            job = SimJob(workload=GEMM, seed=index, backend="baseline:feather")
            key = job.job_hash()
            cache.put(
                key,
                SimOutcome.analytic(job, utilization=0.5, ideal_compute_cycles=64),
            )
            # Deterministic recency regardless of filesystem granularity.
            os.utime(cache.path_for(key), (1000 + index, 1000 + index))
            keys.append(key)
        return keys

    def test_prune_by_entries_evicts_oldest_first(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = self._fill(cache, 5)
        report = cache.prune(max_entries=2)
        assert report.removed == 3 and report.remaining == 2
        assert [key in cache for key in keys] == [False, False, False, True, True]

    def test_prune_by_bytes(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = self._fill(cache, 4)
        sizes = [cache.path_for(key).stat().st_size for key in keys]
        report = cache.prune(max_bytes=sum(sizes[2:]))
        assert report.removed == 2
        assert report.bytes_freed == sum(sizes[:2])
        assert report.bytes_remaining == sum(sizes[2:])
        assert cache.size_bytes() == sum(sizes[2:])

    def test_prune_both_bounds_apply(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._fill(cache, 6)
        report = cache.prune(max_entries=5, max_bytes=0)
        assert report.removed == 6  # the tighter (bytes) bound wins
        assert len(cache) == 0

    def test_counted_get_refreshes_recency(self, tmp_path):
        import os

        cache = ResultCache(tmp_path)
        keys = self._fill(cache, 3)
        # Serve the oldest entry, then re-age the others around it: the
        # touched entry must survive an entries=1 prune.
        assert cache.get(keys[0]) is not None
        os.utime(cache.path_for(keys[1]), (500, 500))
        os.utime(cache.path_for(keys[2]), (501, 501))
        cache.prune(max_entries=1)
        assert keys[0] in cache
        assert keys[1] not in cache and keys[2] not in cache

    def test_prune_requires_a_bound(self, tmp_path):
        import pytest

        cache = ResultCache(tmp_path)
        with pytest.raises(ValueError):
            cache.prune()
        with pytest.raises(ValueError):
            cache.prune(max_entries=-1)
        with pytest.raises(ValueError):
            cache.prune(max_bytes=-5)

    def test_prune_noop_within_bounds(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._fill(cache, 2)
        report = cache.prune(max_entries=10, max_bytes=10**9)
        assert report.removed == 0 and report.bytes_freed == 0
        assert report.remaining == 2
        assert len(cache) == 2

    def test_stats_reports_size_bytes(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._fill(cache, 2)
        assert cache.stats()["size_bytes"] == cache.size_bytes() > 0


class TestConcurrentWriters:
    """The guarantees the sharded cluster leans on: many processes write
    the same cache directory; entries are atomic and self-healing."""

    @staticmethod
    def _outcome(tag):
        job = SimJob(workload=GemmWorkload(name=f"cc_{tag}", m=8, n=8, k=8))
        return job, Simulator(cache=None).simulate(job)

    def test_racing_writers_on_one_key_install_a_whole_entry(self, tmp_path):
        import threading

        cache = ResultCache(tmp_path)
        job, outcome = self._outcome(0)
        key = job.job_hash()
        threads = [
            threading.Thread(target=cache.put, args=(key, outcome))
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        # Exactly one entry, readable, no stray temp files left behind.
        cached = cache.get(key)
        assert cached is not None and cached.cache_hit
        assert len(cache) == 1
        assert not list(cache.directory.glob("*.tmp"))

    def test_multiprocess_writers_share_one_directory(self, tmp_path):
        """Forked children (the shard-worker shape) write back concurrently."""
        import multiprocessing

        pairs = [self._outcome(tag) for tag in range(4)]
        context = multiprocessing.get_context("fork")

        def write(root, key, outcome):
            ResultCache(root).put(key, outcome)

        processes = [
            context.Process(args=(tmp_path, job.job_hash(), outcome), target=write)
            for job, outcome in pairs
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(30)
            assert process.exitcode == 0
        cache = ResultCache(tmp_path)
        assert len(cache) == len(pairs)
        for job, _ in pairs:
            assert cache.get(job.job_hash()) is not None

    def test_put_survives_directory_deleted_underneath(self, tmp_path):
        import shutil

        cache = ResultCache(tmp_path)
        job, outcome = self._outcome(9)
        shutil.rmtree(cache.directory)  # external rm -rf mid-flight
        cache.put(job.job_hash(), outcome)  # recreated + retried, not raised
        assert cache.get(job.job_hash()) is not None


def _analytic(index):
    job = SimJob(workload=GEMM, seed=index, backend="baseline:feather")
    outcome = SimOutcome.analytic(job, utilization=0.5, ideal_compute_cycles=64)
    return job.job_hash(), outcome


@pytest.fixture
def opened(monkeypatch):
    """Paths the cache module opens from here on."""
    paths = []

    def spy(path, *args, **kwargs):
        paths.append(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cache_module, "open", spy, raising=False)
    return paths


class TestHeldTier:
    """The in-memory tier: a hot key is served from memory while its file is
    still the one this cache holds, and from disk as soon as it is not."""

    def test_repeat_get_opens_no_file_and_shares_one_object(self, tmp_path, opened):
        cache = ResultCache(tmp_path)
        job = SimJob(workload=GEMM)
        executed = Simulator(cache=cache).simulate(job)
        opened.clear()  # the miss before the run looked on disk
        first, second = cache.get(job.job_hash()), cache.get(job.job_hash())
        assert opened == []
        assert first is second and first.cache_hit
        assert first is not executed and not executed.cache_hit
        assert first.as_dict() == {**executed.as_dict(), "cache_hit": True}

    def test_disk_hit_is_held(self, tmp_path, opened):
        key, outcome = _analytic(0)
        ResultCache(tmp_path).put(key, outcome)
        cache = ResultCache(tmp_path)
        first = cache.get(key)
        assert len(opened) == 1
        assert cache.get(key) is first and len(opened) == 1

    def test_a_memory_hit_refreshes_recency(self, tmp_path, opened):
        cache = ResultCache(tmp_path)
        pairs = [_analytic(index) for index in range(3)]
        for pair in pairs:
            cache.put(*pair)
        assert cache.get(pairs[0][0]) is not None
        assert opened == []  # served from memory, and touched
        cache.prune(max_entries=1)
        assert pairs[0][0] in cache

    def test_file_deleted_through_another_cache_is_a_counted_miss(self, tmp_path):
        cache, other = ResultCache(tmp_path), ResultCache(tmp_path)
        key, outcome = _analytic(0)
        cache.put(key, outcome)
        assert cache.get(key) is not None
        assert other.clear() == 1
        assert cache.get(key) is None
        assert (cache.hits, cache.misses) == (1, 1)

    @pytest.mark.parametrize("change", ["rewrite", "touch", "truncate"])
    def test_a_changed_file_is_read_from_disk(self, tmp_path, opened, change):
        cache, other = ResultCache(tmp_path), ResultCache(tmp_path)
        key, outcome = _analytic(0)
        cache.put(key, outcome)
        held = cache.get(key)
        path = cache.path_for(key)
        if change == "rewrite":
            other.put(key, outcome)
        elif change == "touch":
            os.utime(path)
        else:
            os.truncate(path, path.stat().st_size // 2)
        served = cache.get(key)
        assert opened == [str(path)]
        if change == "truncate":
            assert served is None and key not in cache
        else:
            assert served is not held and served == held

    def test_clear_and_prune_empty_the_tier(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = []
        for index in range(3):
            key, outcome = _analytic(index)
            cache.put(key, outcome)
            keys.append(key)
        assert cache.stats()["held_entries"] == 3
        cache.prune(max_entries=1)
        stats = cache.stats()
        assert (stats["entries"], stats["held_entries"]) == (1, 1)
        assert stats["held_bytes"] == stats["size_bytes"]
        assert cache.clear() == 1
        stats = cache.stats()
        assert (stats["held_entries"], stats["held_bytes"]) == (0, 0)

    def test_held_bytes_stay_bounded_and_the_oldest_goes_first(
        self, tmp_path, opened, monkeypatch
    ):
        cache = ResultCache(tmp_path)
        pairs = [_analytic(index) for index in range(5)]
        size = len(pickle.dumps(pairs[0][1], protocol=pickle.HIGHEST_PROTOCOL))
        bound = 2 * size + size // 2  # room for two entries
        monkeypatch.setattr(cache_module, "HELD_BYTES", bound)
        keys = [key for key, _ in pairs]
        cache.put(*pairs[0])
        cache.put(*pairs[1])
        cache.get(keys[0])  # keys[0] is now the most recently served
        for pair in pairs[2:]:
            cache.put(*pair)
            assert 0 < cache.stats()["held_bytes"] <= bound
        assert opened == []
        assert cache.stats()["held_entries"] == 2
        cache.get(keys[4]), cache.get(keys[3])
        assert opened == []  # the two newest are held
        cache.get(keys[0])
        assert opened == [str(cache.path_for(keys[0]))]

    def test_an_entry_larger_than_the_bound_is_not_held(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache_module, "HELD_BYTES", 16)
        cache = ResultCache(tmp_path)
        cache.put(*_analytic(0))
        assert cache.stats()["held_entries"] == 0

    def test_threads_interleaving_put_and_get(self, tmp_path, monkeypatch):
        import threading

        pairs = [_analytic(index) for index in range(6)]
        size = len(pickle.dumps(pairs[0][1], protocol=pickle.HIGHEST_PROTOCOL))
        monkeypatch.setattr(cache_module, "HELD_BYTES", 3 * size)  # evicts too
        cache = ResultCache(tmp_path)
        rounds, errors = 60, []

        def work(offset):
            try:
                for step in range(rounds):
                    key, outcome = pairs[(offset + step) % len(pairs)]
                    if step % 3 == 0:
                        cache.put(key, outcome)
                    served = cache.get(pairs[(offset * 5 + step) % len(pairs)][0])
                    assert served is None or served.cache_hit
            except BaseException as error:  # noqa: BLE001 — reported below
                errors.append(error)

        threads = [threading.Thread(target=work, args=(n,)) for n in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside the counters' updates
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert cache.hits + cache.misses == 8 * rounds
        assert cache.stats()["held_bytes"] <= 3 * size


class FullDiskCache(ResultCache):
    """Reads work, every write fails the way a full disk does."""

    def put(self, key, outcome):
        raise OSError(errno.ENOSPC, "No space left on device")


def _simulate_each(cache, jobs):
    simulator = Simulator(cache=cache)
    return [simulator.simulate(job) for job in jobs], simulator.stats.executed


def _simulate_many(cache, jobs):
    simulator = Simulator(cache=cache)
    return simulator.simulate_many(jobs), simulator.stats.executed


def _service_run(cache, jobs):
    with ServiceClient(cache=cache) as client:
        outcomes = client.run(jobs)
        return outcomes, client.stats_dict()["executed"]


class TestFullDisk:
    """ENOSPC on write-back costs the cache entry, never the simulation."""

    @pytest.mark.parametrize(
        "run",
        [_simulate_each, _simulate_many, _service_run],
        ids=["Simulator.simulate", "Simulator.simulate_many", "ServiceClient.run"],
    )
    def test_finished_simulations_survive_a_full_disk(self, run, tmp_path):
        unique = [
            SimJob(workload=GemmWorkload(name=f"enospc_{i}", m=8, n=8, k=8 + 8 * i))
            for i in range(3)
        ]
        jobs = unique + [unique[0]]  # one duplicate: simulated again or coalesced
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcomes, executed = run(FullDiskCache(tmp_path), jobs)

        assert [o.job_hash for o in outcomes] == [job.job_hash() for job in jobs]
        assert all(o.functional_match for o in outcomes)
        messages = [
            str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        # One warning per failed write, naming the key it failed for.
        assert len(messages) == executed >= len(unique)
        for job in unique:
            assert any(job.job_hash()[:12] in message for message in messages)
        assert all("No space left on device" in message for message in messages)
