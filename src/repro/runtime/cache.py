"""On-disk content-addressed result cache.

Outcomes are stored one-per-file under ``<root>/v<package-version>/`` with
the job hash as the filename, so:

* a cache entry is valid for exactly one (workload, design, features,
  backend, seed, budget) combination — any change produces a new key;
* bumping the package version invalidates every previous entry without
  touching the files (old versions keep their own subdirectory);
* concurrent writers are safe: entries are written to a temporary file and
  atomically renamed into place.

The cache stores :class:`~repro.runtime.outcome.SimOutcome` records via
pickle.  Unreadable entries (corrupt files, entries written by incompatible
code) are treated as misses and removed.

Each ``ResultCache`` also holds, in memory, the pickles it wrote or read
(least recently served first out past :data:`HELD_BYTES`).  A held entry is
served while one ``os.stat`` shows its file is still the one held — same
inode, same size, the mtime this cache last set — so a hit on a hot key
costs a stat and the recency touch instead of an open and an unpickle, and
a file another process deleted, pruned, rewrote or touched is read from disk
again.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
import time
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Union

from ..obs.trace import get_tracer
from .outcome import SimOutcome

#: Environment variable overriding the default cache location (the read
#: itself lives in :mod:`repro.config`; the name is re-exported here for
#: backwards compatibility).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Pickle bytes one cache holds in memory, summed over its held entries.
HELD_BYTES = 16 << 20


def default_cache_dir() -> Path:
    """Default cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-datamaestro``.

    Delegates to the typed :func:`repro.config.get_config`, the single
    place environment knobs are read.
    """
    from ..config import get_config

    return get_config().cache_dir


class ResultCache:
    """Content-addressed store of simulation outcomes, keyed by job hash."""

    def __init__(self, root: Union[str, Path], version: Optional[str] = None) -> None:
        if version is None:
            from .. import __version__ as version
        self.root = Path(root)
        self.version = str(version)
        self.directory = self.root / f"v{self.version}"
        self.directory.mkdir(parents=True, exist_ok=True)
        #: ``str(directory)``: the hit path joins strings, not ``Path`` objects.
        self._dirname = str(self.directory)
        self.hits = 0
        self.misses = 0
        #: The in-memory tier: key -> entry, least recently served first.
        self._held: "OrderedDict[str, _Held]" = OrderedDict()
        self._held_bytes = 0
        #: Admission probes race the executors' write-backs.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def __contains__(self, key: str) -> bool:
        """Uncounted existence probe.

        This deliberately bypasses the :attr:`hits`/:attr:`misses` counters
        (it answers "is there a file", not "was a lookup served"), so an
        admission probe must never use it — :meth:`get` is the one counted
        lookup path, and the admission counters are asserted against it in
        the test suite.
        """
        return self.path_for(key).is_file()

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.pkl"))

    def _entry_sizes(self) -> Iterator[int]:
        """On-disk size of every entry in one ``scandir`` pass; entries that
        vanish mid-scan are skipped."""
        try:
            scan = os.scandir(self._dirname)
        except FileNotFoundError:  # directory removed underneath us: empty
            return
        with scan:
            for item in scan:
                if item.name.endswith(".pkl"):
                    try:
                        yield item.stat().st_size
                    except OSError:
                        continue

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[SimOutcome]:
        """Return the cached outcome for ``key``, or ``None`` on a miss.

        Every hit on one held entry returns the same object (flagged
        ``cache_hit``), decoded once; it is never the object a caller put.
        """
        path = os.path.join(self._dirname, key + ".pkl")
        with self._lock:
            outcome = self._get_held(key, path)
            if outcome is None:
                outcome = self._read(key, path)
            if outcome is None:
                self.misses += 1
            else:
                self.hits += 1
            return outcome

    def _get_held(self, key: str, path: str) -> Optional[SimOutcome]:
        """The held outcome of ``key`` if its file is still the one held."""
        held = self._held.get(key)
        if held is None:
            return None
        try:
            stat = os.stat(path)
        except OSError:
            stat = None
        if stat is None or (stat.st_ino, stat.st_size, stat.st_mtime_ns) != (
            held.inode,
            len(held.data),
            held.mtime_ns,
        ):
            self._release(key)
            return None
        self._held.move_to_end(key)
        if held.outcome is None:
            held.outcome = pickle.loads(held.data)
            held.outcome.cache_hit = True
        held.mtime_ns = _touch(path, held.mtime_ns)
        return held.outcome

    def _read(self, key: str, path: str) -> Optional[SimOutcome]:
        """Decode ``key``'s file and hold it; any failure to decode (a cut
        file, a pickle naming a module this build lacks) removes the entry."""
        try:
            with open(path, "rb") as handle:
                stat = os.fstat(handle.fileno())
                data = handle.read()
        except FileNotFoundError:
            return None
        except OSError:
            data = b""
        try:
            outcome = pickle.loads(data)
        except Exception:  # noqa: BLE001 — any decode failure is a miss
            outcome = None
        if not isinstance(outcome, SimOutcome):
            self.path_for(key).unlink(missing_ok=True)
            return None
        outcome.cache_hit = True
        self._hold(
            key, _Held(data, stat.st_ino, _touch(path, stat.st_mtime_ns), outcome)
        )
        return outcome

    def _hold(self, key: str, held: "_Held") -> None:
        """Hold ``held`` as ``key``'s entry, then evict down to the bound."""
        self._release(key)
        if len(held.data) > HELD_BYTES:
            return
        self._held[key] = held
        self._held_bytes += len(held.data)
        while self._held_bytes > HELD_BYTES:
            _, evicted = self._held.popitem(last=False)
            self._held_bytes -= len(evicted.data)

    def _release(self, key: str) -> None:
        held = self._held.pop(key, None)
        if held is not None:
            self._held_bytes -= len(held.data)

    def put(self, key: str, outcome: SimOutcome) -> None:
        """Store ``outcome`` under ``key`` (atomic replace).

        Multi-process safe: the entry is staged in a uniquely named temp
        file and renamed into place, so concurrent writers racing on the
        same key each install a complete entry and the last rename wins —
        readers only ever observe nothing or a whole pickle.  A cache
        directory deleted underneath us (an external ``rm -rf`` between
        construction and write-back) is recreated and the write retried
        once rather than failing the simulation's result delivery.

        The pickle is held in memory too; ``outcome`` itself is not.
        """
        data = pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
        for attempt in (0, 1):
            try:
                stat = self._put_once(key, data)
                break
            except FileNotFoundError:
                if attempt:
                    raise
                self.directory.mkdir(parents=True, exist_ok=True)
        with self._lock:
            self._hold(key, _Held(data, stat.st_ino, stat.st_mtime_ns))

    def _put_once(self, key: str, data: bytes) -> os.stat_result:
        """Write ``data`` as ``key``'s file; return the file's stat."""
        path = self.path_for(key)
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{key[:16]}-", suffix=".tmp", dir=str(self.directory)
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
                handle.flush()
                stat = os.fstat(fd)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return stat

    def prune(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> "PruneReport":
        """Evict least-recently-used entries until both bounds hold.

        Recency is mtime: entries are touched on every counted ``get``, so
        eviction order is least-recently-*served* first.  At least one
        bound is required; ``max_entries`` caps the entry count and
        ``max_bytes`` the total on-disk size of this version's directory.
        A long-running service prunes periodically (or via ``python -m
        repro.cli cache prune``) to keep unbounded on-disk growth — a real
        deployment blocker — in check.

        Entries that vanish mid-scan (concurrent prune/clear) are skipped.
        """
        if max_entries is None and max_bytes is None:
            raise ValueError("prune needs max_entries and/or max_bytes")
        if max_entries is not None and max_entries < 0:
            raise ValueError("max_entries must be non-negative")
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        entries = []
        for path in self.directory.glob("*.pkl"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, path, stat.st_size))
        entries.sort()  # oldest mtime first = least recently used first
        total_bytes = sum(size for _, _, size in entries)
        removed = 0
        bytes_freed = 0
        while entries and (
            (max_entries is not None and len(entries) > max_entries)
            or (max_bytes is not None and total_bytes > max_bytes)
        ):
            _mtime, path, size = entries.pop(0)
            path.unlink(missing_ok=True)
            with self._lock:
                self._release(path.stem)
            removed += 1
            bytes_freed += size
            total_bytes -= size
        return PruneReport(
            removed=removed,
            remaining=len(entries),
            bytes_freed=bytes_freed,
            bytes_remaining=total_bytes,
        )

    def size_bytes(self) -> int:
        """Total on-disk size of this version's entries."""
        return sum(self._entry_sizes())

    def clear(self) -> int:
        """Delete every entry of this version; return how many were removed."""
        removed = 0
        for path in self.directory.glob("*.pkl"):
            path.unlink(missing_ok=True)
            removed += 1
        with self._lock:
            self._held.clear()
            self._held_bytes = 0
        return removed

    def stats(self) -> dict:
        """Counters, entry count and size from one directory pass, and what
        the in-memory tier holds."""
        sizes = list(self._entry_sizes())
        with self._lock:
            return {
                "directory": self._dirname,
                "entries": len(sizes),
                "size_bytes": sum(sizes),
                "hits": self.hits,
                "misses": self.misses,
                "held_entries": len(self._held),
                "held_bytes": self._held_bytes,
            }


@dataclass
class _Held:
    """One entry of the in-memory tier: the pickle this cache wrote or read,
    which file that is, and the outcome decoded from it once served."""

    data: bytes
    inode: int
    mtime_ns: int
    outcome: Optional[SimOutcome] = None


def _touch(path: str, mtime_ns: int) -> int:
    """Set ``path``'s mtime to now, so prune()'s LRU-by-mtime order reflects
    *use*; return the mtime the file now has (``mtime_ns`` when the touch
    failed — a losing race with a concurrent prune only skips it)."""
    now = time.time_ns()
    try:
        os.utime(path, ns=(now, now))
    except OSError:
        return mtime_ns
    return now


@dataclass(frozen=True)
class PruneReport:
    """What one :meth:`ResultCache.prune` call did."""

    removed: int
    remaining: int
    bytes_freed: int
    bytes_remaining: int


def write_back(cache: Optional[ResultCache], key: str, outcome: SimOutcome) -> None:
    """Best-effort ``cache.put`` after a simulation, for every executor,
    inside a ``write_back`` span when a tracer is installed.

    The outcome exists and must reach its caller whatever the disk says
    (full, read-only, gone): a failing write is demoted to a
    ``RuntimeWarning`` naming the key, and the job simply stays uncached.
    """
    if cache is None:
        return
    tracer = get_tracer()
    if tracer is not None:
        tracer.begin("write_back", key)
    try:
        cache.put(key, outcome)
    except Exception as error:  # noqa: BLE001 — best-effort cache
        warnings.warn(
            f"result-cache write-back failed for {key[:12]}: {error}",
            RuntimeWarning,
            stacklevel=3,
        )
    finally:
        if tracer is not None:
            tracer.maybe_end("write_back", key)
