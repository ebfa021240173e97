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
"""

from __future__ import annotations

import os
import pickle
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Union

from ..obs.trace import get_tracer
from .outcome import SimOutcome

#: Environment variable overriding the default cache location (the read
#: itself lives in :mod:`repro.config`; the name is re-exported here for
#: backwards compatibility).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


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
        """Return the cached outcome for ``key``, or ``None`` on a miss."""
        path = os.path.join(self._dirname, key + ".pkl")
        try:
            with open(path, "rb") as handle:
                outcome = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, EOFError, pickle.UnpicklingError, AttributeError, TypeError):
            outcome = None
        if not isinstance(outcome, SimOutcome):
            # Corrupt or incompatible entry: drop it and report a miss.
            self.path_for(key).unlink(missing_ok=True)
            self.misses += 1
            return None
        outcome.cache_hit = True
        self.hits += 1
        # Touch the entry so prune()'s LRU-by-mtime ordering reflects *use*,
        # not just creation (best-effort: a losing race with a concurrent
        # prune only skips the touch).
        try:
            os.utime(path)
        except OSError:
            pass
        return outcome

    def put(self, key: str, outcome: SimOutcome) -> None:
        """Store ``outcome`` under ``key`` (atomic replace).

        Multi-process safe: the entry is staged in a uniquely named temp
        file and renamed into place, so concurrent writers racing on the
        same key each install a complete entry and the last rename wins —
        readers only ever observe nothing or a whole pickle.  A cache
        directory deleted underneath us (an external ``rm -rf`` between
        construction and write-back) is recreated and the write retried
        once rather than failing the simulation's result delivery.
        """
        for attempt in (0, 1):
            try:
                self._put_once(key, outcome)
                return
            except FileNotFoundError:
                if attempt:
                    raise
                self.directory.mkdir(parents=True, exist_ok=True)

    def _put_once(self, key: str, outcome: SimOutcome) -> None:
        path = self.path_for(key)
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{key[:16]}-", suffix=".tmp", dir=str(self.directory)
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(outcome, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

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
        return removed

    def stats(self) -> dict:
        """Counters plus entry count and size, from one directory pass."""
        sizes = list(self._entry_sizes())
        return {
            "directory": self._dirname,
            "entries": len(sizes),
            "size_bytes": sum(sizes),
            "hits": self.hits,
            "misses": self.misses,
        }

    def register_metrics(self, registry=None) -> None:
        """Expose this cache through an obs registry (idempotent).

        Registers a named callback producing the ``repro_result_cache_*``
        families from :meth:`stats` on every scrape; ``registry`` defaults
        to the process-wide one.  Re-registering (a fresh cache object at
        the same directory, repeated CLI runs in one process) replaces the
        previous producer instead of duplicating rows.
        """
        from ..obs.exposition import cache_families
        from ..obs.metrics import get_registry

        target = registry if registry is not None else get_registry()
        target.add_callback("repro_result_cache", lambda: cache_families(self.stats()))


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
