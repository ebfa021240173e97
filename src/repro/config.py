"""Typed runtime configuration: one home for every environment knob.

Before this module, the runtime knobs were scattered ``os.environ`` reads —
the cache picked its root from ``REPRO_CACHE_DIR``, the ablation suite
checked ``REPRO_FULL_SUITE`` — each with its own parsing and defaults.
:class:`RuntimeConfig` centralizes them: one frozen dataclass with typed
fields, one env-var parser, and explicit override hooks for tests and
embedders.

Usage::

    from repro.config import get_config

    cache_root = get_config().cache_dir       # honours REPRO_CACHE_DIR
    if get_config().full_suite: ...           # honours REPRO_FULL_SUITE

``get_config()`` re-reads the environment on every call (the reads are
cheap), so ``monkeypatch.setenv`` keeps working in tests; a process that
wants a pinned configuration installs one with :func:`set_config` /
:func:`reset_config` (or the :func:`override` context manager).

The knob table in ``docs/ARCHITECTURE.md`` documents every field here, and
``tests/test_docs.py`` fails the build when the two drift apart.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Dict, Iterator, Mapping, Optional

__all__ = [
    "ENV_CACHE_DIR",
    "ENV_FULL_SUITE",
    "ENV_FUZZ_SEED",
    "ENV_JOURNAL_DIR",
    "ENV_METRICS_PORT",
    "ENV_SERVE_SHARDS",
    "ENV_TRACE",
    "RuntimeConfig",
    "config_report",
    "get_config",
    "override",
    "reset_config",
    "set_config",
]

#: Result-cache root directory (``ResultCache`` / ``--cache-dir`` default).
ENV_CACHE_DIR = "REPRO_CACHE_DIR"
#: Run the full synthetic suite / per-layer network sets instead of subsets.
ENV_FULL_SUITE = "REPRO_FULL_SUITE"
#: Default shard count of ``repro serve`` (0 = in-process thread service).
ENV_SERVE_SHARDS = "REPRO_SERVE_SHARDS"
#: Directory for durable job journals (``repro serve --journal`` default).
ENV_JOURNAL_DIR = "REPRO_JOURNAL_DIR"
#: Default port of the serve telemetry endpoint (0 = exporter disabled).
ENV_METRICS_PORT = "REPRO_METRICS_PORT"
#: Chrome trace-event JSON output path (unset = tracing disabled).
ENV_TRACE = "REPRO_TRACE"
#: Base seed of every randomised test/fuzz run (reproduce CI failures).
ENV_FUZZ_SEED = "REPRO_FUZZ_SEED"


def _parse_bool(value: Optional[str]) -> bool:
    """The package-wide truthiness convention for env flags.

    Matches the historical scattered readers exactly: unset, empty, ``0``,
    ``false`` and ``False`` are off; anything else is on.
    """
    return value not in (None, "", "0", "false", "False")


def _parse_int(env: Mapping[str, str], name: str) -> int:
    """``env[name]`` as an int, ``0`` when unset or empty."""
    text = env.get(name, "")
    try:
        return int(text) if text else 0
    except ValueError as error:
        raise ValueError(f"{name}={text!r} is not an integer") from error


def _default_cache_dir() -> Path:
    return Path.home() / ".cache" / "repro-datamaestro"


@dataclass(frozen=True)
class RuntimeConfig:
    """Every environment-tunable runtime knob, as typed fields.

    Parameters
    ----------
    cache_dir:
        Result-cache root used when no explicit ``cache_dir`` is given
        (``$REPRO_CACHE_DIR``).
    journal_dir:
        Directory for durable serve/cluster job journals
        (``$REPRO_JOURNAL_DIR``; defaults to ``<cache_dir>/journal``, and
        follows ``cache_dir`` through :meth:`with_overrides` unless set).
    full_suite:
        Run the full 260-workload synthetic suite and the complete
        per-layer network parity set (``$REPRO_FULL_SUITE``).
    serve_shards:
        Default worker-process shard count for ``repro serve``; ``0`` keeps
        the single-process thread service (``$REPRO_SERVE_SHARDS``).
    metrics_port:
        Default port for the serve telemetry endpoint; ``0`` keeps the
        exporter off unless ``--metrics-port`` asks for one
        (``$REPRO_METRICS_PORT``).
    trace_path:
        When set, ``repro serve`` records a per-job span timeline and
        exports it as Chrome trace-event JSON at this path on exit
        (``$REPRO_TRACE``).
    fuzz_seed:
        Base seed of every randomised test — the parity fuzz suite, the
        replay soak — so one env var reproduces any CI failure exactly
        (``$REPRO_FUZZ_SEED``).
    """

    cache_dir: Path = field(default_factory=_default_cache_dir)
    journal_dir: Optional[Path] = None
    full_suite: bool = False
    serve_shards: int = 0
    metrics_port: int = 0
    trace_path: Optional[Path] = None
    fuzz_seed: int = 0

    def __post_init__(self) -> None:
        if self.serve_shards < 0:
            raise ValueError("serve_shards must be non-negative")
        if not 0 <= self.metrics_port <= 65535:
            raise ValueError("metrics_port must be in [0, 65535]")
        # Not a field: whether journal_dir is derived, so an override of
        # cache_dir moves a derived journal_dir and keeps an explicit one.
        object.__setattr__(self, "_journal_derived", self.journal_dir is None)
        if self.journal_dir is None:
            object.__setattr__(self, "journal_dir", self.cache_dir / "journal")

    # ------------------------------------------------------------------
    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None) -> "RuntimeConfig":
        """Build a configuration from ``environ`` (default: ``os.environ``)."""
        env = os.environ if environ is None else environ
        cache_dir = (
            Path(env[ENV_CACHE_DIR]) if env.get(ENV_CACHE_DIR) else _default_cache_dir()
        )
        journal_dir = Path(env[ENV_JOURNAL_DIR]) if env.get(ENV_JOURNAL_DIR) else None
        trace_path = Path(env[ENV_TRACE]) if env.get(ENV_TRACE) else None
        return cls(
            cache_dir=cache_dir,
            journal_dir=journal_dir,
            full_suite=_parse_bool(env.get(ENV_FULL_SUITE)),
            serve_shards=_parse_int(env, ENV_SERVE_SHARDS),
            metrics_port=_parse_int(env, ENV_METRICS_PORT),
            trace_path=trace_path,
            fuzz_seed=_parse_int(env, ENV_FUZZ_SEED),
        )

    def with_overrides(self, **changes: object) -> "RuntimeConfig":
        """Copy with selected fields replaced (mirrors ``SimJob`` idiom)."""
        if self._journal_derived and "journal_dir" not in changes:
            changes["journal_dir"] = None
        return replace(self, **changes)

    def as_dict(self) -> Dict[str, object]:
        """Flat summary for reports and the CLI stats dump."""
        summary: Dict[str, object] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            summary[spec.name] = str(value) if isinstance(value, Path) else value
        return summary


# ----------------------------------------------------------------------
# Process-wide access: env-backed by default, pinnable for tests/embedders.
# ----------------------------------------------------------------------
_PINNED: Optional[RuntimeConfig] = None


def get_config() -> RuntimeConfig:
    """The active configuration: the pinned one, else a fresh env read."""
    if _PINNED is not None:
        return _PINNED
    return RuntimeConfig.from_env()


def set_config(config: RuntimeConfig) -> None:
    """Pin ``config`` as the process-wide configuration."""
    global _PINNED
    _PINNED = config


def reset_config() -> None:
    """Drop any pinned configuration; ``get_config`` reads the env again."""
    global _PINNED
    _PINNED = None


#: Field name → environment variable, for :func:`config_report`.
_FIELD_ENV = {
    "cache_dir": ENV_CACHE_DIR,
    "journal_dir": ENV_JOURNAL_DIR,
    "full_suite": ENV_FULL_SUITE,
    "serve_shards": ENV_SERVE_SHARDS,
    "metrics_port": ENV_METRICS_PORT,
    "trace_path": ENV_TRACE,
    "fuzz_seed": ENV_FUZZ_SEED,
}


def config_report() -> Dict[str, object]:
    """Defaults vs runtime values, per field — the ``/config`` payload.

    Each field row carries the dataclass default, the value the active
    configuration resolves to, the backing environment variable, and an
    ``overridden`` flag (true when the runtime value differs from the
    default — whether it came from the environment or a pinned config).
    """
    defaults = RuntimeConfig()
    active = get_config()
    rows: Dict[str, object] = {}
    for spec in fields(RuntimeConfig):
        default_value = getattr(defaults, spec.name)
        active_value = getattr(active, spec.name)
        rows[spec.name] = {
            "env": _FIELD_ENV.get(spec.name),
            "default": str(default_value) if isinstance(default_value, Path) else default_value,
            "value": str(active_value) if isinstance(active_value, Path) else active_value,
            "overridden": active_value != default_value,
        }
    return {"pinned": _PINNED is not None, "fields": rows}


@contextmanager
def override(**changes: object) -> Iterator[RuntimeConfig]:
    """Temporarily pin the current configuration with ``changes`` applied."""
    global _PINNED
    previous = _PINNED
    pinned = get_config().with_overrides(**changes)
    set_config(pinned)
    try:
        yield pinned
    finally:
        _PINNED = previous
