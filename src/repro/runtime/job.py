"""Declarative simulation jobs: the unit of work of :mod:`repro.runtime`.

A :class:`SimJob` is a complete, self-contained description of one
simulation — *what* workload to run, on *which* hardware design, with *which*
feature switches, through *which* backend — without saying anything about
*how* it is executed.  The runtime (``Simulator``) decides that: in-process
or through a service, freshly simulated or served from the result cache.

Jobs are frozen dataclasses, hence hashable and picklable, and expose a
*stable* content hash (:meth:`SimJob.job_hash`) built from a canonical
encoding of every behaviour-affecting field.  The hash is identical across
processes and interpreter restarts (unlike built-in ``hash()``), which makes
it usable as an on-disk cache key.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Optional

from ..core.params import FeatureSet
from ..engine import DEFAULT_ENGINE, validate_engine
from ..sim.result import DEFAULT_CYCLE_BUDGET
from ..system.design import AcceleratorSystemDesign, datamaestro_evaluation_system
from ..workloads.spec import Workload

#: Name of the cycle-level DataMaestro system backend (the default).
DATAMAESTRO_BACKEND = "datamaestro"


#: ``type -> encoder`` for every type seen so far: the isinstance ladder of
#: :func:`_encoder_for` runs once per *type*, a dict probe once per node.
_ENCODERS: Dict[type, Callable[[Any], Any]] = {}


def _encoder_for(kind: type) -> Callable[[Any], Any]:
    """The encoder of ``kind``'s instances (most specific rule first)."""
    name = kind.__name__
    if dataclasses.is_dataclass(kind):
        names = tuple(f.name for f in dataclasses.fields(kind))
        return lambda obj: [
            name,
            [[field, canonical_encode(getattr(obj, field))] for field in names],
        ]
    if issubclass(kind, enum.Enum):
        return lambda obj: [name, obj.value]
    if issubclass(kind, (tuple, list)):
        return lambda obj: [canonical_encode(item) for item in obj]
    if issubclass(kind, dict):
        return lambda obj: [
            [canonical_encode(k), canonical_encode(v)] for k, v in sorted(obj.items())
        ]
    if issubclass(kind, float):
        return repr
    if kind is type(None) or issubclass(kind, (bool, int, str)):
        return lambda obj: obj
    raise TypeError(f"cannot canonically encode {kind!r} for job hashing")


def canonical_encode(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-serialisable structure with a stable layout.

    Dataclasses become ``[type-name, [[field, value], ...]]`` with fields in
    declaration order, enums become their value, tuples become lists and
    mappings are sorted by key — so two structurally equal objects always
    produce the same encoding regardless of process or insertion order.
    """
    kind = type(obj)
    encode = _ENCODERS.get(kind)
    if encode is None:
        encode = _ENCODERS[kind] = _encoder_for(kind)
    return encode(obj)


def _encoded_json(obj: Any) -> str:
    return json.dumps(canonical_encode(obj), separators=(",", ":"), sort_keys=False)


def stable_digest(obj: Any) -> str:
    """SHA-256 hex digest of the canonical encoding of ``obj``."""
    return hashlib.sha256(_encoded_json(obj).encode("utf-8")).hexdigest()


#: Designs and feature sets are frozen, hashable and shared by thousands of
#: jobs (a sweep has a handful, an exploration a few hundred): their encoded
#: text is kept *by value*, so a fresh job only encodes its workload.
_part_json = functools.lru_cache(maxsize=256)(_encoded_json)

#: Where :meth:`SimJob.job_hash` keeps its digest on the instance — not a
#: dataclass field, and never pickled (see ``__getstate__``).
_MEMO = "_job_hash"


@dataclass(frozen=True)
class SimJob:
    """One declarative simulation request.

    Parameters
    ----------
    workload:
        The GeMM/convolution kernel to simulate.
    design:
        Hardware design point; ``None`` selects the paper's evaluation
        system (resolved eagerly so the job hash covers the real design).
    features:
        DataMaestro feature switchboard; ``None`` means all enabled.
    backend:
        Registered backend name (``"datamaestro"`` for the cycle-level
        system, ``"baseline:<slug>"`` for the analytic comparator models).
    seed:
        Operand-data seed forwarded to the compiler.
    max_cycles:
        Cycle budget for cycle-level backends.
    engine:
        Simulation engine for cycle-level backends: ``"event"`` (the
        next-event scheduler, the default) or ``"lockstep"`` (the legacy
        per-cycle loop).  Part of the job hash, so outcomes produced by
        different engines never collide in the result cache — the engines
        are parity-tested to agree, but a cached cross-engine answer would
        silently mask any divergence.
    label:
        Free-form tag for reports; *excluded* from the job hash.
    """

    workload: Workload
    design: Optional[AcceleratorSystemDesign] = None
    features: Optional[FeatureSet] = None
    backend: str = DATAMAESTRO_BACKEND
    seed: int = 0
    max_cycles: int = DEFAULT_CYCLE_BUDGET
    engine: str = DEFAULT_ENGINE
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.design is None:
            object.__setattr__(self, "design", datamaestro_evaluation_system())
        if self.features is None:
            object.__setattr__(self, "features", FeatureSet.all_enabled())
        if not self.backend:
            raise ValueError("backend name must be non-empty")
        if self.max_cycles <= 0:
            raise ValueError("max_cycles must be positive")
        validate_engine(self.engine)

    # ------------------------------------------------------------------
    def job_hash(self) -> str:
        """Stable content hash of every behaviour-affecting field.

        Computed once per instance: the job is frozen, so the digest is
        memoised beside (not among) its fields.  The text hashed is the
        canonical encoding of the ``{field: value}`` mapping below — keys
        sorted, ``label`` absent — assembled from its parts.
        """
        memo = self.__dict__.get(_MEMO)
        if memo is None:
            parts = (
                ("backend", _encoded_json(self.backend)),
                ("design", _part_json(self.design)),
                ("engine", _encoded_json(self.engine)),
                ("features", _part_json(self.features)),
                ("max_cycles", _encoded_json(self.max_cycles)),
                ("seed", _encoded_json(self.seed)),
                ("workload", _encoded_json(self.workload)),
            )
            text = "[%s]" % ",".join(f'["{name}",{value}]' for name, value in parts)
            memo = hashlib.sha256(text.encode("utf-8")).hexdigest()
            self.__dict__[_MEMO] = memo
        return memo

    def __getstate__(self) -> Dict[str, Any]:
        """The fields only: the memo stays out of pickles, so cluster frames
        and journal lines keep their bytes whether or not a job was hashed."""
        state = dict(self.__dict__)
        state.pop(_MEMO, None)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        """A received job re-derives its key; it never trusts a carried one."""
        self.__dict__.update(state)
        self.__dict__.pop(_MEMO, None)

    def with_updates(self, **changes: object) -> "SimJob":
        """Copy with selected fields replaced (mirrors the spec idiom)."""
        return replace(self, **changes)

    def describe(self) -> Dict[str, object]:
        """Provenance-friendly summary of the job."""
        return {
            "workload": self.workload.name,
            "group": self.workload.group.value,
            "design": self.design.name,
            "features": self.features.as_dict(),
            "backend": self.backend,
            "seed": self.seed,
            "max_cycles": self.max_cycles,
            "engine": self.engine,
            "label": self.label,
            "job_hash": self.job_hash(),
        }
