"""Customizable datapath extensions (paper §III-E, Fig. 2(c)).

Datapath extensions sit between the channel data FIFOs and the accelerator
port.  They operate on the assembled wide word, can be cascaded (the output
of one extension feeds the next), and every extension automatically gets a
runtime bypass so the host can disable it per kernel.

Two extensions from the paper's evaluation system are provided:

* :class:`Transposer` — on-the-fly transposition of the tile carried by a
  wide word, used to stream transposed-GeMM operands without a software
  transpose pass through the scratchpad;
* :class:`Broadcaster` — duplicates the data of a narrow fetch across all
  channels, used when the same values (e.g. per-output-channel quantization
  scales or bias/init rows) are needed by every PE row, so the duplicated
  tensor never has to be materialised in memory.

User-defined extensions register themselves with :func:`register_extension`
and are then available to :class:`~repro.core.params.ExtensionSpec` by name —
the plug-and-play mechanism the paper describes.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Type

import numpy as np

from .params import ExtensionSpec


class DatapathExtension:
    """Base class for on-the-fly data manipulation stages."""

    #: Registered kind name; subclasses must override.
    kind: str = "identity"

    def __init__(self, **params: object) -> None:
        self.params = dict(params)
        self.enabled = True
        self.words_processed = 0
        self.words_bypassed = 0

    # ------------------------------------------------------------------
    # Runtime control.
    # ------------------------------------------------------------------
    def set_enabled(self, enabled: bool) -> None:
        """Enable or bypass this extension for the next kernel."""
        self.enabled = bool(enabled)

    def configure(self, **runtime_params: object) -> None:
        """Update runtime parameters (tile shape, broadcast factor, ...)."""
        self.params.update(runtime_params)

    # ------------------------------------------------------------------
    # Data path.
    # ------------------------------------------------------------------
    def apply(self, word: np.ndarray) -> np.ndarray:
        """Run the extension (or its bypass) on one wide word."""
        if not self.enabled:
            self.words_bypassed += 1
            return word
        self.words_processed += 1
        return self.process(word)

    def process(self, word: np.ndarray) -> np.ndarray:
        """Transform one wide word; subclasses override."""
        return word

    def apply_batch(self, words: np.ndarray) -> np.ndarray:
        """Run the extension on a ``(n, width)`` batch of wide words.

        Counter semantics are identical to ``n`` calls to :meth:`apply`;
        the macro-step fast path uses this to transform whole word spans in
        one numpy operation.
        """
        count = len(words)
        if not self.enabled:
            self.words_bypassed += count
            return words
        self.words_processed += count
        return self.process_batch(words)

    def process_batch(self, words: np.ndarray) -> np.ndarray:
        """Batched :meth:`process`; the fallback applies it row by row, so
        user-defined extensions stay exact without a vectorized override."""
        if type(self).process is DatapathExtension.process:
            return words
        return np.stack([self.process(word) for word in words])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(enabled={self.enabled}, params={self.params})"


class Transposer(DatapathExtension):
    """Transpose the 2-D tile carried by a wide word.

    Runtime parameters
    ------------------
    rows, cols:
        Logical tile shape carried by the word (e.g. 8×8).
    element_bytes:
        Size of one tile element in bytes (1 for int8 operands).
    """

    kind = "transposer"

    def __init__(self, rows: int = 8, cols: int = 8, element_bytes: int = 1) -> None:
        super().__init__(rows=rows, cols=cols, element_bytes=element_bytes)

    def process(self, word: np.ndarray) -> np.ndarray:
        rows = int(self.params["rows"])
        cols = int(self.params["cols"])
        element_bytes = int(self.params["element_bytes"])
        expected = rows * cols * element_bytes
        if word.size != expected:
            raise ValueError(
                f"transposer expected {expected} bytes "
                f"({rows}x{cols}x{element_bytes}), got {word.size}"
            )
        tile = word.reshape(rows, cols, element_bytes)
        return np.ascontiguousarray(tile.transpose(1, 0, 2)).reshape(-1)

    def process_batch(self, words: np.ndarray) -> np.ndarray:
        rows = int(self.params["rows"])
        cols = int(self.params["cols"])
        element_bytes = int(self.params["element_bytes"])
        expected = rows * cols * element_bytes
        if words.shape[1] != expected:
            raise ValueError(
                f"transposer expected {expected} bytes "
                f"({rows}x{cols}x{element_bytes}), got {words.shape[1]}"
            )
        tiles = words.reshape(len(words), rows, cols, element_bytes)
        return np.ascontiguousarray(tiles.transpose(0, 2, 1, 3)).reshape(
            len(words), -1
        )


class Broadcaster(DatapathExtension):
    """Duplicate a narrow fetch across channels.

    Runtime parameters
    ------------------
    factor:
        Number of copies to produce.  The streamer fetches only
        ``num_channels / factor`` channels from memory; the broadcaster
        replicates the resulting narrow word ``factor`` times so the
        accelerator still receives a full-width word.
    """

    kind = "broadcaster"

    def __init__(self, factor: int = 1) -> None:
        if factor <= 0:
            raise ValueError("broadcast factor must be positive")
        super().__init__(factor=factor)

    def process(self, word: np.ndarray) -> np.ndarray:
        factor = int(self.params["factor"])
        if factor == 1:
            return word
        return np.tile(word, factor)

    def process_batch(self, words: np.ndarray) -> np.ndarray:
        factor = int(self.params["factor"])
        if factor == 1:
            return words
        return np.tile(words, (1, factor))


# ----------------------------------------------------------------------
# Extension registry (plug-and-play instantiation from ExtensionSpec).
# ----------------------------------------------------------------------
_EXTENSION_REGISTRY: Dict[str, Type[DatapathExtension]] = {}


def register_extension(cls: Type[DatapathExtension]) -> Type[DatapathExtension]:
    """Register an extension class under its ``kind`` name.

    Can be used as a decorator on user-defined extensions::

        @register_extension
        class ZeroPadder(DatapathExtension):
            kind = "zero_padder"
            ...
    """
    if not cls.kind:
        raise ValueError("extension classes must define a non-empty 'kind'")
    _EXTENSION_REGISTRY[cls.kind] = cls
    return cls


def registered_extensions() -> Dict[str, Type[DatapathExtension]]:
    """Return a copy of the registry (kind → class)."""
    return dict(_EXTENSION_REGISTRY)


def create_extension(spec: ExtensionSpec) -> DatapathExtension:
    """Instantiate an extension from its design-time spec."""
    cls = _EXTENSION_REGISTRY.get(spec.kind)
    if cls is None:
        raise KeyError(
            f"unknown extension kind {spec.kind!r}; "
            f"registered kinds: {sorted(_EXTENSION_REGISTRY)}"
        )
    return cls(**spec.params_dict())


register_extension(DatapathExtension)
register_extension(Transposer)
register_extension(Broadcaster)


class ExtensionPipeline:
    """Cascade of datapath extensions with automatic bypass."""

    def __init__(self, extensions: Iterable[DatapathExtension] = ()) -> None:
        self.stages: List[DatapathExtension] = list(extensions)

    @staticmethod
    def from_specs(specs: Iterable[ExtensionSpec]) -> "ExtensionPipeline":
        return ExtensionPipeline(create_extension(spec) for spec in specs)

    def __len__(self) -> int:
        return len(self.stages)

    def __iter__(self):
        return iter(self.stages)

    def stage(self, kind: str) -> Optional[DatapathExtension]:
        """Return the first stage of the given kind, if instantiated."""
        for extension in self.stages:
            if extension.kind == kind:
                return extension
        return None

    def set_enables(self, enables: Iterable[bool]) -> None:
        """Program per-stage enable bits (missing entries disable nothing)."""
        for extension, enabled in zip(self.stages, enables):
            extension.set_enabled(enabled)

    def configure_stage(self, kind: str, **runtime_params: object) -> None:
        stage = self.stage(kind)
        if stage is None:
            raise KeyError(f"no extension of kind {kind!r} instantiated")
        stage.configure(**runtime_params)

    def apply(self, word: np.ndarray) -> np.ndarray:
        """Run the cascade on one wide word."""
        for extension in self.stages:
            word = extension.apply(word)
        return word

    def apply_batch(self, words: np.ndarray) -> np.ndarray:
        """Run the cascade on a ``(n, width)`` word batch at once.

        Stage counters advance exactly as ``n`` :meth:`apply` calls would.
        """
        for extension in self.stages:
            words = extension.apply_batch(words)
        return words

    def statistics(self) -> Dict[str, int]:
        stats: Dict[str, int] = {}
        for index, extension in enumerate(self.stages):
            stats[f"{extension.kind}_{index}_processed"] = extension.words_processed
            stats[f"{extension.kind}_{index}_bypassed"] = extension.words_bypassed
        return stats
