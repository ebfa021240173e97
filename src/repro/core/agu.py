"""N-dimensional affine Address Generation Unit (paper §III-B, Fig. 2(d)).

The AGU turns the nested-loop description of a data access pattern

```
for xt[Dt-1] in range(Bt[Dt-1]):
  ...
    for xt[0] in range(Bt[0]):            # one temporal address per cycle
      parfor xs[Ds-1] in range(Bs[Ds-1]):
        ...
          parfor xs[0] in range(Bs[0]):   # N_C spatial addresses per cycle
            addr = Addr_B + Σ St[i]*xt[i] + Σ Ss[j]*xs[j]
```

into a stream of *address bundles*: one bundle per temporal step, each bundle
holding one address per channel (the spatial unrolling).  Dimension index 0
is the innermost loop, matching ``Bt[1]`` in the paper's 1-based notation.

The hardware avoids multipliers on the per-cycle path by keeping a *dual
counter* per temporal dimension — a bound counter holding the loop index and
a stride counter accumulating the address offset — and summing the per-
dimension offsets with an adder tree.  :class:`TemporalAddressGenerator`
models exactly that structure; a multiplication-based reference
(:func:`reference_address_sequence`) is provided so the property-based tests
can prove the two agree for arbitrary configurations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, Sequence, Tuple


@dataclass(frozen=True)
class AddressBundle:
    """All channel addresses generated for one temporal step."""

    temporal_index: Tuple[int, ...]
    temporal_address: int
    addresses: Tuple[int, ...]
    step: int
    last: bool


class TemporalAddressGenerator:
    """Dual-counter temporal address generator (one address per cycle)."""

    def __init__(
        self,
        bounds: Sequence[int],
        strides: Sequence[int],
        base_address: int = 0,
    ) -> None:
        if len(bounds) != len(strides):
            raise ValueError("bounds and strides must have the same length")
        if not bounds:
            raise ValueError("at least one temporal dimension is required")
        if min(bounds) <= 0:
            raise ValueError(f"temporal bounds must be positive, got {bounds}")
        self.bounds = tuple(map(int, bounds))
        self.strides = tuple(map(int, strides))
        self.base_address = int(base_address)
        self.total_iterations = math.prod(self.bounds)
        self.reset()

    def reset(self) -> None:
        """Return to the first iteration of every loop."""
        dims = len(self.bounds)
        # Bound counters (loop indices) and stride counters (address offsets).
        self._indices: List[int] = [0] * dims
        self._offsets: List[int] = [0] * dims
        self.steps_generated = 0
        #: True once every temporal iteration has been produced.
        self.exhausted = False

    # ------------------------------------------------------------------
    def current_indices(self) -> Tuple[int, ...]:
        return tuple(self._indices)

    def current_address(self) -> int:
        """Adder-tree output: base plus the per-dimension offsets."""
        return self.base_address + sum(self._offsets)

    def advance(self) -> None:
        """Move to the next temporal iteration (ripple-carry over dims)."""
        if self.exhausted:
            raise RuntimeError("advance() called on an exhausted temporal AGU")
        self.steps_generated += 1
        for dim in range(len(self.bounds)):
            self._indices[dim] += 1
            self._offsets[dim] += self.strides[dim]
            if self._indices[dim] < self.bounds[dim]:
                return
            # Overflow: clear this dimension and carry into the next one.
            self._indices[dim] = 0
            self._offsets[dim] = 0
        self.exhausted = True


    # ------------------------------------------------------------------
    # Batch evaluation / fast-forward (macro-step fast path, repro.engine).
    # ------------------------------------------------------------------
    def address_batch(self, start_step: int, count: int):
        """Temporal addresses for flat steps ``[start_step, start_step+count)``.

        Vectorized (numpy) mixed-radix evaluation of the nested loops; the
        result is bit-identical to stepping the dual counters ``count``
        times.  Steps beyond :attr:`total_iterations` are not representable
        and raise ``ValueError``.
        """
        import numpy as np

        if start_step < 0 or start_step + count > self.total_iterations:
            raise ValueError(
                f"step window [{start_step}, {start_step + count}) outside "
                f"[0, {self.total_iterations})"
            )
        steps = np.arange(start_step, start_step + count, dtype=np.int64)
        addresses = np.zeros(count, dtype=np.int64) + self.base_address
        radix = 1
        for bound, stride in zip(self.bounds, self.strides):
            if bound > 1:  # a unit loop contributes nothing
                addresses += (steps // radix) % bound * stride
                radix *= bound
        return addresses

    def fast_forward(self, steps: int) -> None:
        """Jump ``steps`` iterations ahead, exactly as ``steps`` advances.

        Leaves the dual counters (and :attr:`exhausted`) in the same state a
        loop of :meth:`advance` calls would: on full exhaustion every
        counter reads zero, mirroring the final ripple-carry overflow.
        """
        if steps < 0:
            raise ValueError("cannot fast-forward a negative number of steps")
        if steps == 0:
            return
        target = self.steps_generated + steps
        if self.exhausted or target > self.total_iterations:
            raise RuntimeError(
                f"fast_forward({steps}) overruns the temporal loop nest "
                f"({self.steps_generated}/{self.total_iterations})"
            )
        self.steps_generated = target
        if target == self.total_iterations:
            self._indices = [0] * len(self.bounds)
            self._offsets = [0] * len(self.bounds)
            self.exhausted = True
            return
        remainder = target
        for dim, bound in enumerate(self.bounds):
            index = remainder % bound
            remainder //= bound
            self._indices[dim] = index
            self._offsets[dim] = index * self.strides[dim]


@lru_cache(maxsize=256)
def spatial_offsets(
    bounds: Tuple[int, ...], strides: Tuple[int, ...]
) -> Tuple[int, ...]:
    """Spatial offsets with dimension 0 innermost, one per channel.

    A pure function of the spatial loop nest, so every AGU with the same
    ``(bounds, strides)`` shares one tuple.
    """
    offsets = [0]
    for bound, stride in zip(bounds, strides):
        offsets = [
            index * stride + offset for index in range(bound) for offset in offsets
        ]
    return tuple(offsets)


class SpatialAddressGenerator:
    """Spatial AGU: expands one temporal address into per-channel addresses."""

    def __init__(self, bounds: Sequence[int], strides: Sequence[int]) -> None:
        if len(bounds) != len(strides):
            raise ValueError("spatial bounds and strides must match in length")
        if not bounds:
            raise ValueError("at least one spatial dimension is required")
        if min(bounds) <= 0:
            raise ValueError(f"spatial bounds must be positive, got {bounds}")
        self.bounds = tuple(map(int, bounds))
        self.strides = tuple(map(int, strides))
        self.num_points = math.prod(self.bounds)
        self._offsets = spatial_offsets(self.bounds, self.strides)

    @property
    def offsets(self) -> Tuple[int, ...]:
        """Per-channel offsets added to every temporal address."""
        return self._offsets

    def expand(self, temporal_address: int, count: int = 0) -> Tuple[int, ...]:
        """Return the channel addresses for ``temporal_address``.

        ``count`` limits the expansion to the first ``count`` channels (used
        when the Broadcaster extension narrows the memory-side fetch).
        """
        offsets = self._offsets if count in (0, self.num_points) else self._offsets[:count]
        return tuple(temporal_address + offset for offset in offsets)


class AddressGenerationUnit:
    """Complete AGU: temporal dual counters + spatial expansion."""

    def __init__(
        self,
        temporal_bounds: Sequence[int],
        temporal_strides: Sequence[int],
        spatial_bounds: Sequence[int],
        spatial_strides: Sequence[int],
        base_address: int = 0,
    ) -> None:
        self.temporal = TemporalAddressGenerator(
            temporal_bounds, temporal_strides, base_address
        )
        self.spatial = SpatialAddressGenerator(spatial_bounds, spatial_strides)

    # ------------------------------------------------------------------
    @property
    def exhausted(self) -> bool:
        return self.temporal.exhausted

    @property
    def total_bundles(self) -> int:
        return self.temporal.total_iterations

    @property
    def bundles_generated(self) -> int:
        return self.temporal.steps_generated

    @property
    def remaining_bundles(self) -> int:
        """Bundles not yet produced — ``0`` means "all addresses generated".

        The event-driven scheduler (:mod:`repro.engine`) uses this as the
        AGU's contribution to the next-event protocol: an exhausted AGU can
        never wake its streamer again, so the streamer reports no
        self-scheduled events once this reaches zero.
        """
        return self.temporal.total_iterations - self.temporal.steps_generated

    def reset(self) -> None:
        self.temporal.reset()

    def next_bundle(self, active_channels: int = 0) -> AddressBundle:
        """Produce the next address bundle and advance the temporal AGU."""
        if self.temporal.exhausted:
            raise RuntimeError("next_bundle() called on an exhausted AGU")
        temporal_address = self.temporal.current_address()
        indices = self.temporal.current_indices()
        step = self.temporal.steps_generated
        addresses = self.spatial.expand(temporal_address, active_channels)
        self.temporal.advance()
        return AddressBundle(
            temporal_index=indices,
            temporal_address=temporal_address,
            addresses=addresses,
            step=step,
            last=self.temporal.exhausted,
        )

    def iter_bundles(self, active_channels: int = 0) -> Iterator[AddressBundle]:
        """Generate every remaining bundle (used by tests and pre-passes)."""
        while not self.temporal.exhausted:
            yield self.next_bundle(active_channels)

    # ------------------------------------------------------------------
    # Batch evaluation / fast-forward (macro-step fast path, repro.engine).
    # ------------------------------------------------------------------
    def address_matrix(self, start_step: int, count: int, active_channels: int = 0):
        """Per-channel addresses for bundle steps ``[start, start+count)``.

        Returns an ``int64`` array of shape ``(count, channels)`` whose row
        ``i`` equals ``next_bundle(active_channels).addresses`` for step
        ``start_step + i`` — the vectorized counterpart of the per-cycle
        bundle stream the macro-step planner evaluates en bloc.
        """
        import numpy as np

        temporal = self.temporal.address_batch(start_step, count)
        offsets = self.spatial.offsets
        if active_channels not in (0, self.spatial.num_points):
            offsets = offsets[:active_channels]
        return temporal[:, None] + np.asarray(offsets, dtype=np.int64)[None, :]

    def fast_forward(self, steps: int) -> None:
        """Advance the temporal loop nest by ``steps`` bundles at once."""
        self.temporal.fast_forward(steps)


# ----------------------------------------------------------------------
# Multiplication-based reference implementation (for verification).
# ----------------------------------------------------------------------
def reference_temporal_addresses(
    bounds: Sequence[int], strides: Sequence[int], base_address: int = 0
) -> List[int]:
    """Temporal address sequence computed with explicit multiplications."""
    if len(bounds) != len(strides):
        raise ValueError("bounds and strides must have the same length")
    addresses: List[int] = []
    total = math.prod(bounds) if bounds else 0
    for flat in range(total):
        remainder = flat
        address = base_address
        for bound, stride in zip(bounds, strides):
            index = remainder % bound
            remainder //= bound
            address += index * stride
        addresses.append(address)
    return addresses


def reference_address_sequence(
    temporal_bounds: Sequence[int],
    temporal_strides: Sequence[int],
    spatial_bounds: Sequence[int],
    spatial_strides: Sequence[int],
    base_address: int = 0,
) -> List[Tuple[int, ...]]:
    """Full reference sequence: one tuple of channel addresses per step."""
    spatial = SpatialAddressGenerator(spatial_bounds, spatial_strides)
    temporal = reference_temporal_addresses(
        temporal_bounds, temporal_strides, base_address
    )
    return [spatial.expand(address) for address in temporal]
