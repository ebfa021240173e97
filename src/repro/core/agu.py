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
dimension offsets with an adder tree.  The model holds no counter: a bundle
is a function of its step number, evaluated in closed form for a window of
steps at once (:meth:`TemporalAddressGenerator.address_batch`,
:meth:`AddressGenerationUnit.address_matrix`), and the stream position is
the streamer's ``bundles_generated``.  A multiplication-based reference
(:func:`reference_address_sequence`) walks the loop nest index by index, so
the property-based tests can prove the closed form yields the sequence the
dual counters step through for arbitrary configurations.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, Sequence, Tuple


class TemporalAddressGenerator:
    """Temporal loop nest: one address per step, in closed form."""

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

    def address_batch(self, start_step: int, count: int):
        """Temporal addresses for flat steps ``[start_step, start_step+count)``.

        Vectorized (numpy) mixed-radix evaluation of the nested loops: step
        ``s`` has loop index ``s // radix % bound`` in each dimension, the
        index the dual counters hold after ``s`` ripple-carry steps.  Steps
        beyond :attr:`total_iterations` are not representable and raise
        ``ValueError``.
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
    """Spatial AGU: the per-channel offsets added to every temporal address."""

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
        #: Per-channel offsets added to every temporal address.
        self.offsets = spatial_offsets(self.bounds, self.strides)


class AddressGenerationUnit:
    """Complete AGU: the temporal loop nest and its spatial expansion."""

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
        self.total_bundles = self.temporal.total_iterations

    def address_matrix(self, start_step: int, count: int, active_channels: int = 0):
        """Per-channel addresses for bundle steps ``[start, start+count)``.

        Returns an ``int64`` array of shape ``(count, channels)`` whose row
        ``i`` holds bundle ``start_step + i``'s address on each channel;
        ``active_channels`` keeps the first channels only (when the
        Broadcaster narrows the memory-side fetch), ``0`` keeps them all.
        """
        import numpy as np

        temporal = self.temporal.address_batch(start_step, count)
        offsets = self.spatial.offsets
        if active_channels not in (0, self.spatial.num_points):
            offsets = offsets[:active_channels]
        return temporal[:, None] + np.asarray(offsets, dtype=np.int64)[None, :]


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
    """Full reference sequence: one tuple of channel addresses per step.

    The spatial loop nest enumerates its offsets innermost first, exactly as
    the temporal one enumerates its steps, so the same multiplying walk
    yields them.
    """
    offsets = reference_temporal_addresses(spatial_bounds, spatial_strides)
    temporal = reference_temporal_addresses(
        temporal_bounds, temporal_strides, base_address
    )
    return [tuple(address + offset for offset in offsets) for address in temporal]
