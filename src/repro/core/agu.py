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
from typing import Dict, List, Sequence, Tuple


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
        outer, loops, skip = self.blocks(start_step, count)
        inner = self.pass_offsets(loops)
        return (outer[:, None] + inner).ravel()[skip : skip + count]

    def pass_offsets(self, loops: int):
        """The address offsets of one pass through the innermost ``loops``
        loops, in step order."""
        import numpy as np

        steps = np.arange(math.prod(self.bounds[:loops]), dtype=np.int64)
        return self._evaluate(steps, slice(None, loops), 0)

    def blocks(self, start_step: int, count: int, dtype=None):
        """The window ``[start_step, start_step+count)`` as whole passes
        through its inner loops — the innermost loops whose steps fit in
        ``count``: ``(outer, loops, skip)``, where ``outer`` holds the
        address each pass the window touches starts at (in ``dtype``,
        int64 by default), ``loops`` the number of inner loops (see
        :meth:`pass_offsets`), and the window begins ``skip`` steps into
        the first pass.  Evaluates the loop nest on a few short arrays
        instead of once per step — except for a window that lies inside one
        pass (or unit inner loops): then ``loops`` is ``0`` and ``outer``
        holds every step's address, evaluated step by step."""
        import numpy as np

        if start_step < 0 or start_step + count > self.total_iterations:
            raise ValueError(
                f"step window [{start_step}, {start_step + count}) outside "
                f"[0, {self.total_iterations})"
            )
        loops = 0
        radix = 1
        for bound in self.bounds:
            if radix * bound > count:
                break
            loops += 1
            radix *= bound
        first, skip = divmod(start_step, radix)
        if radix == 1 or first == (start_step + count - 1) // radix:
            # Unit loops, or a window inside one pass: no pass is worth
            # evaluating apart, so every step is one.
            loops, radix, first, skip = 0, 1, start_step, 0
        passes = np.arange(first, -(-(start_step + count) // radix), dtype=np.int64)
        outer = self._evaluate(passes, slice(loops, None), self.base_address, dtype)
        return outer, loops, skip

    def _evaluate(self, steps, loops: slice, base: int, dtype=None):
        """``base`` plus the address offsets that the ``loops`` (innermost
        first) give each of ``steps``, a step counted in their radix."""
        import numpy as np

        addresses = np.zeros(len(steps), dtype=dtype or np.int64) + base
        for bound, stride in zip(self.bounds[loops], self.strides[loops]):
            if bound > 1:  # a unit loop contributes nothing
                steps, index = np.divmod(steps, bound)
                addresses += index * stride
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
        #: The temporal addresses' range: the base plus each dimension's
        #: extreme ``(bound - 1) * stride``, every dimension independent.
        self._reach = [self.temporal.base_address] * 2
        for bound, stride in zip(temporal_bounds, temporal_strides):
            self._reach[stride > 0] += (bound - 1) * stride
        lowest, highest = self.extremes()
        #: Every address fits int32, so the address matrices are int32, half
        #: int64's bytes (a partial sum that does not fit wraps, and the
        #: address it adds up to is still exact).
        self._narrow = -(2**31) <= lowest and highest < 2**31
        #: One pass's per-channel offsets by (loops, channels): a memo of a
        #: pure function of the loop nest, not state.
        self._passes: Dict[tuple, object] = {}

    def extremes(self, active_channels: int = 0) -> Tuple[int, int]:
        """The lowest and highest address of the stream on its first
        ``active_channels`` channels (``0``: all) — no address matrix
        needed."""
        offsets = self.spatial.offsets[: active_channels or None]
        return self._reach[0] + min(offsets), self._reach[1] + max(offsets)

    def address_matrix(self, start_step: int, count: int, active_channels: int = 0):
        """Per-channel addresses for bundle steps ``[start, start+count)``.

        Returns an array of shape ``(count, channels)`` whose row ``i``
        holds bundle ``start_step + i``'s address on each channel, int32
        when every address of the stream fits it and int64 otherwise;
        ``active_channels`` keeps the first channels only (when the
        Broadcaster narrows the memory-side fetch), ``0`` keeps them all.
        """
        import numpy as np

        dtype = np.int32 if self._narrow else np.int64
        outer, loops, skip = self.temporal.blocks(start_step, count, dtype)
        offsets = self.spatial.offsets
        if active_channels not in (0, self.spatial.num_points):
            offsets = offsets[:active_channels]
        if not loops:  # a window shorter than the innermost loop
            return outer[:, None] + np.asarray(offsets, dtype=dtype)
        # One pass of the inner loops on every channel, then each pass.
        table = self._passes.get((loops, len(offsets)))
        if table is None:
            inner = self.temporal.pass_offsets(loops)
            table = np.add.outer(inner, offsets, dtype=dtype)
            self._passes[loops, len(offsets)] = table
        matrix = (outer[:, None, None] + table).reshape(-1, len(offsets))
        return matrix[skip : skip + count]


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
