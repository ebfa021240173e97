"""Scratchpad data allocation and addressing-mode selection.

The allocator decides where every operand lives in the scratchpad and which
addressing mode each DataMaestro uses to access it:

* with **addressing-mode switching enabled** (§III-D), each operand region is
  placed in its own group of banks under grouped-interleaved addressing
  (GIMA), so the per-cycle A/B streams never fight over banks and the burst
  C/D/E streams are isolated from them;
* with the feature **disabled** (ablation architectures ①–⑤), every operand
  shares one fully-interleaved (FIMA) address space, allocated contiguously —
  whether streams collide then depends on how their bank windows happen to
  line up, which is exactly the bank-conflict exposure the feature removes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.params import MemoryDesign
from ..utils.packing import ceil_div

#: Alignment of every allocated region, in bytes (one bank word).
REGION_ALIGNMENT = 64


class AllocationError(RuntimeError):
    """Raised when the operands of a kernel do not fit the scratchpad."""


@dataclass(frozen=True)
class RegionAllocation:
    """One allocated operand region."""

    name: str
    base_address: int
    size_bytes: int
    group_size: int


@dataclass
class AllocationPlan:
    """All regions of one kernel plus the addressing mode they use."""

    regions: Dict[str, RegionAllocation] = field(default_factory=dict)

    def add(self, region: RegionAllocation) -> None:
        self.regions[region.name] = region

    def __getitem__(self, name: str) -> RegionAllocation:
        return self.regions[name]

    def __contains__(self, name: str) -> bool:
        return name in self.regions

    def total_bytes(self) -> int:
        return sum(region.size_bytes for region in self.regions.values())


def _align(value: int, alignment: int) -> int:
    return ceil_div(value, alignment) * alignment


class MemoryAllocator:
    """Places operand regions into the scratchpad for one kernel."""

    def __init__(
        self,
        memory: MemoryDesign,
        use_addressing_mode_switching: bool,
        gima_group_size: Optional[int] = None,
    ) -> None:
        self.memory = memory
        self.use_switching = bool(use_addressing_mode_switching)
        options = memory.resolved_group_options()
        if gima_group_size is None:
            # Prefer the largest proper group (i.e. not full interleaving),
            # which gives the most groups while keeping intra-group
            # interleaving wide enough for a whole channel bundle.
            proper = [opt for opt in options if opt not in (memory.num_banks, 1)]
            gima_group_size = proper[0] if proper else memory.num_banks
        if gima_group_size not in options:
            raise ValueError(
                f"GIMA group size {gima_group_size} is not an instantiated "
                f"option {options}"
            )
        self.gima_group_size = gima_group_size
        #: Capacity of one GIMA bank group in bytes.
        self.group_bytes = gima_group_size * memory.bank_depth * memory.bank_width_bytes
        self._fima_cursor = 0
        self._group_cursor = 0
        group_bytes = self.group_bytes
        self._num_groups = memory.capacity_bytes // group_bytes if group_bytes else 0
        self._group_tail: List[int] = [g * group_bytes for g in range(self._num_groups)]

    # ------------------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        return self.memory.capacity_bytes

    # ------------------------------------------------------------------
    def allocate(self, name: str, size_bytes: int) -> RegionAllocation:
        """Allocate ``size_bytes`` for operand ``name``."""
        if size_bytes < 0:
            raise ValueError("allocation size must be non-negative")
        size_bytes = max(size_bytes, REGION_ALIGNMENT)
        if self.use_switching:
            return self._allocate_grouped(name, size_bytes)
        return self._allocate_flat(name, size_bytes)

    def _allocate_flat(self, name: str, size_bytes: int) -> RegionAllocation:
        base = _align(self._fima_cursor, REGION_ALIGNMENT)
        end = base + size_bytes
        if end > self.capacity_bytes:
            raise AllocationError(
                f"operand {name!r} ({size_bytes} B) does not fit: "
                f"{end} > {self.capacity_bytes} B scratchpad"
            )
        self._fima_cursor = end
        return RegionAllocation(
            name=name,
            base_address=base,
            size_bytes=size_bytes,
            group_size=self.memory.num_banks,
        )

    def _allocate_grouped(self, name: str, size_bytes: int) -> RegionAllocation:
        groups_needed = ceil_div(size_bytes, self.group_bytes)
        # First choice: a run of completely fresh groups, so this operand's
        # bank group is disjoint from every previously allocated operand.
        start_group = self._first_fresh_run(groups_needed)
        if start_group is not None:
            base = start_group * self.group_bytes
            self._mark_used(start_group, groups_needed, size_bytes)
            return RegionAllocation(
                name=name,
                base_address=base,
                size_bytes=size_bytes,
                group_size=self.gima_group_size,
            )
        # Fallback: share the group with the most remaining space (small,
        # rarely-accessed operands such as bias rows end up here when the
        # kernel uses more operands than there are bank groups).
        best_group = None
        best_free = -1
        for group in range(self._num_groups):
            group_end = (group + 1) * self.group_bytes
            free = group_end - self._group_tail[group]
            if free > best_free:
                best_free = free
                best_group = group
        if best_group is None or best_free < size_bytes:
            raise AllocationError(
                f"operand {name!r} ({size_bytes} B) does not fit in any bank "
                f"group (largest free span {best_free} B)"
            )
        base = _align(self._group_tail[best_group], REGION_ALIGNMENT)
        if base + size_bytes > (best_group + 1) * self.group_bytes:
            raise AllocationError(
                f"operand {name!r} ({size_bytes} B) does not fit in bank group "
                f"{best_group} after alignment"
            )
        self._group_tail[best_group] = base + size_bytes
        return RegionAllocation(
            name=name,
            base_address=base,
            size_bytes=size_bytes,
            group_size=self.gima_group_size,
        )

    # ------------------------------------------------------------------
    def _first_fresh_run(self, length: int) -> Optional[int]:
        """First index of ``length`` consecutive completely-unused groups."""
        run = 0
        for group, tail in enumerate(self._group_tail):
            # A group is fresh while its tail still sits at its start.
            run = run + 1 if tail == group * self.group_bytes else 0
            if run == length:
                return group - length + 1
        return None

    def _mark_used(self, start_group: int, groups: int, size_bytes: int) -> None:
        base = start_group * self.group_bytes
        end = base + size_bytes
        for group in range(start_group, start_group + groups):
            group_start = group * self.group_bytes
            group_end = (group + 1) * self.group_bytes
            self._group_tail[group] = min(max(end, group_start), group_end)

    def plan(self, sizes: Dict[str, int]) -> AllocationPlan:
        """Allocate every operand of ``sizes`` (in iteration order)."""
        plan = AllocationPlan()
        for name, size in sizes.items():
            plan.add(self.allocate(name, size))
        return plan
