"""CSR-level programming model for DataMaestro.

The paper's evaluation system programs every DataMaestro through a set of
control/status registers written by the RISC-V host (base address, temporal
bounds/strides, spatial strides, addressing-mode selection ``RS``, extension
enables) followed by a start command.  This module reproduces that interface:

* :class:`CsrAddressMap` lays out the register file of a given
  :class:`~repro.core.params.StreamerDesign`; the layout is a property of
  the frozen design alone, so :func:`csr_address_map` builds it once per
  design and both directions below share it;
* :func:`encode_runtime_config` lowers a
  :class:`~repro.core.params.StreamerRuntimeConfig` into a list of
  ``(offset, value)`` CSR writes;
* :func:`decode_runtime_config` re-assembles the runtime config from a
  register image, proving the encoding is lossless (tested round-trip).

The compiler emits CSR write lists, and
:class:`repro.system.host.HostProcessor` plays them into the streamers —
mirroring how the real system is driven, while the rest of the simulator only
ever sees the decoded :class:`StreamerRuntimeConfig`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from .params import StreamerDesign, StreamerRuntimeConfig

#: Number of 32-bit parameter slots reserved per datapath extension.
EXTENSION_PARAM_SLOTS = 4

#: Register word size in bytes (RV32 host).
CSR_WORD_BYTES = 4


class CsrAddressMap:
    """Register layout of one DataMaestro, derived from its design."""

    def __init__(self, design: StreamerDesign) -> None:
        self.design = design
        self._fields: Dict[str, int] = {}
        offset = 0

        def alloc(name: str) -> int:
            nonlocal offset
            self._fields[name] = offset
            offset += CSR_WORD_BYTES
            return offset - CSR_WORD_BYTES

        # The offsets of each register group, for the encoder and decoder.
        self.base_offset = alloc("base_address")
        dims = range(design.temporal_dims)
        self.bound_offsets = tuple(alloc(f"temporal_bound_{i}") for i in dims)
        self.stride_offsets = tuple(alloc(f"temporal_stride_{i}") for i in dims)
        self.spatial_offsets = tuple(
            alloc(f"spatial_stride_{i}") for i in range(design.spatial_dims)
        )
        self.mode_offset = alloc("addressing_mode")
        self.active_offset = alloc("active_channels")
        self.enable_offset = alloc("extension_enable")
        self.extension_offsets = tuple(
            tuple(
                alloc(f"extension_{ext_index}_param_{slot}")
                for slot in range(EXTENSION_PARAM_SLOTS)
            )
            for ext_index in range(len(design.extensions))
        )
        alloc("start")
        alloc("status")
        self.size_bytes = offset

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._fields)


@lru_cache(maxsize=256)
def csr_address_map(design: StreamerDesign) -> CsrAddressMap:
    """The register layout of ``design``, built once per distinct design.

    Keyed on the frozen design only — every job on the same hardware shares
    the map, and nothing about a kernel can reach the key.
    """
    return CsrAddressMap(design)


# ----------------------------------------------------------------------
# Extension runtime-parameter packing.
# ----------------------------------------------------------------------
def _pack_extension_params(kind: str, params: Dict[str, object]) -> List[int]:
    """Pack known extension runtime parameters into integer slots."""
    slots = [0] * EXTENSION_PARAM_SLOTS
    if kind == "transposer":
        slots[0] = int(params.get("rows", 8))
        slots[1] = int(params.get("cols", 8))
        slots[2] = int(params.get("element_bytes", 1))
    elif kind == "broadcaster":
        slots[0] = int(params.get("factor", 1))
    else:
        # Custom extensions may use up to EXTENSION_PARAM_SLOTS integer
        # parameters named p0..p3.
        for slot in range(EXTENSION_PARAM_SLOTS):
            slots[slot] = int(params.get(f"p{slot}", 0))
    return slots


def _unpack_extension_params(kind: str, slots: Sequence[int]) -> Dict[str, object]:
    if kind == "transposer":
        return {
            "rows": int(slots[0]),
            "cols": int(slots[1]),
            "element_bytes": int(slots[2]),
        }
    if kind == "broadcaster":
        return {"factor": int(slots[0])}
    return {f"p{index}": int(value) for index, value in enumerate(slots) if value}


# ----------------------------------------------------------------------
# Runtime-config <-> CSR-write-list conversion.
# ----------------------------------------------------------------------
def encode_runtime_config(
    design: StreamerDesign,
    runtime: StreamerRuntimeConfig,
    group_size_options: Sequence[int],
) -> List[Tuple[int, int]]:
    """Lower a runtime config into ``(offset, value)`` CSR writes."""
    runtime.validate_against(design)
    csr_map = csr_address_map(design)
    options = list(group_size_options)
    if runtime.bank_group_size not in options:
        raise ValueError(
            f"{design.name}: bank group size {runtime.bank_group_size} is not "
            f"one of the instantiated options {options}"
        )
    writes: List[Tuple[int, int]] = [(csr_map.base_offset, runtime.base_address)]
    # Unused temporal dimensions are programmed as bound 1, stride 0.
    unused = design.temporal_dims - len(runtime.temporal_bounds)
    bounds = runtime.temporal_bounds + (1,) * unused
    strides = runtime.temporal_strides + (0,) * unused
    for bound_at, stride_at, bound, stride in zip(
        csr_map.bound_offsets, csr_map.stride_offsets, bounds, strides
    ):
        writes.append((bound_at, bound))
        writes.append((stride_at, stride))
    writes.extend(zip(csr_map.spatial_offsets, runtime.spatial_strides))
    writes.append((csr_map.mode_offset, options.index(runtime.bank_group_size)))
    writes.append(
        (csr_map.active_offset, runtime.active_channels or design.num_channels)
    )
    enables = runtime.extension_enables or (True,) * len(design.extensions)
    enable_mask = 0
    for bit, enabled in enumerate(enables):
        if enabled:
            enable_mask |= 1 << bit
    writes.append((csr_map.enable_offset, enable_mask))
    ext_params = runtime.extension_params_dict()
    for offsets, spec in zip(csr_map.extension_offsets, design.extensions):
        params = dict(ext_params.get(spec.kind, {}))
        writes.extend(zip(offsets, _pack_extension_params(spec.kind, params)))
    return writes


def decode_runtime_config(
    design: StreamerDesign,
    register_image: Dict[int, int],
    group_size_options: Sequence[int],
) -> StreamerRuntimeConfig:
    """Re-assemble a runtime config from a register image (offset → value)."""
    csr_map = csr_address_map(design)
    options = list(group_size_options)
    read = register_image.get

    temporal_bounds = []
    temporal_strides = []
    for bound_at, stride_at in zip(csr_map.bound_offsets, csr_map.stride_offsets):
        temporal_bounds.append(int(read(bound_at, 1)))
        temporal_strides.append(int(read(stride_at, 0)))
    # Trim trailing unit dimensions so the decoded config matches what the
    # compiler emitted (unused dims are programmed with bound=1, stride=0).
    while (
        len(temporal_bounds) > 1
        and temporal_bounds[-1] == 1
        and temporal_strides[-1] == 0
    ):
        temporal_bounds.pop()
        temporal_strides.pop()

    spatial_strides = []
    for offset in csr_map.spatial_offsets:
        spatial_strides.append(int(read(offset, 0)))
    mode_index = int(read(csr_map.mode_offset, 0))
    if not 0 <= mode_index < len(options):
        raise ValueError(f"decoded RS index {mode_index} out of range for {options}")
    enable_mask = int(read(csr_map.enable_offset, 0))
    enables = []
    extension_params = []
    for bit, (offsets, spec) in enumerate(
        zip(csr_map.extension_offsets, design.extensions)
    ):
        enables.append(bool(enable_mask & (1 << bit)))
        slots = []
        for offset in offsets:
            slots.append(int(read(offset, 0)))
        params = _unpack_extension_params(spec.kind, slots)
        if params:
            extension_params.append((spec.kind, tuple(sorted(params.items()))))
    active = int(read(csr_map.active_offset, design.num_channels))
    return StreamerRuntimeConfig(
        base_address=int(read(csr_map.base_offset, 0)),
        temporal_bounds=tuple(temporal_bounds),
        temporal_strides=tuple(temporal_strides),
        spatial_strides=tuple(spatial_strides),
        bank_group_size=options[mode_index],
        active_channels=active if active != design.num_channels else None,
        extension_enables=tuple(enables),
        extension_params=tuple(extension_params),
    )
