"""Design-time parameters and runtime configuration of a DataMaestro.

This module is the Python rendition of the paper's Table II.  A
:class:`StreamerDesign` captures everything that is fixed when the hardware
is generated (number of channels, FIFO depths, spatial loop structure, which
datapath extensions are instantiated, ...), while a
:class:`StreamerRuntimeConfig` captures everything the host programs through
CSRs before launching a kernel (base address, temporal bounds and strides,
spatial strides, addressing-mode selection, extension enables).

The module also defines :class:`FeatureSet`, the switchboard used by the
ablation study of Figure 7: each of the paper's architecture points ①–⑥ is a
particular combination of these switches.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple

from ..memory.addressing import BankGeometry


class StreamerMode(enum.Enum):
    """Whether a DataMaestro reads from or writes to the scratchpad."""

    READ = "read"
    WRITE = "write"


@dataclass(frozen=True)
class ExtensionSpec:
    """Design-time description of one datapath extension slot.

    Attributes
    ----------
    kind:
        Registered extension kind (``"transposer"``, ``"broadcaster"``, or a
        user-registered custom kind).
    params:
        Static parameters forwarded to the extension constructor.
    """

    kind: str
    params: Tuple[Tuple[str, object], ...] = ()

    @staticmethod
    def make(kind: str, **params: object) -> "ExtensionSpec":
        return ExtensionSpec(kind=kind, params=tuple(sorted(params.items())))

    def params_dict(self) -> Dict[str, object]:
        return dict(self.params)


@dataclass(frozen=True)
class StreamerDesign:
    """Design-time parameters of one DataMaestro (Table II, top half)."""

    name: str
    mode: StreamerMode
    num_channels: int
    spatial_bounds: Tuple[int, ...]
    temporal_dims: int
    bank_width_bits: int = 64
    address_buffer_depth: int = 8
    data_buffer_depth: int = 8
    extensions: Tuple[ExtensionSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.num_channels <= 0:
            raise ValueError(f"{self.name}: num_channels must be positive")
        if self.temporal_dims <= 0:
            raise ValueError(f"{self.name}: temporal_dims must be positive")
        if self.bank_width_bits % 8 != 0 or self.bank_width_bits <= 0:
            raise ValueError(f"{self.name}: bank_width_bits must be a multiple of 8")
        if self.address_buffer_depth <= 0 or self.data_buffer_depth <= 0:
            raise ValueError(f"{self.name}: FIFO depths must be positive")
        if not self.spatial_bounds:
            raise ValueError(f"{self.name}: at least one spatial dimension required")
        if any(bound <= 0 for bound in self.spatial_bounds):
            raise ValueError(f"{self.name}: spatial bounds must be positive")
        spatial_points = math.prod(self.spatial_bounds)
        if spatial_points != self.num_channels:
            raise ValueError(
                f"{self.name}: product of spatial bounds ({spatial_points}) must "
                f"equal the number of channels ({self.num_channels})"
            )

    # ------------------------------------------------------------------
    @property
    def spatial_dims(self) -> int:
        """``D_s`` in the paper."""
        return len(self.spatial_bounds)

    @property
    def bank_width_bytes(self) -> int:
        return self.bank_width_bits // 8

    @property
    def word_bytes(self) -> int:
        """Width of the assembled wide word handed to the accelerator."""
        return self.num_channels * self.bank_width_bytes

    @property
    def is_read(self) -> bool:
        return self.mode is StreamerMode.READ

    @property
    def is_write(self) -> bool:
        return self.mode is StreamerMode.WRITE


@dataclass(frozen=True)
class StreamerRuntimeConfig:
    """Runtime (CSR-programmed) configuration of one DataMaestro.

    All strides are byte strides, exactly as the paper's affine address
    formula ``Addr = Addr_B + Σ St[i]·xt[i] + Σ Ss[j]·xs[j]``.
    """

    base_address: int
    temporal_bounds: Tuple[int, ...]
    temporal_strides: Tuple[int, ...]
    spatial_strides: Tuple[int, ...]
    bank_group_size: int
    active_channels: Optional[int] = None
    extension_enables: Tuple[bool, ...] = ()
    extension_params: Tuple[Tuple[str, object], ...] = ()
    label: str = ""

    def __post_init__(self) -> None:
        if self.base_address < 0:
            raise ValueError("base_address must be non-negative")
        if len(self.temporal_bounds) != len(self.temporal_strides):
            raise ValueError("temporal bounds and strides must have equal length")
        if self.temporal_bounds and min(self.temporal_bounds) <= 0:
            raise ValueError("temporal bounds must be positive")
        if self.bank_group_size <= 0:
            raise ValueError("bank_group_size must be positive")
        if self.active_channels is not None and self.active_channels <= 0:
            raise ValueError("active_channels must be positive when provided")

    # ------------------------------------------------------------------
    @property
    def total_iterations(self) -> int:
        """Number of temporal steps (wide words) this configuration streams."""
        return math.prod(self.temporal_bounds)

    def extension_params_dict(self) -> Dict[str, object]:
        return dict(self.extension_params)

    def with_updates(self, **changes: object) -> "StreamerRuntimeConfig":
        """Return a copy with selected fields replaced."""
        return replace(self, **changes)

    def validate_against(self, design: StreamerDesign) -> None:
        """Check compatibility of this runtime config with a design."""
        if len(self.temporal_bounds) > design.temporal_dims:
            raise ValueError(
                f"{design.name}: {len(self.temporal_bounds)} temporal dimensions "
                f"requested but only {design.temporal_dims} instantiated"
            )
        if len(self.spatial_strides) != len(design.spatial_bounds):
            raise ValueError(
                f"{design.name}: expected {design.spatial_dims} spatial strides, "
                f"got {len(self.spatial_strides)}"
            )
        active = self.active_channels or design.num_channels
        if active > design.num_channels:
            raise ValueError(
                f"{design.name}: active_channels {active} exceeds the "
                f"{design.num_channels} instantiated channels"
            )
        if design.num_channels % active != 0:
            raise ValueError(
                f"{design.name}: active_channels {active} must divide "
                f"{design.num_channels}"
            )
        if self.extension_enables and len(self.extension_enables) != len(
            design.extensions
        ):
            raise ValueError(
                f"{design.name}: {len(self.extension_enables)} extension enables "
                f"given but the design instantiates {len(design.extensions)}"
            )


@dataclass(frozen=True)
class MemoryDesign:
    """Design-time description of the scratchpad memory subsystem."""

    num_banks: int
    bank_width_bits: int
    capacity_bytes: int
    group_size_options: Tuple[int, ...] = ()
    read_latency: int = 1

    def __post_init__(self) -> None:
        if self.bank_width_bits % 8 != 0:
            raise ValueError("bank_width_bits must be a multiple of 8")
        width_bytes = self.bank_width_bits // 8
        if self.capacity_bytes % (self.num_banks * width_bytes) != 0:
            raise ValueError(
                "capacity must be a whole number of wordlines per bank"
            )
        for option in self.group_size_options:
            if option <= 0 or self.num_banks % option != 0:
                raise ValueError(
                    f"group size option {option} does not divide {self.num_banks}"
                )

    @property
    def bank_width_bytes(self) -> int:
        return self.bank_width_bits // 8

    @property
    def bank_depth(self) -> int:
        return self.capacity_bytes // (self.num_banks * self.bank_width_bytes)

    def geometry(self) -> BankGeometry:
        return BankGeometry(
            num_banks=self.num_banks,
            bank_width_bytes=self.bank_width_bytes,
            bank_depth=self.bank_depth,
        )

    def resolved_group_options(self) -> Tuple[int, ...]:
        """Group-size options with FIMA/NIMA always available as endpoints."""
        options = set(self.group_size_options)
        options.add(self.num_banks)
        options.add(1)
        return tuple(sorted(options, reverse=True))


@dataclass(frozen=True)
class FeatureSet:
    """Runtime feature switchboard used by the ablation study (Fig. 7).

    Each flag enables one of the paper's architectural features:

    * ``fine_grained_prefetch`` — §III-C, asynchronous per-channel prefetch
      gated by the Outstanding Request Manager.
    * ``transposer`` — §III-E, on-the-fly tile transposition (otherwise a
      software transpose pre-pass through the scratchpad is required).
    * ``broadcaster`` — §III-E, on-the-fly duplication of per-channel data
      (otherwise the duplicated tensor is materialised in memory).
    * ``implicit_im2col`` — §IV-A, convolution input streamed directly via a
      6-D temporal pattern (otherwise a software im2col pre-pass is needed).
    * ``addressing_mode_switching`` — §III-D, per-operand GIMA/NIMA placement
      (otherwise everything lives in a single fully-interleaved region).
    """

    fine_grained_prefetch: bool = True
    transposer: bool = True
    broadcaster: bool = True
    implicit_im2col: bool = True
    addressing_mode_switching: bool = True

    @staticmethod
    def all_enabled() -> "FeatureSet":
        return FeatureSet()

    @staticmethod
    def all_disabled() -> "FeatureSet":
        return FeatureSet(
            fine_grained_prefetch=False,
            transposer=False,
            broadcaster=False,
            implicit_im2col=False,
            addressing_mode_switching=False,
        )

    def as_dict(self) -> Dict[str, bool]:
        return {
            "fine_grained_prefetch": self.fine_grained_prefetch,
            "transposer": self.transposer,
            "broadcaster": self.broadcaster,
            "implicit_im2col": self.implicit_im2col,
            "addressing_mode_switching": self.addressing_mode_switching,
        }

    def with_updates(self, **changes: bool) -> "FeatureSet":
        return replace(self, **changes)


# ----------------------------------------------------------------------
# Ablation ladder of Figure 7: architectures ① through ⑥.
# ----------------------------------------------------------------------
ABLATION_STEPS: Tuple[Tuple[str, FeatureSet], ...] = (
    ("1_baseline", FeatureSet.all_disabled()),
    (
        "2_prefetch",
        FeatureSet.all_disabled().with_updates(fine_grained_prefetch=True),
    ),
    (
        "3_transposer",
        FeatureSet.all_disabled().with_updates(
            fine_grained_prefetch=True, transposer=True
        ),
    ),
    (
        "4_broadcaster",
        FeatureSet.all_disabled().with_updates(
            fine_grained_prefetch=True, transposer=True, broadcaster=True
        ),
    ),
    (
        "5_im2col",
        FeatureSet.all_disabled().with_updates(
            fine_grained_prefetch=True,
            transposer=True,
            broadcaster=True,
            implicit_im2col=True,
        ),
    ),
    ("6_full", FeatureSet.all_enabled()),
)


def ablation_feature_sets() -> Dict[str, FeatureSet]:
    """Return the ordered ①–⑥ feature ladder as a name→FeatureSet mapping."""
    return dict(ABLATION_STEPS)


def validate_streamer_designs(
    designs: Sequence[StreamerDesign], memory: MemoryDesign
) -> None:
    """Cross-check a set of streamer designs against the memory design."""
    names = [design.name for design in designs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate streamer names in {names}")
    for design in designs:
        if design.bank_width_bits != memory.bank_width_bits:
            raise ValueError(
                f"{design.name}: bank width {design.bank_width_bits} does not "
                f"match the memory bank width {memory.bank_width_bits}"
            )
        if design.num_channels > memory.num_banks:
            raise ValueError(
                f"{design.name}: {design.num_channels} channels cannot be served "
                f"conflict-free by {memory.num_banks} banks"
            )
