"""Workload specifications: GeMM, transposed GeMM and convolution kernels.

These are the three workload groups of the paper's ablation study (§IV-B):
general matrix-matrix multiplication, GeMM with a transposed left operand
(pervasive in attention layers), and 2-D convolution.  A workload spec is a
purely logical description — sizes, stride, whether a bias/init tensor is
consumed and whether the output is re-quantized — and is consumed by the
compiler (:mod:`repro.compiler`) which lowers it onto the evaluation system.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Tuple, Union

from ..utils.packing import ceil_div


class WorkloadGroup(enum.Enum):
    """The three workload categories used throughout the evaluation."""

    GEMM = "gemm"
    TRANSPOSED_GEMM = "transposed_gemm"
    CONVOLUTION = "convolution"


@dataclass(frozen=True)
class GemmWorkload:
    """A dense ``C[M, N] (+)= A[M, K] @ B[K, N]`` kernel.

    ``transposed_a`` marks that the left operand is stored K-major (i.e. the
    memory holds ``A^T``), the situation the Transposer extension targets.
    """

    name: str
    m: int
    n: int
    k: int
    transposed_a: bool = False
    with_bias: bool = True
    quantize: bool = False

    def __post_init__(self) -> None:
        if self.m <= 0 or self.n <= 0 or self.k <= 0:
            raise ValueError(f"{self.name}: GeMM dimensions must be positive")

    # ------------------------------------------------------------------
    @property
    def group(self) -> WorkloadGroup:
        if self.transposed_a:
            return WorkloadGroup.TRANSPOSED_GEMM
        return WorkloadGroup.GEMM

    @property
    def macs(self) -> int:
        return self.m * self.n * self.k

    def tile_counts(self, mu: int, nu: int, ku: int) -> Tuple[int, int, int]:
        """(tiles_m, tiles_n, tiles_k) when mapped on an Mu×Nu×Ku array."""
        return (ceil_div(self.m, mu), ceil_div(self.n, nu), ceil_div(self.k, ku))

    def ideal_compute_cycles(self, mu: int, nu: int, ku: int) -> int:
        tiles_m, tiles_n, tiles_k = self.tile_counts(mu, nu, ku)
        return tiles_m * tiles_n * tiles_k

    def scaled(self, name: str, **changes: object) -> "GemmWorkload":
        """Copy with modified fields (used to build representative crops)."""
        return replace(self, name=name, **changes)


@dataclass(frozen=True)
class ConvWorkload:
    """A 2-D convolution ``O[X, Y, K] = Σ I[sX+fx, sY+fy, C] · W[fx, fy, C, K]``."""

    name: str
    in_height: int
    in_width: int
    in_channels: int
    out_channels: int
    kernel_h: int = 3
    kernel_w: int = 3
    stride: int = 1
    padding: int = 0
    with_bias: bool = True
    quantize: bool = False

    def __post_init__(self) -> None:
        if min(self.in_height, self.in_width, self.in_channels, self.out_channels) <= 0:
            raise ValueError(f"{self.name}: convolution dimensions must be positive")
        if self.kernel_h <= 0 or self.kernel_w <= 0:
            raise ValueError(f"{self.name}: kernel dimensions must be positive")
        if self.stride <= 0:
            raise ValueError(f"{self.name}: stride must be positive")
        if self.padding < 0:
            raise ValueError(f"{self.name}: padding must be non-negative")
        if self.out_height <= 0 or self.out_width <= 0:
            raise ValueError(f"{self.name}: output feature map would be empty")

    # ------------------------------------------------------------------
    @property
    def group(self) -> WorkloadGroup:
        return WorkloadGroup.CONVOLUTION

    @property
    def out_height(self) -> int:
        return (self.in_height + 2 * self.padding - self.kernel_h) // self.stride + 1

    @property
    def out_width(self) -> int:
        return (self.in_width + 2 * self.padding - self.kernel_w) // self.stride + 1

    @property
    def output_pixels(self) -> int:
        return self.out_height * self.out_width

    @property
    def macs(self) -> int:
        return (
            self.output_pixels
            * self.out_channels
            * self.in_channels
            * self.kernel_h
            * self.kernel_w
        )

    @property
    def is_strided(self) -> bool:
        return self.stride > 1

    @property
    def is_pointwise(self) -> bool:
        return self.kernel_h == 1 and self.kernel_w == 1

    def as_gemm_dims(self, mu: int, nu: int, ku: int) -> Tuple[int, int, int]:
        """The implicit-GeMM view: M = output pixels, N = out channels,
        K = kernel positions × input channels (rounded to the PE tiling)."""
        tiles_m = ceil_div(self.output_pixels, mu)
        tiles_n = ceil_div(self.out_channels, nu)
        tiles_k = self.kernel_h * self.kernel_w * ceil_div(self.in_channels, ku)
        return (tiles_m, tiles_n, tiles_k)

    def ideal_compute_cycles(self, mu: int, nu: int, ku: int) -> int:
        tiles_m, tiles_n, tiles_k = self.as_gemm_dims(mu, nu, ku)
        return tiles_m * tiles_n * tiles_k

    def scaled(self, name: str, **changes: object) -> "ConvWorkload":
        return replace(self, name=name, **changes)


Workload = Union[GemmWorkload, ConvWorkload]


def workload_group(workload: Workload) -> WorkloadGroup:
    """Return the workload's group (GeMM / transposed GeMM / convolution)."""
    return workload.group
