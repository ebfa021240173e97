"""Synthetic DNN workload suite used by the ablation study (paper §IV-B).

The paper evaluates 260 synthetic workloads split into three groups — GeMM,
transposed GeMM and convolution — with "various matrix sizes ... along with
diverse feature map sizes, channels, kernel sizes, and strides ...
effectively representing typical Transformer and CNN layers".

This module regenerates such a suite deterministically: 100 GeMM, 80
transposed GeMM and 80 convolution workloads whose dimensions are drawn from
structured grids representative of Transformer projections/attention blocks
and CNN stages, but scaled so that all operands of one kernel fit the 128 KiB
scratchpad of the evaluation system and a pure-Python cycle simulation stays
tractable.  A stratified subset selector is provided so the default Fig. 7
run can cover every corner of the grid in seconds; the full suite is
selected with ``REPRO_FULL_SUITE=1`` (see ``tests/experiments/``).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence

from .generate import _conv_fits, _gemm_fits
from .spec import ConvWorkload, GemmWorkload, Workload, WorkloadGroup

#: Number of workloads per group in the full suite (totals 260 as in §IV-B).
FULL_SUITE_COUNTS = {
    WorkloadGroup.GEMM: 100,
    WorkloadGroup.TRANSPOSED_GEMM: 80,
    WorkloadGroup.CONVOLUTION: 80,
}

# Dimension grids.  GeMM sizes follow typical Transformer sub-layer shapes
# (token counts × hidden/FFN slices); convolutions follow CNN stages with
# pointwise, 3x3, 5x5 and 7x7 kernels and unit / downsampling strides.  The
# sizes are scaled so that all operands of one kernel fit the 128 KiB
# scratchpad (the real layers are tiled to the same footprint by the host).
_GEMM_M = (32, 48, 64, 80, 96, 128)
_GEMM_N = (32, 48, 64, 96)
_GEMM_K = (32, 64, 96, 128, 160, 192)

_CONV_FMAPS = ((16, 16), (14, 14), (12, 12), (10, 10))
_CONV_CHANNELS = ((16, 16), (16, 32), (32, 32), (32, 16), (8, 32), (24, 24))
_CONV_KERNELS = ((1, 1), (3, 3), (5, 5), (7, 7))
_CONV_STRIDES = (1, 2)


def _gemm_dimension_grid() -> List[tuple]:
    """Deterministic (M, N, K) grid ordered to interleave small and large."""
    combos = [
        (m, n, k)
        for m, n, k in itertools.product(_GEMM_M, _GEMM_N, _GEMM_K)
        if _gemm_fits(m, n, k)
    ]
    # Interleave by round-robin over K so consecutive entries differ in shape.
    combos.sort(key=lambda mnk: (mnk[2], mnk[0], mnk[1]))
    return combos


def _conv_dimension_grid() -> List[tuple]:
    combos = []
    for (height, width), (cin, cout), (kh, kw), stride in itertools.product(
        _CONV_FMAPS, _CONV_CHANNELS, _CONV_KERNELS, _CONV_STRIDES
    ):
        if kh > height or kw > width:
            continue
        if stride > 1 and (kh == 1 or height < 2 * kh):
            # Strided pointwise layers are rare; skip degenerate cases.
            continue
        if not _conv_fits(height, width, cin, cout, kh, kw, stride):
            continue
        combos.append((height, width, cin, cout, kh, kw, stride))
    return combos


def generate_gemm_workloads(
    count: int, transposed: bool = False, with_bias: bool = True
) -> List[GemmWorkload]:
    """Generate ``count`` (transposed-)GeMM workloads from the grid."""
    grid = _gemm_dimension_grid()
    if count > len(grid):
        raise ValueError(
            f"requested {count} GeMM workloads but the grid only has {len(grid)}"
        )
    prefix = "tgemm" if transposed else "gemm"
    workloads = []
    for index in range(count):
        m, n, k = grid[index]
        workloads.append(
            GemmWorkload(
                name=f"{prefix}_m{m}_n{n}_k{k}",
                m=m,
                n=n,
                k=k,
                transposed_a=transposed,
                with_bias=with_bias,
            )
        )
    return workloads


def generate_conv_workloads(count: int, with_bias: bool = True) -> List[ConvWorkload]:
    """Generate ``count`` convolution workloads from the grid."""
    grid = _conv_dimension_grid()
    if count > len(grid):
        raise ValueError(
            f"requested {count} convolution workloads but the grid only has "
            f"{len(grid)}"
        )
    workloads = []
    for index in range(count):
        height, width, cin, cout, kh, kw, stride = grid[index]
        workloads.append(
            ConvWorkload(
                name=f"conv_h{height}_w{width}_c{cin}_k{cout}_f{kh}x{kw}_s{stride}",
                in_height=height,
                in_width=width,
                in_channels=cin,
                out_channels=cout,
                kernel_h=kh,
                kernel_w=kw,
                stride=stride,
                with_bias=with_bias,
            )
        )
    return workloads


def synthetic_suite(
    counts: Optional[Dict[WorkloadGroup, int]] = None,
) -> Dict[WorkloadGroup, List[Workload]]:
    """Build the synthetic workload suite.

    Parameters
    ----------
    counts:
        Number of workloads per group; defaults to the paper's 100/80/80.
    """
    counts = dict(FULL_SUITE_COUNTS if counts is None else counts)
    suite: Dict[WorkloadGroup, List[Workload]] = {}
    suite[WorkloadGroup.GEMM] = list(
        generate_gemm_workloads(counts.get(WorkloadGroup.GEMM, 0), transposed=False)
    )
    suite[WorkloadGroup.TRANSPOSED_GEMM] = list(
        generate_gemm_workloads(
            counts.get(WorkloadGroup.TRANSPOSED_GEMM, 0), transposed=True
        )
    )
    suite[WorkloadGroup.CONVOLUTION] = list(
        generate_conv_workloads(counts.get(WorkloadGroup.CONVOLUTION, 0))
    )
    return suite


def stratified_subset(
    workloads: Sequence[Workload], count: int
) -> List[Workload]:
    """Pick ``count`` workloads spread evenly across the sequence.

    Used by the default Fig. 7 run: the full grid is ordered so that an
    even stride through it covers small/large and unit/strided cases.
    """
    if count <= 0:
        return []
    if count >= len(workloads):
        return list(workloads)
    step = len(workloads) / count
    indices = sorted({int(i * step) for i in range(count)})
    return [workloads[index] for index in indices]
