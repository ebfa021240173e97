"""Workload-to-system mapping: the "customized compiler" of the paper (§IV-A).

``compile_workload`` lowers a workload specification onto a
:class:`~repro.system.design.AcceleratorSystemDesign`:

1. deterministic int8 operand data and the numpy oracle result are produced;
2. operands are packed into their blocked data layouts and placed in the
   scratchpad by the :class:`~repro.compiler.allocator.MemoryAllocator`
   (choosing per-operand bank groups when addressing-mode switching is
   enabled);
3. the runtime configuration of every DataMaestro port — AGU bounds/strides,
   spatial strides, addressing mode, extension enables — is derived from the
   dataflow and the data layout, and also lowered to CSR writes;
4. any explicit data-manipulation pre-pass a disabled feature requires
   (software transpose, software im2col) is recorded with its cost;
5. the GeMM-core job, optional quantizer configuration, result read-back
   locations and expected outputs complete the
   :class:`~repro.compiler.programs.KernelProgram`.

The mapping implemented here is the output-stationary dataflow of Fig. 3:
``for m2 / for n2 / for k2`` with an ``Mu × Nu × Ku`` spatial tile, and the
6-D implicit-im2col walk for convolutions.  It is *one* dataflow: a workload
kind (``compile_gemm``, ``compile_conv``) generates its operands and states
only the affine walk of its A and B streamers, its output loop nest, its
oracle and the pre-pass a disabled feature costs it; steps 2, 3 and 5 — the
whole bias / output side — are emitted once, by ``_lower``.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..accelerators.gemm_core import GemmJob
from ..accelerators.quantizer import QuantizationConfig, rescale_tile
from ..core.csr import encode_runtime_config
from ..core.params import FeatureSet, StreamerRuntimeConfig
from ..memory.subsystem import MemorySubsystem
from ..utils.packing import ceil_div
from ..workloads.spec import ConvWorkload, GemmWorkload, Workload
from . import layout
from .allocator import AllocationError, MemoryAllocator
from .programs import KernelProgram, PrePass, ReadbackSpec, TensorLoad
from .reference import conv2d_reference, gemm_reference

# The system design lives in repro.system but only as plain data; importing
# it here does not create a dependency cycle (repro.system.system imports
# compiler.programs, not this module).
from ..system.design import AcceleratorSystemDesign


# ----------------------------------------------------------------------
# Deterministic operand generation.
# ----------------------------------------------------------------------
def _workload_rng(workload: Workload, seed: int) -> np.random.Generator:
    digest = zlib.crc32(workload.name.encode("utf-8"))
    return np.random.default_rng((digest ^ (seed * 0x9E3779B1)) & 0xFFFFFFFF)


def _random_int8(rng: np.random.Generator, shape: Tuple[int, ...]) -> np.ndarray:
    return rng.integers(-64, 64, size=shape, dtype=np.int64).astype(np.int8)


def _random_bias(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.integers(-512, 512, size=size, dtype=np.int64).astype(np.int32)


def _quantization_for(expected: np.ndarray) -> QuantizationConfig:
    """Pick a shift so the rescaled output spans (but fits) the int8 range."""
    max_abs = int(np.max(np.abs(expected))) if expected.size else 0
    shift = 0
    while (max_abs >> shift) > 127:
        shift += 1
    return QuantizationConfig(multiplier=1, shift=shift, zero_point=0)


# ----------------------------------------------------------------------
# The one lowering: everything a workload kind does not decide.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Walk:
    """How one streamer is programmed: the affine walk and, for an operand,
    the byte image it walks over (``None`` for the output port).

    The ``temporal_bounds`` of the A and B walks are ``(*reduction, tiles_n,
    *nest)``, innermost first: the reduction loops of one output tile, then
    the output-tile loops every port of the kernel shares.
    """

    image: Optional[np.ndarray]
    temporal_bounds: Tuple[int, ...]
    temporal_strides: Tuple[int, ...]
    spatial_strides: Tuple[int, ...]
    extension_enables: Tuple[bool, ...] = ()
    extension_params: Tuple[Tuple[str, object], ...] = ()
    active_channels: Optional[int] = None


def _dense_strides(unit: int, bounds: Sequence[int]) -> Tuple[int, ...]:
    """Byte strides of the dense walk of ``unit``-byte items over ``bounds``."""
    strides: List[int] = []
    for bound in bounds:
        strides.append(unit)
        unit *= bound
    return tuple(strides)


def _channel_strides(system: AcceleratorSystemDesign, port: str) -> Tuple[int, ...]:
    """Spatial strides giving channel ``ch`` the byte range ``[8ch, 8ch+8)``."""
    design = system.streamer(port)
    return _dense_strides(design.bank_width_bytes, design.spatial_bounds)


def _dma_prepass(name: str, words: int, system: AcceleratorSystemDesign) -> PrePass:
    """An explicit DMA pass reading and writing ``words`` scratchpad words.

    The DMA is modelled as sustaining ``dma_words_per_cycle`` word transfers
    per cycle, with read and write of the same word counted as one transfer
    (the DMA pipeline overlaps them).
    """
    cycles = ceil_div(2 * words, 2 * system.dma_words_per_cycle)
    return PrePass(name=name, word_reads=words, word_writes=words, cycles=cycles)


def _lower(
    workload: Workload,
    system: AcceleratorSystemDesign,
    features: FeatureSet,
    *,
    a: _Walk,
    b: _Walk,
    bias: Optional[np.ndarray],
    nest: Tuple[int, ...],
    expected: np.ndarray,
    prepasses: List[PrePass],
    metadata: Dict[str, object],
    region_order: Tuple[str, ...],
) -> KernelProgram:
    """Emit the output-stationary kernel of Fig. 3 around two operand walks.

    ``nest`` holds the output-tile loops outside ``tiles_n``, innermost
    first; ``expected`` is the int32 oracle, whose last axis is the output
    channels.  C, D and E all walk ``(tiles_n, *nest)`` densely, one tile per
    step — except the broadcast bias, which re-reads one row per tile column.
    ``region_order`` breaks ties between equally sized operand regions.
    """
    mu, nu = system.gemm_mu, system.gemm_nu
    word = system.memory.bank_width_bytes
    cols = expected.shape[-1]
    tiles_m, tiles_n = math.prod(nest), ceil_div(cols, nu)
    output_bounds = (tiles_n, *nest)
    tiles_k = math.prod(a.temporal_bounds[: -len(output_bounds)])
    tile_acc = mu * nu * 4
    out, tile_out = ("E", mu * nu) if workload.quantize else ("D", tile_acc)
    use_broadcaster = bias is not None and features.broadcaster

    # ------------------------------------------------------------------
    # The bias walk, region sizes and placement.
    # ------------------------------------------------------------------
    operands = {"A": a, "B": b}
    if use_broadcaster:
        # One int32 row per tile column, re-read for every output tile.
        operands["C"] = _Walk(
            layout.pack_bias_rows(bias, nu),
            output_bounds,
            (nu * 4,) + (0,) * len(nest),
            _channel_strides(system, "C"),
            (True,),
            (("broadcaster", (("factor", mu),)),),
            active_channels=(nu * 4) // word,
        )
    elif bias is not None:
        operands["C"] = _Walk(
            layout.pack_bias_full(bias, tiles_m * mu, cols, mu, nu),
            output_bounds,
            _dense_strides(tile_acc, output_bounds),
            _channel_strides(system, "C"),
            (False,),
        )
    sizes = {
        name: int(operands[name].image.size)
        for name in region_order
        if name in operands
    }
    sizes[out] = tiles_m * tiles_n * tile_out
    # Allocate the largest regions first so multi-group operands always find
    # a fresh run of bank groups; the sort is stable, so equal sizes keep
    # ``region_order`` (the output region last).
    allocator = MemoryAllocator(system.memory, features.addressing_mode_switching)
    try:
        plan = allocator.plan(
            {name: sizes[name] for name in sorted(sizes, key=sizes.get, reverse=True)}
        )
    except AllocationError as error:
        raise AllocationError(
            f"workload {workload.name!r} does not fit the "
            f"{system.memory.capacity_bytes} B scratchpad: {error}"
        ) from None

    # ------------------------------------------------------------------
    # Streamer runtime configurations.
    # ------------------------------------------------------------------
    output = _Walk(
        None,
        output_bounds,
        _dense_strides(tile_out, output_bounds),
        _channel_strides(system, out),
    )
    configs = {
        name: StreamerRuntimeConfig(
            base_address=plan[name].base_address,
            temporal_bounds=walk.temporal_bounds,
            temporal_strides=walk.temporal_strides,
            spatial_strides=walk.spatial_strides,
            bank_group_size=plan[name].group_size,
            active_channels=walk.active_channels,
            extension_enables=walk.extension_enables,
            extension_params=walk.extension_params,
            label=f"{workload.name}.{name}",
        )
        for name, walk in {**operands, out: output}.items()
    }
    options = list(system.group_size_options())
    csr_writes = {
        name: encode_runtime_config(system.streamer(name), runtime, options)
        for name, runtime in configs.items()
    }

    # ------------------------------------------------------------------
    # Quantizer, oracle, read-back.
    # ------------------------------------------------------------------
    quant_config: Optional[QuantizationConfig] = None
    if workload.quantize:
        quant_config = _quantization_for(expected)
        expected = rescale_tile(expected.reshape(-1, cols), quant_config).reshape(
            expected.shape
        )
    readback = ReadbackSpec(
        out,
        plan[out].base_address,
        sizes[out],
        plan[out].group_size,
        str(expected.dtype),
        expected.shape,
    )
    return KernelProgram(
        workload=workload,
        features=features,
        job=GemmJob(
            tiles_m=tiles_m,
            tiles_n=tiles_n,
            tiles_k=tiles_k,
            use_init_stream=bias is not None,
        ),
        streamer_configs=configs,
        csr_writes=csr_writes,
        tensor_loads=[
            TensorLoad(name, plan[name].base_address, walk.image, plan[name].group_size)
            for name, walk in operands.items()
        ],
        prepasses=prepasses,
        quant_config=quant_config,
        readbacks={out: readback},
        expected_outputs={out: expected},
        metadata={
            **metadata,
            "mu": mu,
            "nu": nu,
            "use_broadcaster": use_broadcaster,
            "allocation": {name: plan[name].base_address for name in plan.regions},
        },
    )


# ----------------------------------------------------------------------
# GeMM / transposed-GeMM: two 3-D walks over blocked matrices.
# ----------------------------------------------------------------------
def compile_gemm(
    workload: GemmWorkload,
    system: AcceleratorSystemDesign,
    features: FeatureSet,
    seed: int = 0,
) -> KernelProgram:
    """Lower a (transposed-)GeMM workload onto the evaluation system."""
    mu, nu, ku = system.gemm_mu, system.gemm_nu, system.gemm_ku
    tiles_m, tiles_n, tiles_k = workload.tile_counts(mu, nu, ku)
    tile_a, tile_b = mu * ku, ku * nu

    rng = _workload_rng(workload, seed)
    a = _random_int8(rng, (workload.m, workload.k))
    b = _random_int8(rng, (workload.k, workload.n))
    bias = _random_bias(rng, workload.n) if workload.with_bias else None

    # ``for m2 / for n2 / for k2``, innermost first.
    bounds = (tiles_k, tiles_n, tiles_m)
    use_transposer = workload.transposed_a and features.transposer
    if use_transposer:
        # Memory holds A^T; the Transposer turns each tile back on the fly.
        a_walk = _Walk(
            layout.pack_gemm_a_transposed(a, mu, ku),
            bounds,
            (tiles_m * tile_a, 0, tile_a),
            (ku,),
            (True,),
            (("transposer", (("cols", mu), ("element_bytes", 1), ("rows", ku))),),
        )
    else:
        a_walk = _Walk(
            layout.pack_gemm_a(a, mu, ku),
            bounds,
            (tile_a, 0, tiles_k * tile_a),
            (ku,),
            (False,),
        )
    b_walk = _Walk(
        layout.pack_gemm_b(b, ku, nu), bounds, (tiles_n * tile_b, tile_b, 0), (nu,)
    )

    prepasses: List[PrePass] = []
    if workload.transposed_a and not features.transposer:
        a_words = int(a_walk.image.size) // system.memory.bank_width_bytes
        prepasses.append(_dma_prepass("software_transpose_A", a_words, system))

    return _lower(
        workload,
        system,
        features,
        a=a_walk,
        b=b_walk,
        bias=bias,
        nest=(tiles_m,),
        expected=gemm_reference(a, b, bias),
        prepasses=prepasses,
        metadata={
            "kind": "gemm",
            "rows": workload.m,
            "cols": workload.n,
            "transposed_a": workload.transposed_a,
            "use_transposer": use_transposer,
        },
        # Equally sized regions are placed in this order, and addresses decide
        # bank conflicts: the order is behaviour (it differs from conv's by
        # historical accident) and changing it needs a ``__version__`` bump.
        region_order=("C", "A", "B"),
    )


# ----------------------------------------------------------------------
# Convolution: two 6-D walks (implicit im2col dataflow).
# ----------------------------------------------------------------------
def compile_conv(
    workload: ConvWorkload,
    system: AcceleratorSystemDesign,
    features: FeatureSet,
    seed: int = 0,
) -> KernelProgram:
    """Lower a 2-D convolution onto the evaluation system."""
    mu, nu, ku = system.gemm_mu, system.gemm_nu, system.gemm_ku
    tile_b = ku * nu
    stride = workload.stride
    out_h, out_w = workload.out_height, workload.out_width
    tiles_x = ceil_div(out_w, mu)
    tiles_n = ceil_div(workload.out_channels, nu)
    tiles_c = ceil_div(workload.in_channels, ku)

    rng = _workload_rng(workload, seed)
    feature_map = _random_int8(
        rng, (workload.in_height, workload.in_width, workload.in_channels)
    )
    weights = _random_int8(
        rng,
        (
            workload.kernel_h,
            workload.kernel_w,
            workload.in_channels,
            workload.out_channels,
        ),
    )
    bias = _random_bias(rng, workload.out_channels) if workload.with_bias else None

    # Input feature map, spatially padded and widened to cover the padded
    # output tile grid (extra columns compute throw-away outputs).
    padded_h = workload.in_height + 2 * workload.padding
    logical_w = workload.in_width + 2 * workload.padding
    needed_w = (tiles_x * mu - 1) * stride + workload.kernel_w
    staged = np.zeros(
        (padded_h, max(logical_w, needed_w), workload.in_channels), dtype=np.int8
    )
    staged[
        workload.padding : workload.padding + workload.in_height,
        workload.padding : workload.padding + workload.in_width,
        :,
    ] = feature_map
    a_image, (in_h, in_w, _) = layout.pack_conv_input(staged, ku)

    # (c2, fx, fy, n2, x2, y), innermost first.
    bounds = (tiles_c, workload.kernel_w, workload.kernel_h, tiles_n, tiles_x, out_h)
    a_walk = _Walk(
        a_image,
        bounds,
        (
            in_h * in_w * ku,
            ku,
            in_w * ku,
            0,
            mu * stride * ku,
            in_w * stride * ku,
        ),
        (stride * ku,),
        (False,),
    )
    # Weight walk, matching the same reduction order.
    b_walk = _Walk(
        layout.pack_conv_weights(weights, ku, nu),
        bounds,
        (
            tiles_n * tile_b,
            tiles_c * tiles_n * tile_b,
            workload.kernel_w * tiles_c * tiles_n * tile_b,
            tile_b,
            0,
            0,
        ),
        (nu,),
    )

    prepasses: List[PrePass] = []
    needs_explicit_im2col = not features.implicit_im2col and not (
        workload.is_pointwise and stride == 1
    )
    if needs_explicit_im2col:
        tiles_m = out_h * tiles_x
        tiles_k = workload.kernel_h * workload.kernel_w * tiles_c
        im2col_words = (tiles_m * mu) * (tiles_k * ku) // system.memory.bank_width_bytes
        prepasses.append(_dma_prepass("software_im2col", im2col_words, system))

    return _lower(
        workload,
        system,
        features,
        a=a_walk,
        b=b_walk,
        bias=bias,
        nest=(tiles_x, out_h),
        expected=conv2d_reference(
            feature_map, weights, bias, stride=stride, padding=workload.padding
        ),
        prepasses=prepasses,
        metadata={
            "kind": "conv",
            "out_height": out_h,
            "out_width": out_w,
            "out_channels": workload.out_channels,
            "explicit_im2col": needs_explicit_im2col,
        },
        # See compile_gemm: conv has always placed ties in operand order.
        region_order=("A", "B", "C"),
    )


# ----------------------------------------------------------------------
# Dispatch + result extraction.
# ----------------------------------------------------------------------
def compile_workload(
    workload: Workload,
    system: AcceleratorSystemDesign,
    features: Optional[FeatureSet] = None,
    seed: int = 0,
) -> KernelProgram:
    """Lower any supported workload onto ``system``."""
    features = features or FeatureSet.all_enabled()
    if isinstance(workload, GemmWorkload):
        return compile_gemm(workload, system, features, seed)
    if isinstance(workload, ConvWorkload):
        return compile_conv(workload, system, features, seed)
    raise TypeError(f"unsupported workload type {type(workload)!r}")


def extract_outputs(
    program: KernelProgram, memory: MemorySubsystem
) -> Dict[str, np.ndarray]:
    """Read back and unpack the program's outputs from the scratchpad."""
    mu, nu = int(program.metadata["mu"]), int(program.metadata["nu"])
    outputs: Dict[str, np.ndarray] = {}
    for name, readback in program.readbacks.items():
        raw = memory.scratchpad.backdoor_read(
            readback.base_address, readback.size_bytes, readback.group_size
        )
        outputs[name] = layout.unpack_tiles(
            raw, readback.dtype, readback.shape, mu, nu
        )
    return outputs
