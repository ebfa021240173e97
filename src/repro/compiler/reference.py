"""Numpy reference (oracle) implementations of the accelerator kernels.

The cycle-level system moves real int8/int32 data, so every simulation can be
checked end-to-end against these straightforward numpy implementations.  They
are also used by the compiler to produce the ``expected_outputs`` recorded in
each :class:`~repro.compiler.programs.KernelProgram`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def gemm_reference(
    a: np.ndarray,
    b: np.ndarray,
    bias: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``D[M, N] = A[M, K] @ B[K, N] (+ bias[N])`` with int32 accumulation."""
    a = np.asarray(a, dtype=np.int8).astype(np.int32)
    b = np.asarray(b, dtype=np.int8).astype(np.int32)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("GeMM operands must be 2-D matrices")
    if a.shape[1] != b.shape[0]:
        raise ValueError(
            f"inner dimensions do not match: A is {a.shape}, B is {b.shape}"
        )
    # einsum's integer sum of products beats matmul's plain loop here; both
    # accumulate in int32, so the result wraps mod 2**32 either way.
    result = np.einsum("mk,kn->mn", a, b)
    if bias is not None:
        bias = np.asarray(bias, dtype=np.int32).reshape(-1)
        if bias.size != b.shape[1]:
            raise ValueError(
                f"bias has {bias.size} entries, expected {b.shape[1]}"
            )
        result = result + bias[np.newaxis, :]
    return result.astype(np.int32)


def conv2d_reference(
    feature_map: np.ndarray,
    weights: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Direct 2-D convolution ``O[y, x, k]`` with int32 accumulation.

    ``feature_map`` has shape ``[H, W, C]``, ``weights`` ``[FH, FW, C, K]``.
    """
    feature_map = np.asarray(feature_map, dtype=np.int8).astype(np.int32)
    weights = np.asarray(weights, dtype=np.int8).astype(np.int32)
    if feature_map.ndim != 3:
        raise ValueError("feature map must have shape [H, W, C]")
    if weights.ndim != 4:
        raise ValueError("weights must have shape [FH, FW, C, K]")
    if feature_map.shape[2] != weights.shape[2]:
        raise ValueError(
            f"channel mismatch: input has {feature_map.shape[2]}, "
            f"weights have {weights.shape[2]}"
        )
    if stride <= 0:
        raise ValueError("stride must be positive")
    if padding < 0:
        raise ValueError("padding must be non-negative")

    height, width, channels = feature_map.shape
    kernel_h, kernel_w, _, out_channels = weights.shape
    padded = np.pad(
        feature_map,
        ((padding, padding), (padding, padding), (0, 0)),
        mode="constant",
    )
    out_h = (height + 2 * padding - kernel_h) // stride + 1
    out_w = (width + 2 * padding - kernel_w) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError("convolution produces an empty output")

    output = np.zeros((out_h, out_w, out_channels), dtype=np.int64)
    for fy in range(kernel_h):
        for fx in range(kernel_w):
            window = padded[
                fy : fy + out_h * stride : stride,
                fx : fx + out_w * stride : stride,
                :,
            ]
            output += np.einsum("yxc,ck->yxk", window, weights[fy, fx])
    if bias is not None:
        bias = np.asarray(bias, dtype=np.int64).reshape(-1)
        if bias.size != out_channels:
            raise ValueError(f"bias has {bias.size} entries, expected {out_channels}")
        output = output + bias[np.newaxis, np.newaxis, :]
    return output.astype(np.int32)


def im2col_reference(
    feature_map: np.ndarray, kernel_h: int, kernel_w: int, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Explicit im2col: returns the unrolled matrix ``[OY*OX, FH*FW*C]``.

    This is the data-manipulation pass the implicit-im2col feature makes
    unnecessary; the reference is used to validate the implicit access
    pattern and to size the explicit pre-pass cost model.
    """
    feature_map = np.asarray(feature_map)
    height, width, channels = feature_map.shape
    padded = np.pad(
        feature_map,
        ((padding, padding), (padding, padding), (0, 0)),
        mode="constant",
    )
    out_h = (height + 2 * padding - kernel_h) // stride + 1
    out_w = (width + 2 * padding - kernel_w) // stride + 1
    rows = []
    for y in range(out_h):
        for x in range(out_w):
            patch = padded[
                y * stride : y * stride + kernel_h,
                x * stride : x * stride + kernel_w,
                :,
            ]
            rows.append(patch.reshape(-1))
    return np.stack(rows, axis=0)
