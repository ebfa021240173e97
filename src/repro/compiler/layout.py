"""Tensor data layouts (paper §II-A and Fig. 3).

The compiler places every operand in the scratchpad using a *blocked* layout
matched to the PE-array tiling, so that each wide word the streamers fetch is
one contiguous ``Mu×Ku`` / ``Ku×Nu`` / ``Mu×Nu`` tile:

* GeMM left operand ``A[M, K]`` — block-row-major ``[m2][k2][m1][k1]``
  (Fig. 3(c));
* transposed-GeMM left operand — the memory holds ``A^T`` blocked as
  ``[k2][m2][k1][m1]``, which the Transposer extension turns back into
  ``[m1][k1]`` tiles on the fly;
* GeMM right operand ``B[K, N]`` — blocked ``[k2][n2][k1][n1]``;
* accumulator / output tiles ``[m2][n2][m1][n1]``, int32 or (quantized) int8;
* convolution input — channel-blocked ``C/Ku · H · W · Ku`` (Fig. 3(d));
* convolution weights — ``[fy][fx][c2][n2][c1][n1]`` so each reduction step
  reads one contiguous ``Ku×Nu`` tile.

Every ``pack_*`` function zero-pads the logical tensor up to the tile grid
and returns the flat byte image; :func:`unpack_tiles` is the one inverse, used
to read any kernel's results back.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from ..utils.packing import ceil_div, pad_to_multiple, tile_to_bytes


# ----------------------------------------------------------------------
# GeMM operand and output layouts.
# ----------------------------------------------------------------------
def _blocked(x: np.ndarray, rows: int, cols: int, what: str) -> np.ndarray:
    """Byte image of 2-D ``x`` as ``rows × cols`` tiles: ``[r2][c2][r1][c1]``."""
    if x.ndim != 2:
        raise ValueError(f"{what} must be a 2-D matrix")
    padded = pad_to_multiple(x, (rows, cols))
    tiles_r, tiles_c = padded.shape[0] // rows, padded.shape[1] // cols
    blocked = padded.reshape(tiles_r, rows, tiles_c, cols).transpose(0, 2, 1, 3)
    return tile_to_bytes(blocked)


def pack_gemm_a(a: np.ndarray, mu: int, ku: int) -> np.ndarray:
    """Block-row-major layout of ``A[M, K]`` (int8): ``[m2][k2][m1][k1]``."""
    return _blocked(np.asarray(a, dtype=np.int8), mu, ku, "A")


def pack_gemm_a_transposed(a: np.ndarray, mu: int, ku: int) -> np.ndarray:
    """Layout holding ``A^T`` blocked as ``[k2][m2][k1][m1]`` (int8).

    ``a`` is still passed in its logical ``[M, K]`` orientation; this function
    stores its transpose, which is what a framework would hand the
    accelerator for attention-style ``Q·K^T`` operands.
    """
    return _blocked(np.ascontiguousarray(np.asarray(a, dtype=np.int8).T), ku, mu, "A")


def pack_gemm_b(b: np.ndarray, ku: int, nu: int) -> np.ndarray:
    """Blocked layout of ``B[K, N]`` (int8): ``[k2][n2][k1][n1]``."""
    return _blocked(np.asarray(b, dtype=np.int8), ku, nu, "B")


def pack_tiles(x: np.ndarray, mu: int, nu: int) -> np.ndarray:
    """Blocked output layout ``[m2][n2][m1][n1]`` in the dtype of ``x``."""
    return _blocked(np.asarray(x), mu, nu, "output tensor")


def unpack_tiles(
    data: np.ndarray, dtype: str, shape: Sequence[int], mu: int, nu: int
) -> np.ndarray:
    """Inverse of :func:`pack_tiles`, cropped to the logical ``shape``.

    ``shape`` is ``(rows, cols)``, or ``(..., rows, cols)`` for an output
    whose leading axes each start a fresh run of row tiles — a convolution's
    ``O[y, x, k]`` is written as ``[y][x2][n2][m1][n1]``, ``m1`` indexing
    ``mu`` consecutive columns ``x`` of row ``y``, so it is the matrix case
    with ``out_height · ceil(out_width / mu)`` row tiles.
    """
    *outer, rows, cols = shape
    tiles_m, tiles_n = ceil_div(rows, mu), ceil_div(cols, nu)
    payload = np.asarray(data, dtype=np.uint8).view(dtype)
    expected = math.prod(outer) * tiles_m * tiles_n * mu * nu
    if payload.size != expected:
        raise ValueError(f"expected {expected} {dtype} values, got {payload.size}")
    blocked = payload.reshape(-1, tiles_n, mu, nu).transpose(0, 2, 1, 3)
    full = blocked.reshape(*outer, tiles_m * mu, tiles_n * nu)
    return full[..., :rows, :cols].copy()


# ----------------------------------------------------------------------
# Accumulator-initialisation (bias) layouts.
# ----------------------------------------------------------------------
def pack_bias_rows(bias: np.ndarray, nu: int) -> np.ndarray:
    """Per-output-channel bias stored once per tile column: ``[n2][n1]`` int32.

    This is the compact layout used when the Broadcaster extension is
    enabled: one ``nu``-wide int32 row per output tile column, duplicated
    across PE rows on the fly.
    """
    bias = np.asarray(bias, dtype=np.int32).reshape(-1)
    padded = pad_to_multiple(bias, (nu,))
    return tile_to_bytes(padded.reshape(-1, nu))


def pack_bias_full(bias: np.ndarray, rows: int, cols: int, mu: int, nu: int) -> np.ndarray:
    """Bias materialised as full ``Mu×Nu`` init tiles (Broadcaster disabled).

    Every output tile stores the bias row replicated across its ``mu`` rows —
    the redundant-memory situation the Broadcaster avoids.
    """
    bias = np.asarray(bias, dtype=np.int32).reshape(-1)
    if bias.size < cols:
        raise ValueError(f"bias has {bias.size} entries, need at least {cols}")
    full = np.tile(bias[:cols], (rows, 1))
    return pack_tiles(full, mu, nu)


# ----------------------------------------------------------------------
# Convolution layouts.
# ----------------------------------------------------------------------
def pack_conv_input(feature_map: np.ndarray, ku: int) -> Tuple[np.ndarray, Tuple[int, int, int]]:
    """Channel-blocked input layout ``[c2][h][w][c1]`` (int8).

    Returns the byte image plus the padded ``(height, width, channels)`` so
    the caller can compute AGU strides.  ``feature_map`` has shape
    ``[H, W, C]`` and is expected to already include any spatial zero padding
    the convolution requires.
    """
    feature_map = np.asarray(feature_map, dtype=np.int8)
    if feature_map.ndim != 3:
        raise ValueError("convolution input must have shape [H, W, C]")
    padded = pad_to_multiple(feature_map, (1, 1, ku))
    height, width, channels = padded.shape
    tiles_c = channels // ku
    blocked = padded.reshape(height, width, tiles_c, ku).transpose(2, 0, 1, 3)
    return tile_to_bytes(blocked), (height, width, channels)


def pack_conv_weights(weights: np.ndarray, ku: int, nu: int) -> np.ndarray:
    """Blocked weight layout ``[fy][fx][c2][n2][c1][n1]`` (int8).

    ``weights`` has shape ``[FH, FW, C, K]``; each reduction step of the
    implicit GeMM reads one contiguous ``ku × nu`` tile.
    """
    weights = np.asarray(weights, dtype=np.int8)
    if weights.ndim != 4:
        raise ValueError("convolution weights must have shape [FH, FW, C, K]")
    padded = pad_to_multiple(weights, (1, 1, ku, nu))
    kernel_h, kernel_w, channels, out_channels = padded.shape
    tiles_c = channels // ku
    tiles_n = out_channels // nu
    blocked = padded.reshape(
        kernel_h, kernel_w, tiles_c, ku, tiles_n, nu
    ).transpose(0, 1, 2, 4, 3, 5)
    return tile_to_bytes(blocked)
