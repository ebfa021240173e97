"""Byte-level packing helpers shared by accelerators, compiler and tests.

The streaming engines move raw bytes (``numpy.uint8`` vectors); the
accelerator datapaths and the compiler's layout code interpret those bytes as
typed tiles.  These helpers centralise the conversion so every component uses
the same little-endian, row-major convention.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np


def tile_to_bytes(tile: np.ndarray) -> np.ndarray:
    """Flatten a typed tile into a fresh row-major little-endian byte image."""
    return tile.copy(order="C").view(np.uint8).reshape(-1)


def bytes_to_tile(
    data: np.ndarray,
    shape: Sequence[int],
    dtype: np.dtype,
    astype: Optional[np.dtype] = None,
) -> np.ndarray:
    """Reinterpret a byte vector as a typed row-major tile of ``shape``.

    The result is a fresh array; ``astype`` converts it to a wider compute
    type in the same (single) copy.
    """
    dtype = np.dtype(dtype)
    expected = math.prod(shape) * dtype.itemsize
    payload = np.ascontiguousarray(data, dtype=np.uint8).reshape(-1)
    if payload.size != expected:
        raise ValueError(
            f"byte buffer has {payload.size} bytes, expected {expected} for "
            f"shape {tuple(shape)} of {dtype}"
        )
    return payload.view(dtype).reshape(shape).astype(astype or dtype)


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer ceiling division."""
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    return -(-numerator // denominator)


def pad_to_multiple(array: np.ndarray, multiples: Tuple[int, ...]) -> np.ndarray:
    """Zero-pad each dimension of ``array`` up to a multiple of ``multiples``.

    Returns ``array`` itself when no dimension needs padding, else a fresh
    zeroed array of the padded shape with ``array`` copied into its corner.
    """
    if array.ndim != len(multiples):
        raise ValueError(
            f"array has {array.ndim} dimensions but {len(multiples)} multiples given"
        )
    shape = []
    for size, multiple in zip(array.shape, multiples):
        if multiple <= 0:
            raise ValueError("padding multiples must be positive")
        shape.append(ceil_div(size, multiple) * multiple)
    if tuple(shape) == array.shape:
        return array
    padded = np.zeros(shape, dtype=array.dtype)
    padded[tuple(map(slice, array.shape))] = array
    return padded
