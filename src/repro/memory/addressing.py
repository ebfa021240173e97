"""Addressing modes of the multi-banked scratchpad (paper §III-D, Fig. 5).

Three addressing modes map a flat byte address onto (bank, wordline):

* **FIMA** — fully-interleaved: consecutive words round-robin over all banks.
* **NIMA** — non-interleaved: consecutive words fill one bank before moving
  to the next.
* **GIMA** — grouped-interleaved: banks are partitioned into groups of size
  ``G``; words interleave inside a group and groups are filled one after the
  other.

All three are instances of the same formula parameterised by the group size
``G`` (``G == num_banks`` is FIMA, ``G == 1`` is NIMA).  When every quantity
is a power of two the mapping is a pure permutation of address bits, which is
exactly how the hardware address remapper implements it (Fig. 5(e)); both the
arithmetic and the bit-permutation formulations are provided here and are
proven equivalent by the test-suite.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List


class AddressingMode(enum.Enum):
    """Symbolic names of the three supported addressing modes."""

    FULLY_INTERLEAVED = "FIMA"
    GROUPED_INTERLEAVED = "GIMA"
    NON_INTERLEAVED = "NIMA"

    @property
    def short_name(self) -> str:
        return self.value


@dataclass(frozen=True)
class BankGeometry:
    """Physical organisation of the scratchpad memory.

    Attributes
    ----------
    num_banks:
        Total number of banks (``N_BF`` in the paper's Table II).
    bank_width_bytes:
        Width of one bank word in bytes (``W_B`` is given in bits in the
        paper; 64 bits = 8 bytes in the evaluation system).
    bank_depth:
        Number of wordlines per bank.
    """

    num_banks: int
    bank_width_bytes: int
    bank_depth: int

    def __post_init__(self) -> None:
        if self.num_banks <= 0:
            raise ValueError("num_banks must be positive")
        if self.bank_width_bytes <= 0:
            raise ValueError("bank_width_bytes must be positive")
        if self.bank_depth <= 0:
            raise ValueError("bank_depth must be positive")

    @property
    def capacity_bytes(self) -> int:
        """Total scratchpad capacity in bytes."""
        return self.num_banks * self.bank_width_bytes * self.bank_depth

    @property
    def total_words(self) -> int:
        """Total number of addressable words."""
        return self.num_banks * self.bank_depth

    def contains(self, address: int, size: int = 1) -> bool:
        """Whether the byte range ``[address, address+size)`` is in range."""
        return 0 <= address and address + size <= self.capacity_bytes


@dataclass(frozen=True, slots=True)
class BankLocation:
    """A decoded physical location inside the scratchpad."""

    bank: int
    line: int
    byte_offset: int


def normalize_group_size(geometry: BankGeometry, group_size: int) -> int:
    """Validate a group size against the geometry and return it.

    ``group_size`` must divide ``num_banks`` so that groups tile the bank
    array exactly.
    """
    if group_size <= 0:
        raise ValueError(f"group size must be positive, got {group_size}")
    if geometry.num_banks % group_size != 0:
        raise ValueError(
            f"group size {group_size} does not divide the bank count "
            f"{geometry.num_banks}"
        )
    return group_size


def mode_for_group_size(geometry: BankGeometry, group_size: int) -> AddressingMode:
    """Classify a group size as one of the three addressing modes."""
    group_size = normalize_group_size(geometry, group_size)
    if group_size == geometry.num_banks:
        return AddressingMode.FULLY_INTERLEAVED
    if group_size == 1:
        return AddressingMode.NON_INTERLEAVED
    return AddressingMode.GROUPED_INTERLEAVED


def decode_address(
    address: int, geometry: BankGeometry, group_size: int
) -> BankLocation:
    """Decode a flat byte address into (bank, line, byte offset).

    This is the arithmetic formulation valid for any (not necessarily
    power-of-two) geometry.
    """
    if address < 0:
        raise ValueError(f"negative address {address}")
    group_size = normalize_group_size(geometry, group_size)
    byte_offset = address % geometry.bank_width_bytes
    word = address // geometry.bank_width_bytes
    if word >= geometry.total_words:
        raise ValueError(
            f"address {address:#x} exceeds scratchpad capacity "
            f"{geometry.capacity_bytes:#x}"
        )
    words_per_group = group_size * geometry.bank_depth
    group = word // words_per_group
    within = word % words_per_group
    bank_in_group = within % group_size
    line = within // group_size
    bank = group * group_size + bank_in_group
    return BankLocation(bank=bank, line=line, byte_offset=byte_offset)


def decode_address_batch(addresses, geometry: BankGeometry, group_size: int):
    """Vectorized :func:`decode_address` over a numpy array of byte addresses.

    Returns ``(banks, lines, byte_offsets)`` as ``int64`` arrays with the
    same shape as ``addresses``.  Used by the macro-step fast path to
    evaluate the bank mapping of whole address spans at once instead of
    probing one address at a time.
    """
    import numpy as np

    group_size = normalize_group_size(geometry, group_size)
    addresses = np.asarray(addresses, dtype=np.int64)
    if addresses.size and int(addresses.min()) < 0:
        raise ValueError("negative address in batch")
    byte_offset = addresses % geometry.bank_width_bytes
    word = addresses // geometry.bank_width_bytes
    if addresses.size and int(word.max()) >= geometry.total_words:
        raise ValueError(
            f"address batch exceeds scratchpad capacity "
            f"{geometry.capacity_bytes:#x}"
        )
    bank, line = decode_word_batch(word, geometry, group_size)
    return bank, line, byte_offset


def decode_word_batch(words, geometry: BankGeometry, group_size: int):
    """``(banks, lines)`` of a numpy array of word indices.

    The arithmetic of :func:`decode_address_batch` without its checks, for a
    caller that has already proven every index lies in ``[0, total_words)``
    and validated ``group_size`` — the address remapper, whose streams are
    range-checked when they are programmed.
    """
    # ``x - x // d * d`` is the floor remainder ``x % d``, in numpy's
    # faster integer operations.
    words_per_group = group_size * geometry.bank_depth
    group = words // words_per_group
    within = words - group * words_per_group
    line = within // group_size
    return (group - line) * group_size + within, line


# ----------------------------------------------------------------------
# Bit-permutation formulation (hardware address remapper, Fig. 5(e)).
# ----------------------------------------------------------------------
def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


def _log2(value: int) -> int:
    if not _is_power_of_two(value):
        raise ValueError(f"{value} is not a power of two")
    return value.bit_length() - 1


def permutation_spec(geometry: BankGeometry, group_size: int) -> List[int]:
    """Return the word-index bit permutation implementing ``group_size``.

    The returned list maps *destination* bit position -> *source* bit
    position, where the destination word index is interpreted by a canonical
    fully-interleaved decoder (bank = low ``log2(num_banks)`` bits, line =
    high bits).  Requires power-of-two geometry, exactly as the hardware
    remapper does.
    """
    group_size = normalize_group_size(geometry, group_size)
    bank_bits = _log2(geometry.num_banks)
    line_bits = _log2(geometry.bank_depth)
    intra_bits = _log2(group_size)
    group_bits = bank_bits - intra_bits

    # Logical word-index bit layout (LSB first):
    #   [0, intra_bits)                     intra-group bank select
    #   [intra_bits, intra_bits+line_bits)  wordline select
    #   [intra_bits+line_bits, ...)         group select
    # Destination (canonical FIMA) layout (LSB first):
    #   [0, intra_bits)                     intra-group bank select
    #   [intra_bits, bank_bits)             group select
    #   [bank_bits, bank_bits+line_bits)    wordline select
    spec: List[int] = []
    for dest in range(intra_bits):
        spec.append(dest)
    for dest in range(group_bits):
        spec.append(intra_bits + line_bits + dest)
    for dest in range(line_bits):
        spec.append(intra_bits + dest)
    return spec


def permute_word_index(word: int, spec: List[int]) -> int:
    """Apply a bit permutation produced by :func:`permutation_spec`."""
    result = 0
    for dest, src in enumerate(spec):
        if (word >> src) & 1:
            result |= 1 << dest
    return result


def decode_address_bit_permutation(
    address: int, geometry: BankGeometry, group_size: int
) -> BankLocation:
    """Decode via the hardware-style bit permutation (power-of-two only)."""
    byte_offset = address % geometry.bank_width_bytes
    word = address // geometry.bank_width_bytes
    if word >= geometry.total_words:
        raise ValueError(
            f"address {address:#x} exceeds scratchpad capacity "
            f"{geometry.capacity_bytes:#x}"
        )
    spec = permutation_spec(geometry, group_size)
    permuted = permute_word_index(word, spec)
    bank = permuted % geometry.num_banks
    line = permuted // geometry.num_banks
    return BankLocation(bank=bank, line=line, byte_offset=byte_offset)
