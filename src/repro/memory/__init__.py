"""Multi-banked scratchpad memory subsystem (banks, crossbar, addressing)."""

from .addressing import (
    AddressingMode,
    BankGeometry,
    BankLocation,
    decode_address,
    decode_address_bit_permutation,
    mode_for_group_size,
    normalize_group_size,
    permutation_spec,
    permute_word_index,
)
from .bank import MemoryBank
from .scratchpad import ScratchpadMemory
from .subsystem import MemoryRequest, MemoryResponse, MemorySubsystem

__all__ = [
    "AddressingMode",
    "BankGeometry",
    "BankLocation",
    "decode_address",
    "decode_address_bit_permutation",
    "mode_for_group_size",
    "normalize_group_size",
    "permutation_spec",
    "permute_word_index",
    "MemoryBank",
    "ScratchpadMemory",
    "MemoryRequest",
    "MemoryResponse",
    "MemorySubsystem",
]
