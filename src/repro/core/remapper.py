"""Address remapper: runtime addressing-mode switching (paper §III-D).

The remapper sits between the AGU and the memory interface controllers.  It
turns the logical byte address produced by the AGU into a physical
(bank, wordline, byte offset) location, according to the addressing mode the
host selected at runtime through the ``RS`` CSR.

At design time the remapper is instantiated with the set of bank-group sizes
it must support (``N_BG`` in Table II); each option corresponds to one bit
permutation of the address (Fig. 5(e)) and the runtime selection is just a
multiplexer across them — which is why the paper reports a negligible 0.49%
area cost for this feature.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from ..memory.addressing import (
    AddressingMode,
    BankGeometry,
    BankLocation,
    decode_address,
    decode_word_batch,
    mode_for_group_size,
    normalize_group_size,
)


class AddressRemapper:
    """Runtime-selectable logical-to-physical address mapping."""

    def __init__(
        self, geometry: BankGeometry, group_size_options: Sequence[int]
    ) -> None:
        self.geometry = geometry
        options = []
        for option in group_size_options:
            options.append(normalize_group_size(geometry, option))
        if not options:
            options = [geometry.num_banks]
        # Deduplicate while keeping a deterministic order (largest first so
        # index 0 — the reset value of RS — is fully interleaved).
        unique = sorted(set(options), reverse=True)
        self.group_size_options: Tuple[int, ...] = tuple(unique)
        #: The bank-group size RS selects (one of ``group_size_options``).
        self.selected_group_size = unique[0]

    # ------------------------------------------------------------------
    # Runtime selection (the RS CSR).
    # ------------------------------------------------------------------
    def select_index(self, index: int) -> None:
        """Program RS directly by option index."""
        if not 0 <= index < len(self.group_size_options):
            raise ValueError(
                f"RS index {index} out of range "
                f"(options={self.group_size_options})"
            )
        self.selected_group_size = self.group_size_options[index]

    def select_group_size(self, group_size: int) -> None:
        """Program RS by the desired bank-group size."""
        group_size = normalize_group_size(self.geometry, group_size)
        if group_size not in self.group_size_options:
            raise ValueError(
                f"group size {group_size} was not instantiated at design time "
                f"(options={self.group_size_options})"
            )
        self.selected_group_size = group_size

    # ------------------------------------------------------------------
    # Address translation.
    # ------------------------------------------------------------------
    def decode(self, address: int) -> BankLocation:
        """Translate a logical byte address under the selected mode."""
        return decode_address(address, self.geometry, self.selected_group_size)

    def decode_batch(self, addresses):
        """Vectorized :meth:`decode` over an integer array of addresses of
        a programmed stream, without the byte offsets: ``(banks, lines)``
        arrays of the addresses' type and shape — one numpy evaluation
        instead of one :class:`BankLocation` per address.  No range check: a
        stream's extreme addresses are checked against the scratchpad when
        it is programmed (``DataMaestro.configure``), so every address it
        produces decodes.
        """
        return decode_word_batch(
            addresses // self.geometry.bank_width_bytes,
            self.geometry,
            self.selected_group_size,
        )

    def available_modes(self) -> Dict[int, AddressingMode]:
        """Map every RS index to its addressing mode (for reports)."""
        return {
            index: mode_for_group_size(self.geometry, group_size)
            for index, group_size in enumerate(self.group_size_options)
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AddressRemapper(options={self.group_size_options}, "
            f"selected={self.selected_group_size})"
        )
