"""Figure 4 — AGU address-generation example.

Regenerates the exact temporal/spatial address sequences of the paper's
Figure 4: a 4×4×4 GeMM mapped on a 2×2×2 PE array, programmed with
``Bt = [2, 2, 2]``, ``St = [4, 0, 8]``, ``Bs = [2, 2]``, ``Ss = [1, 2]``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..analysis.reporting import format_table
from ..core.agu import AddressGenerationUnit

#: The configuration printed in Figure 4(b).
FIGURE4_CONFIG = {
    "temporal_bounds": (2, 2, 2),
    "temporal_strides": (4, 0, 8),
    "spatial_bounds": (2, 2),
    "spatial_strides": (1, 2),
    "base_address": 0,
}

#: The address table of Figure 4(c): per clock cycle, TA and SA0..SA3.
PAPER_FIGURE4_ADDRESSES: List[Tuple[int, Tuple[int, int, int, int]]] = [
    (0, (0, 1, 2, 3)),
    (4, (4, 5, 6, 7)),
    (0, (0, 1, 2, 3)),
    (4, (4, 5, 6, 7)),
    (8, (8, 9, 10, 11)),
    (12, (12, 13, 14, 15)),
    (8, (8, 9, 10, 11)),
    (12, (12, 13, 14, 15)),
]


def run() -> Dict[str, object]:
    """Generate the Figure 4 address sequence with the real AGU model.

    One row per clock cycle: the temporal address of that step
    (``address_batch``) and its four spatial addresses (``address_matrix``),
    both evaluated in closed form for the whole stream at once.
    """
    agu = AddressGenerationUnit(**FIGURE4_CONFIG)
    steps = agu.total_bundles
    temporal = agu.temporal.address_batch(0, steps).tolist()
    spatial = agu.address_matrix(0, steps).tolist()
    rows = [
        {
            "cycle": cycle,
            "temporal_address": address,
            "spatial_addresses": tuple(addresses),
        }
        for cycle, (address, addresses) in enumerate(zip(temporal, spatial))
    ]
    matches_paper = [
        (row["temporal_address"], row["spatial_addresses"]) for row in rows
    ] == PAPER_FIGURE4_ADDRESSES
    return {
        "config": dict(FIGURE4_CONFIG),
        "rows": rows,
        "matches_paper": matches_paper,
    }


def report(results: Dict[str, object]) -> str:
    table = format_table(
        headers=["CC", "TA", "SA0", "SA1", "SA2", "SA3"],
        rows=[
            [row["cycle"], row["temporal_address"], *row["spatial_addresses"]]
            for row in results["rows"]
        ],
        title="Figure 4: N-D affine address generation example (4x4x4 GeMM on 2x2x2 PEs)",
    )
    footer = f"\nmatches the paper's Figure 4(c): {results['matches_paper']}"
    return table + footer


def main() -> str:
    text = report(run())
    print(text)
    return text


if __name__ == "__main__":  # pragma: no cover
    main()
