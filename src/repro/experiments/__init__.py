"""Experiment modules: one per paper table/figure (importable and runnable).

Each module exposes ``run(...) -> dict`` (the raw data), ``report(results)
-> str`` (a formatted text report) and ``main()`` (print the report).  They
are runnable as ``python -m repro.experiments.<name>``; ``tests/experiments/``
holds each ``run()`` to the shape of the paper's artefact.
"""


from . import (
    fig4_agu,
    fig7_ablation,
    fig8_fpga,
    fig9_breakdown,
    fig10_comparison,
    table1_features,
    table3_networks,
)

#: Registry mapping experiment id (paper table/figure) to its module.
EXPERIMENTS = {
    "table1": table1_features,
    "fig4": fig4_agu,
    "fig7": fig7_ablation,
    "fig8": fig8_fpga,
    "fig9": fig9_breakdown,
    "fig10": fig10_comparison,
    "table3": table3_networks,
}


__all__ = [
    "EXPERIMENTS",
    "table1_features",
    "fig4_agu",
    "fig7_ablation",
    "fig8_fpga",
    "fig9_breakdown",
    "fig10_comparison",
    "table3_networks",
]
