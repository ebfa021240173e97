"""Plain-text report formatting shared by the experiments and examples.

All paper tables/figures are regenerated as aligned ASCII tables so they can
be diffed, logged by the benchmark harness and pasted into EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
    float_format: str = "{:.2f}",
) -> str:
    """Render an aligned ASCII table."""
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered: List[str] = []
        for cell in row:
            if isinstance(cell, float):
                rendered.append(float_format.format(cell))
            else:
                rendered.append(str(cell))
        rendered_rows.append(rendered)

    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
            else:
                widths.append(len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        return " | ".join(
            str(cell).ljust(widths[index]) for index, cell in enumerate(cells)
        )

    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(fmt_row([str(h) for h in headers]))
    lines.append("-+-".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append(fmt_row(row))
    return "\n".join(lines)


def format_percentage_map(
    values: Mapping[str, float],
    title: Optional[str] = None,
    reference: Optional[Mapping[str, float]] = None,
) -> str:
    """Render a name → percentage map, optionally next to a paper reference."""
    headers = ["component", "model (%)"]
    if reference is not None:
        headers.append("paper (%)")
    rows = []
    for name, value in values.items():
        row: List[object] = [name, value]
        if reference is not None:
            row.append(reference.get(name, float("nan")))
        rows.append(row)
    return format_table(headers, rows, title=title)


def format_comparison(
    title: str,
    entries: Mapping[str, Mapping[str, float]],
    column_order: Optional[Sequence[str]] = None,
    float_format: str = "{:.3f}",
) -> str:
    """Render a nested mapping {row: {column: value}} as a matrix table."""
    if column_order is None:
        columns: List[str] = []
        for row_values in entries.values():
            for column in row_values:
                if column not in columns:
                    columns.append(column)
    else:
        columns = list(column_order)
    headers = [""] + columns
    rows = []
    for row_name, row_values in entries.items():
        rows.append(
            [row_name] + [row_values.get(column, float("nan")) for column in columns]
        )
    return format_table(headers, rows, title=title, float_format=float_format)


def format_check_marks(
    feature_matrix: Mapping[str, Mapping[str, object]],
    feature_order: Sequence[str],
    title: Optional[str] = None,
) -> str:
    """Render a Table-I-style feature comparison with check/cross marks."""
    headers = ["feature"] + list(feature_matrix.keys())
    rows = []
    for feature in feature_order:
        row: List[object] = [feature]
        for solution, features in feature_matrix.items():
            value = features.get(feature)
            if isinstance(value, bool):
                row.append("yes" if value else "no")
            elif value is None:
                row.append("-")
            else:
                row.append(str(value))
        rows.append(row)
    return format_table(headers, rows, title=title)
