"""Plain-text table and series rendering used by the benchmark harnesses.

The benchmark scripts regenerate the paper's tables and figures as text: a
table becomes an aligned ASCII table, a figure becomes one row per series with
the x-axis values as columns, so the output can be diffed against the numbers
recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import csv
import io
from typing import Dict, Iterable, Sequence


def format_percent(value: float, digits: int = 1) -> str:
    """Format a fraction as a percentage string (0.915 -> \"91.5%\")."""
    return f"{value * 100:.{digits}f}%"


def format_gflops(value: float, digits: int = 1) -> str:
    """Format a GFLOPS value, switching to TFLOPS above 1000."""
    if value >= 1000:
        return f"{value / 1000:.2f} TFLOPS"
    return f"{value:.{digits}f} GFLOPS"


def render_table(headers: Sequence[str], rows: Iterable[Sequence[str]], title: str = "") -> str:
    """Render an aligned ASCII table."""
    rows = [list(map(str, row)) for row in rows]
    headers = list(map(str, headers))
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(f"row {row} does not match header width {len(headers)}")
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def format_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(format_row(headers))
    lines.append("-+-".join("-" * width for width in widths))
    lines.extend(format_row(row) for row in rows)
    return "\n".join(lines)


def render_csv(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render headers + rows as CSV text (for ``repro.cli explore --format csv``)."""
    rows = [list(row) for row in rows]
    headers = list(headers)
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(f"row {row} does not match header width {len(headers)}")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buffer.getvalue().rstrip("\n")


def render_series(
    x_label: str,
    x_values: Sequence,
    series: Dict[str, Sequence[float]],
    value_formatter=None,
    title: str = "",
) -> str:
    """Render a figure as a table: one row per series, one column per x value."""
    formatter = value_formatter if value_formatter is not None else (lambda value: f"{value:.3g}")
    headers = [x_label] + [str(x) for x in x_values]
    rows = []
    for name, values in series.items():
        if len(values) != len(x_values):
            raise ValueError(f"series {name!r} has {len(values)} values for {len(x_values)} x points")
        rows.append([name] + [formatter(value) for value in values])
    return render_table(headers, rows, title=title)
