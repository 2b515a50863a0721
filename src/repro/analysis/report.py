"""Plain-text table rendering for the CLI and the examples."""

from __future__ import annotations

from typing import Iterable, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render an aligned ASCII table."""
    str_rows = [[_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))

    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)
