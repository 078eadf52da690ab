"""Plain-text rendering of experiment results.

The CLI prints the same rows/series the paper's figures plot; these
helpers keep the formatting consistent (fixed-width tables, SI-ish
number formatting).
"""

from __future__ import annotations

from typing import Sequence


def format_seconds(seconds: float) -> str:
    """Human-scale duration: µs/ms/s with three significant digits."""
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds:.2f}s"


def format_throughput(eps: float) -> str:
    """Events/second with k/M suffix."""
    if eps >= 1e6:
        return f"{eps / 1e6:.2f}M/s"
    if eps >= 1e3:
        return f"{eps / 1e3:.1f}k/s"
    return f"{eps:.0f}/s"


def render_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Fixed-width ASCII table with right-aligned numeric columns."""
    cells = [[str(h) for h in headers]] + [
        [str(c) for c in row] for row in rows
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for r, row in enumerate(cells):
        line = "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        lines.append(line)
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def print_figure(title: str, table: str) -> None:
    """Print one figure reproduction with a banner."""
    banner = "=" * max(len(title), 8)
    print(f"\n{banner}\n{title}\n{banner}\n{table}")
