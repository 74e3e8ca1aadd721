"""Paper-style table rendering for the bench harness."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class TableResult:
    """One rendered experiment: a title, headers, rows and footnotes."""

    title: str
    headers: list[str]
    rows: list[list[str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *cells) -> None:
        self.rows.append([_fmt(cell) for cell in cells])

    def render(self) -> str:
        return render_table(self)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 1:
            return f"{cell:,.2f}"
        return f"{cell:.6g}"
    if isinstance(cell, int):
        return f"{cell:,}"
    return str(cell)


def render_table(table: TableResult) -> str:
    """Fixed-width text rendering, one experiment per block."""
    widths = [len(h) for h in table.headers]
    for row in table.rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [table.title, "=" * len(table.title)]
    header = "  ".join(
        h.ljust(widths[i]) for i, h in enumerate(table.headers)
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in table.rows:
        lines.append(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )
    for note in table.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)
