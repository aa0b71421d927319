"""Plain-text tables for experiment output.

Every experiment prints the rows it defines through :class:`Table`, so
the output reads like the paper's evaluation section: one table per
artifact, aligned columns, a caption tying it back to the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

__all__ = ["Table"]


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 1000 or (abs(value) < 0.001 and value != 0):
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".") or "0"
    return str(value)


@dataclass
class Table:
    """A fixed-header table accumulating rows."""

    title: str
    headers: Sequence[str]
    caption: str = ""
    rows: list[list[str]] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.headers):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append([_format_cell(v) for v in values])

    def extend(self, rows: Iterable[Sequence[Any]]) -> None:
        for row in rows:
            self.add_row(*row)

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for k, cell in enumerate(row):
                widths[k] = max(widths[k], len(cell))
        lines = [self.title]
        if self.caption:
            lines.append(self.caption)
        sep = "-+-".join("-" * w for w in widths)
        lines.append(" | ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append(sep)
        for row in self.rows:
            lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()
