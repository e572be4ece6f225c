"""Plain-text table rendering for experiment reports.

The evaluation harness prints tables shaped like the ones in the paper
(Table 2, Table 3, ...). This module renders them without third-party
dependencies, as GitHub-flavoured markdown or aligned ASCII.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any


def _render_cell(value: Any, float_format: str) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, float_format)
    return str(value)


@dataclass
class Table:
    """A small column-oriented table builder.

    >>> t = Table(["algo", "f1"])
    >>> t.add_row(["ContextRW", 0.23])
    >>> print(t.render())  # doctest: +NORMALIZE_WHITESPACE
    algo       | f1
    -----------+------
    ContextRW  | 0.2300
    """

    columns: Sequence[str]
    rows: list[list[Any]] = field(default_factory=list)
    float_format: str = ".4f"
    title: str | None = None

    def add_row(self, row: Sequence[Any]) -> None:
        """Append one row; ValueError unless it has one cell per column."""
        if len(row) != len(self.columns):
            raise ValueError(
                f"row has {len(row)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(list(row))

    def extend(self, rows: Iterable[Sequence[Any]]) -> None:
        """Append every row of ``rows`` in order (see :meth:`add_row`)."""
        for row in rows:
            self.add_row(row)

    def sorted_by(self, column: str, *, reverse: bool = False) -> "Table":
        """Return a copy sorted by ``column``."""
        index = list(self.columns).index(column)
        clone = Table(list(self.columns), float_format=self.float_format, title=self.title)
        clone.rows = sorted(self.rows, key=lambda row: row[index], reverse=reverse)
        return clone

    def column(self, name: str) -> list[Any]:
        """Return the values of column ``name`` in row order."""
        index = list(self.columns).index(name)
        return [row[index] for row in self.rows]

    def render(self, *, markdown: bool = False) -> str:
        """Render as aligned ASCII (default) or markdown."""
        header = [str(c) for c in self.columns]
        body = [
            [_render_cell(cell, self.float_format) for cell in row] for row in self.rows
        ]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines: list[str] = []
        if self.title:
            lines.append(self.title)
        if markdown:
            lines.append("| " + " | ".join(h.ljust(w) for h, w in zip(header, widths)) + " |")
            lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
            for row in body:
                lines.append(
                    "| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |"
                )
        else:
            lines.append(" | ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
            lines.append("-+-".join("-" * w for w in widths))
            for row in body:
                lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        return "\n".join(lines)

    def to_csv(self) -> str:
        """Render as minimal CSV (cells containing commas are quoted)."""

        def esc(cell: str) -> str:
            return f'"{cell}"' if ("," in cell or '"' in cell) else cell

        out = [",".join(esc(str(c)) for c in self.columns)]
        for row in self.rows:
            out.append(
                ",".join(esc(_render_cell(cell, self.float_format)) for cell in row)
            )
        return "\n".join(out)

    def __len__(self) -> int:
        return len(self.rows)


def format_table(
    columns: Sequence[str],
    rows: Iterable[Sequence[Any]],
    *,
    title: str | None = None,
    markdown: bool = False,
    float_format: str = ".4f",
) -> str:
    """One-shot helper: build and render a :class:`Table`."""
    table = Table(columns, float_format=float_format, title=title)
    table.extend(rows)
    return table.render(markdown=markdown)
