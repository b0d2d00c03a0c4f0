"""The table model behind every text table and CSV series, and its two renderers."""

from __future__ import annotations

import csv
import io
from typing import Mapping, NamedTuple

# A float prints with 5 decimals in text and repr in CSV, a string as is, and
# None marks a missing value: "-" in text, empty in CSV.
Cell = float | str | None


class Table(NamedTuple):
    """The one model every text table and CSV series renders from.

    columns holds (csv key, text title) pairs; mean, when present, maps csv
    keys to the mean-fit-error row's cells (other columns stay blank).
    """

    columns: tuple[tuple[str, str], ...]
    rows: tuple[tuple[Cell, ...], ...]
    mean: Mapping[str, Cell] | None = None

    def select(self, keys: Mapping[str, str]) -> Table:
        """The columns named by keys, renamed to keys' values, without the mean row."""
        index = {key: i for i, (key, _) in enumerate(self.columns)}
        picks = [index[key] for key in keys]
        return Table(
            tuple((name, name) for name in keys.values()),
            tuple(tuple(row[i] for i in picks) for row in self.rows),
        )

    def body(self, mean_label: str) -> list[list[Cell]]:
        """The rows, then the mean row led by mean_label if there is one."""
        rows = [list(row) for row in self.rows]
        if self.mean is not None:
            rows.append([mean_label] + [self.mean.get(k, "") for k, _ in self.columns[1:]])
        return rows


def _fmt(value: float) -> str:
    return f"{value:.5f}"


def render_text(table: Table) -> str:
    """The aligned text form of a table: floats to 5 decimals, None as "-"."""
    rows = [[title for _, title in table.columns]] + [
        ["-" if c is None else c if isinstance(c, str) else _fmt(c) for c in row]
        for row in table.body("(mean fit error)")
    ]
    widths = [max(len(row[i]) for row in rows) for i in range(len(table.columns))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def render_csv(table: Table) -> str:
    """The one CSV form of a table: floats as repr, None as an empty cell, and
    csv quoting for any cell that holds a comma, quote or line break."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([key for key, _ in table.columns])
    for row in table.body("mean_fit_error"):
        writer.writerow(
            ["" if c is None else c if isinstance(c, str) else repr(c) for c in row]
        )
    return buf.getvalue()
