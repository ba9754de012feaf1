"""Plain-text rendering for experiment results.

Every experiment produces one or more :class:`Table` objects; the
renderer prints them as aligned ASCII tables, so ``repro-leakage run``
regenerates the paper's tables and figure series directly on stdout and
into EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from ..errors import ExperimentError


@dataclass(frozen=True)
class Table:
    """One titled, aligned text table."""

    title: str
    headers: Sequence[str]
    rows: Sequence[Sequence[str]]

    def __post_init__(self) -> None:
        width = len(self.headers)
        for row in self.rows:
            if len(row) != width:
                raise ExperimentError(
                    f"table {self.title!r}: row {row!r} does not match "
                    f"{width} headers"
                )

    def render(self) -> str:
        """Aligned ASCII rendering."""
        columns = [self.headers] + [list(row) for row in self.rows]
        widths = [
            max(len(str(row[i])) for row in columns)
            for i in range(len(self.headers))
        ]
        def line(cells: Sequence[str]) -> str:
            return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths)).rstrip()

        separator = "-" * (sum(widths) + 2 * (len(widths) - 1))
        body = "\n".join(line(row) for row in self.rows)
        return f"{self.title}\n{line(self.headers)}\n{separator}\n{body}"


@dataclass
class ExperimentResult:
    """Everything an experiment reports."""

    name: str
    description: str
    tables: List[Table] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def render(self) -> str:
        """Full text report."""
        parts = [f"== {self.name}: {self.description} =="]
        parts.extend(table.render() for table in self.tables)
        if self.notes:
            parts.append("\n".join(f"note: {note}" for note in self.notes))
        return "\n\n".join(parts)


def fmt_pct(fraction: float, digits: int = 1) -> str:
    """Format a 0..1 fraction as a percentage cell."""
    return f"{100.0 * fraction:.{digits}f}"


def fmt_ratio(value: float, digits: int = 3) -> str:
    """Format a plain ratio cell."""
    return f"{value:.{digits}f}"


def table_to_csv(table: Table) -> str:
    """Render one table as CSV (comma-separated, quoted where needed)."""
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(table.headers)
    for row in table.rows:
        writer.writerow(row)
    return buffer.getvalue()


def save_csv(result: "ExperimentResult", directory) -> "List[str]":
    """Write every table of a result as ``<name>_<i>.csv``.

    Returns the written paths; downstream plotting scripts consume these
    instead of scraping the text report.
    """
    from pathlib import Path

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for index, table in enumerate(result.tables):
        path = directory / f"{result.name}_{index}.csv"
        path.write_text(table_to_csv(table), encoding="utf-8")
        paths.append(str(path))
    return paths
