"""Shared experiment harness: result containers and text reporting.

Every ``fig*`` module returns an :class:`ExperimentResult`; the bench
suite asserts on its ``values`` and the ``main()`` entry points print
:func:`format_table` renderings — the same rows/series the paper's
figures plot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


@dataclass
class ExperimentResult:
    """A named experiment outcome.

    Attributes:
        experiment: identifier, e.g. "fig08-accuracy".
        values: flat metric map, e.g. {"TempAlarm/CB-P/accuracy": 0.98}.
        rows: ordered table rows for display.
        columns: column headers for :attr:`rows`.
        notes: free-form provenance (seeds, horizons, parameters).
    """

    experiment: str
    values: Dict[str, float] = field(default_factory=dict)
    rows: List[List[str]] = field(default_factory=list)
    columns: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def value(self, key: str) -> float:
        if key not in self.values:
            raise KeyError(
                f"{self.experiment}: no metric {key!r}; "
                f"available: {sorted(self.values)[:10]}..."
            )
        return self.values[key]


def format_table(
    columns: Sequence[str],
    rows: Sequence[Sequence[str]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned ASCII table."""
    widths = [len(str(header)) for header in columns]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(str(cell)))

    def render_row(cells: Sequence[str]) -> str:
        return "  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(cells))

    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(render_row(columns))
    lines.append("  ".join("-" * width for width in widths))
    for row in rows:
        lines.append(render_row(row))
    return "\n".join(lines)


def print_result(result: ExperimentResult) -> None:
    """Print an experiment result as its table plus notes."""
    print(format_table(result.columns, result.rows, title=result.experiment))
    for note in result.notes:
        print(f"  note: {note}")


def percent(value: float) -> str:
    """Format a fraction as a percentage string."""
    return f"{100.0 * value:.0f}%"

