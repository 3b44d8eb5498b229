"""Result formatting: the rows/series the paper's tables and figures show.

The benchmarks print through these helpers so every experiment emits the
same normalised presentation the paper uses (Figure 2 normalises each
panel to its fastest configuration).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

__all__ = ["normalise", "Series", "format_grouped_bars", "format_table"]

#: Character columns of the longest bar in :func:`format_grouped_bars`.
BAR_COLUMNS = 40


def normalise(values: Mapping[str, float], baseline: Optional[str] = None) -> Dict[str, float]:
    """Divide every value by the baseline (default: the minimum value).

    Matches Figure 2's presentation, where the fastest configuration in
    each panel reads 1.0.
    """
    if not values:
        return {}
    base = values[baseline] if baseline is not None else min(values.values())
    if base <= 0:
        raise ValueError("baseline value must be positive")
    return {key: value / base for key, value in values.items()}


@dataclass(frozen=True)
class Series:
    """One bar series: a label (e.g. "RS(12,9)") and per-group values."""

    label: str
    values: Mapping[str, float]


def format_grouped_bars(
    title: str,
    groups: Sequence[str],
    series: Sequence[Series],
) -> str:
    """ASCII rendition of a grouped bar chart (one Figure 2 panel).

    Bars scale to :data:`BAR_COLUMNS` characters at the peak value;
    values are ratios, printed with an ``x``.
    """
    lines = [title, "=" * len(title)]
    peak = max(
        (s.values[g] for s in series for g in groups if g in s.values),
        default=1.0,
    )
    for group in groups:
        lines.append(group)
        for s in series:
            if group not in s.values:
                continue
            value = s.values[group]
            bar = "#" * max(1, round(BAR_COLUMNS * value / peak))
            lines.append(f"  {s.label:<16} {bar} {value:.2f}x")
    return "\n".join(lines)


def format_table(
    title: str,
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> str:
    """Plain-text table with aligned columns (Table 2/3 style)."""
    rendered_rows = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(str(columns[i])), *(len(r[i]) for r in rendered_rows))
        if rendered_rows
        else len(str(columns[i]))
        for i in range(len(columns))
    ]
    def fmt(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(width) for cell, width in zip(cells, widths))

    lines = [title, fmt([str(c) for c in columns]), "-+-".join("-" * w for w in widths)]
    lines.extend(fmt(row) for row in rendered_rows)
    return "\n".join(lines)
