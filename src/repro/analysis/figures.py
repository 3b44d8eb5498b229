"""Text renderings of the paper's figures.

Each ``render_*`` function takes measured data in the shape the matching
benchmark produces and returns the figure as plain text: grouped bars
for the four Figure 2 panels and an annotated timeline for Figure 3.
The benchmarks print these so ``pytest benchmarks/ --benchmark-only``
output reads like the paper's evaluation section.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..core.report import Series, format_grouped_bars, format_table
from ..core.timeline import RecoveryTimeline

__all__ = [
    "render_figure2_panel",
    "render_figure3_timeline",
    "render_table",
]

#: Character columns of the Figure 3 timeline bar.
TIMELINE_COLUMNS = 60


def render_figure2_panel(
    panel: str,
    groups: Sequence[str],
    rs_values: Mapping[str, float],
    clay_values: Mapping[str, float],
) -> str:
    """One Figure 2 panel: normalised recovery time, RS vs Clay bars."""
    return format_grouped_bars(
        f"Figure 2{panel}: Normalized Recovery Time",
        groups,
        [Series("RS(12,9)", rs_values), Series("Clay(12,9,11)", clay_values)],
    )


def render_figure3_timeline(timeline: RecoveryTimeline) -> str:
    """Figure 3: the annotated system-recovery timeline."""
    total = timeline.total_recovery
    if total <= 0:
        raise ValueError("timeline has no duration")
    check_cols = round(TIMELINE_COLUMNS * timeline.checking_period / total)
    lines = [
        "Figure 3: Timeline of System Recovery",
        "=" * 38,
        f"|{'=' * check_cols}{'-' * (TIMELINE_COLUMNS - check_cols)}|",
        f"|<-- System Checking Period ({timeline.checking_period:.0f}s) -->"
        f"<-- EC Recovery Period ({timeline.ec_recovery_period:.0f}s) -->|",
        "",
    ]
    for t, label in timeline.annotations():
        lines.append(f"  t={t:8.1f}s  {label}")
    lines.append(
        f"  checking period = {timeline.checking_fraction * 100:.1f}% of "
        f"overall system recovery time"
    )
    return "\n".join(lines)


def render_table(title: str, columns: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Plain-text table, Table 2/3 style."""
    return format_table(title, columns, rows)
