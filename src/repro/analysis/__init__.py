"""Result analysis: statistics and text renderings of the paper's figures."""

from .figures import (
    render_figure2_panel,
    render_figure3_timeline,
    render_table,
)
from .sensitivity import (
    AxisImpact,
    Recommendation,
    axis_impacts,
    rank_axes,
    recommend_configuration,
)
from .stats import (
    impact_range_percent,
    normalised_series,
    percentile,
    spearman,
)

__all__ = [
    "render_figure2_panel",
    "render_figure3_timeline",
    "render_table",
    "AxisImpact",
    "Recommendation",
    "axis_impacts",
    "rank_axes",
    "recommend_configuration",
    "impact_range_percent",
    "normalised_series",
    "percentile",
    "spearman",
]
