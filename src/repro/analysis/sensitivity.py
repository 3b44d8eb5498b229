"""Configuration-sensitivity analysis and tuning recommendations.

The paper closes (§6) hoping its quantitative analysis can "help create
more intelligent mechanisms for tuning EC-based DSS automatically".  This
module is that step: given sweep results it quantifies each
configuration axis's impact on recovery time, ranks the axes, and
recommends a configuration under a write-amplification budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.sweep import SweepResult

__all__ = [
    "AxisImpact",
    "axis_impacts",
    "rank_axes",
    "Recommendation",
    "recommend_configuration",
]


@dataclass(frozen=True)
class AxisImpact:
    """How much one configuration axis moves recovery time.

    ``impact_percent`` follows the paper's convention: the worst value's
    recovery time over the best value's, in percent (101% = a 1% swing).
    ``best``/``worst`` are the axis values achieving the extremes, with
    other axes marginalised by averaging.
    """

    axis: str
    impact_percent: float
    best: object
    worst: object
    mean_by_value: Dict[object, float]


def axis_impacts(
    results: Sequence[SweepResult], axes: Sequence[str]
) -> List[AxisImpact]:
    """Marginal impact of each axis on mean recovery time."""
    if not results:
        raise ValueError("no sweep results")
    impacts = []
    for axis in axes:
        by_value: Dict[object, List[float]] = {}
        for result in results:
            value = result.settings[axis]
            key = str(value) if isinstance(value, dict) else value
            by_value.setdefault(key, []).append(result.recovery_time)
        means = {
            value: sum(times) / len(times) for value, times in by_value.items()
        }
        if len(means) < 2:
            impacts.append(
                AxisImpact(axis=axis, impact_percent=100.0,
                           best=next(iter(means)), worst=next(iter(means)),
                           mean_by_value=means)
            )
            continue
        best = min(means, key=means.get)
        worst = max(means, key=means.get)
        if means[best] <= 0:
            raise ValueError(f"non-positive recovery time on axis {axis!r}")
        impacts.append(
            AxisImpact(
                axis=axis,
                impact_percent=means[worst] / means[best] * 100.0,
                best=best,
                worst=worst,
                mean_by_value=means,
            )
        )
    return impacts


def rank_axes(
    results: Sequence[SweepResult], axes: Sequence[str]
) -> List[AxisImpact]:
    """Axes sorted by descending impact — "what should I tune first?"."""
    return sorted(
        axis_impacts(results, axes),
        key=lambda impact: impact.impact_percent,
        reverse=True,
    )


@dataclass(frozen=True)
class Recommendation:
    """A tuning recommendation derived from sweep data."""

    chosen: SweepResult
    rejected_faster: Tuple[SweepResult, ...]
    wa_budget: Optional[float]

    @property
    def label(self) -> str:
        return self.chosen.label

    def summary(self) -> str:
        lines = [
            f"recommended configuration: {self.chosen.label}",
            f"  recovery time:      {self.chosen.recovery_time:.1f}s",
            f"  write amplification: {self.chosen.wa_actual:.3f}",
        ]
        if self.wa_budget is not None:
            lines.append(f"  WA budget:           {self.wa_budget:.3f}")
        if self.rejected_faster:
            lines.append(
                f"  ({len(self.rejected_faster)} faster configuration(s) "
                "rejected for exceeding the WA budget)"
            )
        return "\n".join(lines)


def recommend_configuration(
    results: Sequence[SweepResult],
    wa_budget: Optional[float] = None,
) -> Recommendation:
    """Pick the fastest-recovering configuration within a WA budget.

    With no budget this is simply the recovery-time argmin; with one, the
    fastest configuration whose measured Actual WA Factor stays within
    budget (raising if none qualifies).
    """
    if not results:
        raise ValueError("no sweep results")
    ordered = sorted(results, key=lambda r: r.recovery_time)
    if wa_budget is None:
        return Recommendation(chosen=ordered[0], rejected_faster=(), wa_budget=None)
    rejected = []
    for result in ordered:
        if result.wa_actual <= wa_budget:
            return Recommendation(
                chosen=result,
                rejected_faster=tuple(rejected),
                wa_budget=wa_budget,
            )
        rejected.append(result)
    raise ValueError(
        f"no configuration satisfies WA budget {wa_budget:.3f} "
        f"(best available: {min(r.wa_actual for r in results):.3f})"
    )
