"""Statistics helpers for sweep results.

Small, dependency-light aggregation used by the benchmarks: normalised
series (Figure 2's presentation), configuration-impact ranges (the
"101% to 426%" headline), percentiles and rank correlation.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Sequence

__all__ = [
    "percentile",
    "normalised_series",
    "impact_range_percent",
    "spearman",
]


def percentile(values: Sequence[float], pct: float) -> float:
    """Ceil-based nearest-rank percentile of ``values``.

    The nearest-rank definition: the smallest value such that at least
    ``pct`` percent of the sample is <= it, i.e. index
    ``ceil(pct/100 * n) - 1`` into the sorted sample.  (A ``round()``
    based rank is biased low for small samples — p99 of 50 values would
    read the 50th value's *predecessor* half the time.)  This is the one
    audited implementation; client and tenant latency accounting both
    delegate here.
    """
    if not 0 < pct <= 100:
        raise ValueError("percentile must be in (0, 100]")
    if not values:
        raise ValueError("no values")
    ordered = sorted(values)
    index = max(0, math.ceil(pct / 100 * len(ordered)) - 1)
    return ordered[index]


def normalised_series(values: Mapping[str, float]) -> Dict[str, float]:
    """Every value divided by the minimum (fastest config reads 1.0)."""
    if not values:
        return {}
    base = min(values.values())
    if base <= 0:
        raise ValueError("values must be positive")
    return {key: value / base for key, value in values.items()}


def impact_range_percent(values: Mapping[str, float]) -> float:
    """Largest configuration impact as a percentage of the best config.

    The paper's headline metric: "configurations may affect the EC
    recovery time by up to 426%" means max/min * 100.
    """
    if not values:
        raise ValueError("no values")
    lo, hi = min(values.values()), max(values.values())
    if lo <= 0:
        raise ValueError("values must be positive")
    return hi / lo * 100.0


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation with average ranks for ties.

    Hand-rolled (Pearson over midranks) because the toolchain has numpy
    but not scipy.  Returns 0.0 for degenerate inputs (fewer than two
    points, or a constant sequence).  The differential-validation
    harness (:mod:`repro.twin.validate`) uses this to assert the twin
    *orders* configurations the way the DES does.
    """
    if len(xs) != len(ys):
        raise ValueError("sequences must have equal length")
    n = len(xs)
    if n < 2:
        return 0.0

    def midranks(values: Sequence[float]) -> List[float]:
        order = sorted(range(n), key=lambda i: values[i])
        ranks = [0.0] * n
        i = 0
        while i < n:
            j = i
            while j + 1 < n and values[order[j + 1]] == values[order[i]]:
                j += 1
            rank = (i + j) / 2.0 + 1.0
            for t in range(i, j + 1):
                ranks[order[t]] = rank
            i = j + 1
        return ranks

    rx, ry = midranks(xs), midranks(ys)
    mean = (n + 1) / 2.0
    cov = sum((a - mean) * (b - mean) for a, b in zip(rx, ry))
    var_x = sum((a - mean) ** 2 for a in rx)
    var_y = sum((b - mean) ** 2 for b in ry)
    if var_x <= 0 or var_y <= 0:
        return 0.0
    return cov / math.sqrt(var_x * var_y)
