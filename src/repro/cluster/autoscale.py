"""Placement-group autoscaling (Table 1: "customized, autoscale").

Ceph's pg_autoscaler sizes ``pg_num`` so each OSD carries a healthy
number of PG replicas (the usual target is ~100 PG-shards per OSD),
rounded to a power of two.  The paper's Fig 2b shows *why* that matters:
too few PGs serialise recovery.  This module implements the autoscaler's
sizing rule plus the health check that flags misconfigured pools, so
profiles can use ``pg_num="auto"``-style behaviour and the analysis can
point at pg_num as the culprit it is in the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["AutoscaleAdvice", "recommended_pg_num", "autoscale_advice"]

#: Ceph's mon_target_pg_per_osd-style default.
TARGET_PG_SHARDS_PER_OSD = 100
#: Bounds Ceph enforces per pool.
MIN_PG_NUM = 1
MAX_PG_NUM = 32768


def _round_power_of_two(value: float) -> int:
    """Nearest power of two, at least 1 (Ceph rounds pg_num this way)."""
    if value <= 1:
        return 1
    power = 1
    while power * 2 <= value:
        power *= 2
    # Round up when the value is past the geometric midpoint of
    # [power, 2*power], i.e. sqrt(2)*power ~= 1.414*power; the midpoint
    # itself rounds down.
    return power * 2 if value / power > math.sqrt(2.0) else power


def recommended_pg_num(num_osds: int, pool_width: int) -> int:
    """The autoscaler's pg_num for a pool of EC width ``pool_width``.

    Sized so that pg_num * width / num_osds ~= the per-OSD shard target
    (:data:`TARGET_PG_SHARDS_PER_OSD`), rounded to a power of two within
    Ceph's bounds.
    """
    if num_osds < 1 or pool_width < 1:
        raise ValueError("num_osds and pool_width must be positive")
    raw = num_osds * TARGET_PG_SHARDS_PER_OSD / pool_width
    return max(MIN_PG_NUM, min(MAX_PG_NUM, _round_power_of_two(raw)))


@dataclass(frozen=True)
class AutoscaleAdvice:
    """The autoscaler's verdict on a pool's current pg_num."""

    current: int
    recommended: int
    shards_per_osd: float

    @property
    def should_scale(self) -> bool:
        """Ceph only acts when the correction is at least ~4x off."""
        ratio = self.recommended / self.current
        return ratio >= 4.0 or ratio <= 0.25

    def summary(self) -> str:
        verdict = "SCALE" if self.should_scale else "ok"
        return (
            f"pg_num={self.current} -> recommended {self.recommended} "
            f"({self.shards_per_osd:.1f} PG shards/OSD) [{verdict}]"
        )


def autoscale_advice(
    current_pg_num: int, num_osds: int, pool_width: int
) -> AutoscaleAdvice:
    """Evaluate a pool's pg_num the way Ceph's autoscaler would."""
    if current_pg_num < 1:
        raise ValueError("current_pg_num must be positive")
    recommended = recommended_pg_num(num_osds, pool_width)
    return AutoscaleAdvice(
        current=current_pg_num,
        recommended=recommended,
        shards_per_osd=current_pg_num * pool_width / num_osds,
    )
