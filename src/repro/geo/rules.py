"""Region-spanning CRUSH placement rules.

A :class:`RegionRule` describes the stretch-cluster placement contract:
spread each stripe across ``spread`` regions (chosen straw2-style per
PG) with at most ``max_shards_per_region`` shards landing in any one of
them, and host-spread within each region as usual.

The per-region cap is what makes region-level faults white-box
analysable: if every stripe keeps at most ``cap`` shards in any region
and ``cap <= m``, then losing a whole region (or its WAN uplink) can
never exceed the code's tolerance on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["RegionRule"]


@dataclass(frozen=True)
class RegionRule:
    """Placement contract for one erasure-coded pool on a stretch cluster.

    ``spread`` is the number of regions each stripe must span;
    ``max_shards_per_region`` caps how many shards of one stripe a single
    region may hold (default: the balanced ceiling ``ceil(width/spread)``,
    resolved per placement width).  ``affinity``, when set, assigns each
    shard index a *region slot* in ``[0, spread)`` so codes with
    sub-stripe locality (LRC local groups) can keep their repair sets
    region-coherent; without it shards are laid out in contiguous
    balanced blocks.
    """

    spread: int
    max_shards_per_region: Optional[int] = None
    affinity: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if self.spread < 1:
            raise ValueError(f"region spread must be >= 1, got {self.spread}")
        if (
            self.max_shards_per_region is not None
            and self.max_shards_per_region < 1
        ):
            raise ValueError("max_shards_per_region must be >= 1")
        if self.affinity is not None:
            if any(not 0 <= slot < self.spread for slot in self.affinity):
                raise ValueError(
                    f"affinity slots must lie in [0, {self.spread})"
                )
            if len(set(self.affinity)) < self.spread:
                raise ValueError(
                    "affinity must use every region slot at least once"
                )

    def cap_for(self, width: int) -> int:
        """The effective per-region shard cap for a stripe of ``width``."""
        balanced = -(-width // self.spread)  # ceil division
        if self.max_shards_per_region is None:
            return balanced
        return self.max_shards_per_region

    def shard_slots(self, width: int) -> Tuple[int, ...]:
        """The region slot of each shard of a ``width``-wide stripe.

        The affinity when set, else contiguous balanced blocks in slot
        order, the first ``width % spread`` of them one shard longer.
        """
        if self.affinity is not None:
            return self.affinity
        return tuple(sorted(shard % self.spread for shard in range(width)))

    def validate_width(self, width: int) -> None:
        """Reject rules that cannot place a stripe of ``width`` at all."""
        if self.spread > width:
            raise ValueError(
                f"region spread {self.spread} exceeds stripe width {width}"
            )
        if self.cap_for(width) * self.spread < width:
            raise ValueError(
                f"cap {self.cap_for(width)} x {self.spread} regions cannot "
                f"hold {width} shards"
            )
        if self.affinity is not None:
            if len(self.affinity) != width:
                raise ValueError(
                    f"affinity covers {len(self.affinity)} shards, "
                    f"stripe width is {width}"
                )
            cap = self.cap_for(width)
            for slot in range(self.spread):
                loaded = sum(1 for s in self.affinity if s == slot)
                if loaded > cap:
                    raise ValueError(
                        f"affinity puts {loaded} shards in region slot "
                        f"{slot}, cap is {cap}"
                    )
