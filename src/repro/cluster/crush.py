"""CRUSH-style placement: PGs to OSDs under failure-domain constraints.

A straw2-like deterministic pseudo-random draw maps each placement group
to an ordered acting set of n OSDs, at most one per failure-domain
bucket.  The map is a pure function of (pool, pg, osdmap epoch inputs),
so recomputing after an OSD is marked *out* yields the stable remap
behaviour Ceph shows: only shards on departed OSDs move.

There is one placement algorithm, the region-spanning rule: a
:class:`RegionRule` picks the regions a stripe spans and caps its shards
per region, and a call with no rule places under
``RegionRule(spread=1)`` — on a single-region topology, plain straw2
over the failure domain.
"""

from __future__ import annotations

import hashlib
from typing import AbstractSet, Dict, List, Optional, Tuple

from ..geo.rules import RegionRule
from .topology import ClusterTopology, FailureDomain

__all__ = ["CrushMap", "PlacementError"]

#: The rule a placement without one runs under: one region per PG.
_ONE_REGION = RegionRule(spread=1)


class PlacementError(RuntimeError):
    """Raised when the cluster cannot satisfy a placement request."""


def _draw(key: str) -> float:
    """Deterministic uniform(0,1] draw from a ``:``-joined identifier key."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return (int.from_bytes(digest, "big") + 1) / 2.0**64


class CrushMap:
    """Deterministic placement of PG shards across failure domains."""

    def __init__(self, topology: ClusterTopology, seed: int = 0):
        self.topology = topology
        self.seed = seed
        #: failure domain -> region -> the sorted bucket ids holding the
        #: region's OSDs.  Built on first use: the topology never
        #: changes after it is built.
        self._region_buckets: Dict[str, Dict[int, List[int]]] = {}

    def place_pg(
        self,
        pool_id: int,
        pg_id: int,
        width: int,
        failure_domain: str,
        excluded_osds: Optional[AbstractSet[int]] = None,
        region_rule: Optional[RegionRule] = None,
    ) -> List[int]:
        """Choose an ordered acting set of ``width`` OSDs for one PG.

        Shard i of the PG lives on the i-th returned OSD.  Straw2 picks
        ``rule.spread`` regions and deals them the shard slots (by the
        rule's affinity, else in contiguous balanced blocks, mirroring a
        CRUSH rule of the form `take region / chooseleaf host`); each
        region's slots take its top-ranked ``failure_domain`` buckets,
        at most one shard per bucket.  Without ``region_rule`` the call
        places under ``RegionRule(spread=1)``.

        The base assignment ignores ``excluded_osds`` (down/out devices)
        and failed disks, so shards they do not touch keep their OSDs —
        the straw2 property that keeps remaps minimal.  A displaced shard
        retries its own bucket, then reserve buckets in its own region
        (repair locality), then other regions in straw2 order — never
        past the rule's per-region shard cap.
        """
        if failure_domain not in FailureDomain.ALL:
            raise ValueError(f"unknown failure domain {failure_domain!r}")
        if region_rule is None:
            rule = _ONE_REGION
        elif failure_domain == FailureDomain.REGION:
            raise ValueError("a region rule needs a sub-region failure domain")
        else:
            rule = region_rule
        excluded = excluded_osds or set()
        rule.validate_width(width)
        region_buckets = self._buckets_by_region(failure_domain)
        if rule.spread > len(region_buckets):
            raise PlacementError(
                f"pool {pool_id} rule spans {rule.spread} regions, "
                f"cluster has {len(region_buckets)}"
            )
        cap = rule.cap_for(width)
        prefix = f"{self.seed}:{pool_id}:{pg_id}:"
        scored_regions = sorted(
            region_buckets,
            key=lambda r: _draw(f"{prefix}region:{r}"),
            reverse=True,
        )
        chosen = scored_regions[: rule.spread]
        rankings = {
            region: sorted(
                buckets,
                key=lambda b: _draw(f"{prefix}{failure_domain}:{b}"),
                reverse=True,
            )
            for region, buckets in region_buckets.items()
        }
        # Base assignment: each region's shards take its ranking in order.
        taken = dict.fromkeys(region_buckets, 0)
        base: List[Tuple[int, int]] = []
        for slot in rule.shard_slots(width):
            region = chosen[slot]
            ranking = rankings[region]
            if taken[region] == len(ranking):
                raise PlacementError(
                    f"pool {pool_id} pg {pg_id}: region {region} has only "
                    f"{len(ranking)} {failure_domain} buckets"
                )
            base.append((region, ranking[taken[region]]))
            taken[region] += 1
        used = set(base)
        # Resolve OSDs.  A displaced shard spills to the first unused
        # bucket with a live OSD: home region first, then straw2 order,
        # skipping regions already at the cap.
        acting: List[int] = []
        for shard, (home, bucket) in enumerate(base):
            osd = self._choose_osd_in_bucket(
                prefix, bucket, failure_domain, excluded
            )
            if osd is None:
                taken[home] -= 1
                spill = (
                    (region, reserve)
                    for region in [home] + [
                        r for r in scored_regions if r != home
                    ]
                    if taken[region] < cap
                    for reserve in rankings[region]
                    if (region, reserve) not in used
                )
                for region, reserve in spill:
                    osd = self._choose_osd_in_bucket(
                        prefix, reserve, failure_domain, excluded
                    )
                    if osd is not None:
                        used.add((region, reserve))
                        taken[region] += 1
                        break
                else:
                    raise PlacementError(
                        f"cannot place pg {pool_id}.{pg_id}: shard {shard} "
                        f"has no candidate under cap {cap} "
                        f"(excluded={sorted(excluded)})"
                    )
            acting.append(osd)
        return acting

    def _buckets_by_region(self, failure_domain: str) -> Dict[int, List[int]]:
        """Region id -> sorted ``failure_domain`` buckets of its OSDs."""
        cached = self._region_buckets.get(failure_domain)
        if cached is None:
            topo = self.topology
            cached = {
                region: sorted(
                    {
                        topo.bucket_of(osd, failure_domain)
                        for osd in topo.osds_in_bucket(
                            region, FailureDomain.REGION
                        )
                    }
                )
                for region in topo.buckets(FailureDomain.REGION)
            }
            self._region_buckets[failure_domain] = cached
        return cached

    def _choose_osd_in_bucket(
        self,
        prefix: str,
        bucket: int,
        failure_domain: str,
        excluded: AbstractSet[int],
    ) -> Optional[int]:
        candidates = [
            osd
            for osd in self.topology.osds_in_bucket(bucket, failure_domain)
            if osd not in excluded and not self.topology.osds[osd].disk.failed
        ]
        if not candidates:
            return None
        return max(
            candidates,
            key=lambda osd: _draw(f"{prefix}osd:{osd}")
            * self.topology.osds[osd].weight,
        )
