"""Pools, placement groups, and object placement state.

A :class:`Pool` owns ``pg_num`` placement groups; each PG's acting set
comes from CRUSH and every object hashes to exactly one PG.  Shard ``i``
of each object in a PG lives on acting-set position ``i``, so an OSD
failure translates directly into "these PGs lost shard s for all their
objects" — the unit of work the recovery state machine operates on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import AbstractSet, Dict, Iterable, List, Optional

from ..ec.base import ErasureCode
from ..geo.rules import RegionRule
from .crush import CrushMap
from .objectstore import ChunkLayout, layout_object
from .pglog import PgLog

__all__ = ["StoredObject", "PlacementGroup", "Pool"]


@dataclass(frozen=True)
class StoredObject:
    """One RADOS object: name, size, and its stripe geometry."""

    name: str
    size: int
    layout: ChunkLayout


@dataclass
class PlacementGroup:
    """One PG: an ordered acting set plus the objects hashed to it."""

    pool_id: int
    pg_id: int
    acting: List[int]
    objects: List[StoredObject] = field(default_factory=list)
    #: Versioned write log driving delta recovery (None only for PGs
    #: constructed outside a Pool, e.g. in unit tests).
    log: Optional[PgLog] = None

    @property
    def pgid(self) -> str:
        return f"{self.pool_id}.{self.pg_id:x}"

    def shards_on(self, osd_ids: Iterable[int]) -> List[int]:
        """Shard positions this PG maps onto any of the given OSDs."""
        targets = set(osd_ids)
        return [i for i, osd in enumerate(self.acting) if osd in targets]

    def stored_bytes(self) -> int:
        """Bytes stored per shard position (all shards are equal-size)."""
        return sum(obj.layout.chunk_stored_bytes for obj in self.objects)


class Pool:
    """An erasure-coded pool: EC profile + stripe_unit + pg_num.

    ``pg_num`` and ``stripe_unit`` are the two pool-level knobs the paper
    sweeps in Figures 2b and 2c.
    """

    def __init__(
        self,
        pool_id: int,
        name: str,
        code: ErasureCode,
        crush: CrushMap,
        pg_num: int = 256,
        stripe_unit: int = 4096,
        failure_domain: str = "host",
        pg_log_max_entries: int = 3000,
        pg_log_hard_limit: Optional[int] = None,
        region_rule: Optional[RegionRule] = None,
    ):
        if pg_num < 1:
            raise ValueError(f"pg_num must be >= 1, got {pg_num}")
        if stripe_unit <= 0:
            raise ValueError(f"stripe_unit must be positive")
        self.pool_id = pool_id
        self.name = name
        self.code = code
        self.crush = crush
        self.pg_num = pg_num
        self.stripe_unit = stripe_unit
        self.failure_domain = failure_domain
        #: Region-spanning placement contract (stretch clusters only).
        #: The code's placement affinity is folded in here so the CRUSH
        #: rule keeps sub-stripe repair sets (LRC local groups)
        #: region-coherent.
        if region_rule is not None and region_rule.affinity is None:
            hint = code.placement_affinity(region_rule.spread)
            if hint is not None:
                candidate = replace(region_rule, affinity=tuple(hint))
                try:
                    candidate.validate_width(code.n)
                except ValueError:
                    pass  # bad hint: keep the contiguous-block layout
                else:
                    region_rule = candidate
        self.region_rule = region_rule
        self.pgs: Dict[int, PlacementGroup] = {}
        for pg_id in range(pg_num):
            self.pgs[pg_id] = PlacementGroup(
                pool_id,
                pg_id,
                self.place(pg_id),
                log=PgLog(
                    code.n,
                    max_entries=pg_log_max_entries,
                    hard_limit=pg_log_hard_limit,
                ),
            )

    def place(
        self, pg_id: int, excluded: AbstractSet[int] = frozenset()
    ) -> List[int]:
        """CRUSH's acting set for one PG with ``excluded`` OSDs left out.

        The pool's one placement entry point: its width, failure domain
        and region rule are the same for every PG, at build time and
        when recovery picks backfill targets.
        """
        return self.crush.place_pg(
            self.pool_id, pg_id, self.code.n, self.failure_domain,
            excluded, self.region_rule,
        )

    def pg_of(self, object_name: str) -> PlacementGroup:
        """Hash an object name to its placement group (stable)."""
        digest = hashlib.blake2b(
            f"{self.pool_id}:{object_name}".encode("utf-8"), digest_size=4
        ).digest()
        return self.pgs[int.from_bytes(digest, "big") % self.pg_num]

    def layout_for(self, object_size: int) -> ChunkLayout:
        return layout_object(
            object_size, self.code.n, self.code.k, self.stripe_unit
        )

    def put_object(self, name: str, size: int) -> PlacementGroup:
        """Record an object write; returns the PG it landed in.

        The caller (the coordinator's workload phase) is responsible for
        charging the corresponding chunk writes to the OSDs.
        """
        pg = self.pg_of(name)
        pg.objects.append(StoredObject(name=name, size=size, layout=self.layout_for(size)))
        return pg

    def pgs_using_osd(self, osd_ids: Iterable[int]) -> List[PlacementGroup]:
        """PGs whose acting set intersects the given OSDs."""
        targets = set(osd_ids)
        return [
            pg for pg in self.pgs.values() if targets & set(pg.acting)
        ]
