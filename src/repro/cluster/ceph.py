"""Cluster facade: one assembled Ceph-like DSS instance.

Ties the substrate together the way §4.1's testbed is wired: a MON/MGR
host, N OSD hosts with virtual NVMe devices, one erasure-coded pool, and
the recovery manager subscribed to osdmap changes.  ECFault (the
``repro.core`` package) treats this object as "the target DSS": it
provisions disks through the per-host NVMe targets, injects faults, and
harvests the logs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..ec.base import ErasureCode
from ..geo.rules import RegionRule
from ..geo.wan import WanSpec
from ..sim import Environment
from .crush import CrushMap
from .devices import DiskSpec, GP_SSD
from .bluestore import BlueStore, CacheConfig
from .logs import NodeLog
from .monitor import Monitor
from .network import M5_NIC, NicSpec
from .osd import CephConfig, OsdDaemon
from .pool import PlacementGroup, Pool, StoredObject
from .recovery import RecoveryManager
from .scrub import IntegrityConfig, IntegrityStore, ScrubConfig, ScrubManager
from .topology import ClusterTopology

__all__ = ["WaLedger", "CephCluster", "OVERWRITE_LEDGER_KEYS"]


@dataclass
class WaLedger:
    """Itemised byte ledger behind the WA-conservation invariant.

    Every durable byte an OSD backend accounts must be attributable to
    exactly one of these buckets::

        client + parity_padding + metadata + repair == sum(osd.used_bytes)

    ``client_bytes`` is the logical volume acked to clients;
    ``parity_padding_bytes`` is what EC coding plus division-and-padding
    allocates beyond it at ingest; ``metadata_bytes`` covers onode,
    extent-map, EC-attribute and checksum metadata (ingest and repair
    alike); ``repair_bytes`` is recovery's rebuilt-chunk allocations.
    The equality is exact (integers), which makes it a sharp oracle: any
    accounting drift anywhere in the write paths trips it.
    """

    client_bytes: int = 0
    parity_padding_bytes: int = 0
    metadata_bytes: int = 0
    repair_bytes: int = 0
    #: In-place overwrite volume (full-stripe rewrites and RMW deltas).
    #: Overwrites allocate nothing — BlueStore rewrites the extents in
    #: place — so neither bucket enters :attr:`device_bytes`; they exist
    #: so write-path WA (stored/logical per overwrite) stays observable.
    overwrite_client_bytes: int = 0
    overwrite_stored_bytes: int = 0

    @property
    def device_bytes(self) -> int:
        """What the buckets say the OSDs should be using, in total."""
        return (
            self.client_bytes
            + self.parity_padding_bytes
            + self.metadata_bytes
            + self.repair_bytes
        )

    def credit_ingest(self, object_size: int, allocated: int, metadata: int) -> None:
        self.client_bytes += object_size
        self.parity_padding_bytes += allocated - object_size
        self.metadata_bytes += metadata

    def credit_repair(self, allocated: int, metadata: int) -> None:
        self.repair_bytes += allocated
        self.metadata_bytes += metadata

    def debit_repair(self, allocated: int, metadata: int) -> None:
        """Roll back a speculative repair reservation (push lost to a
        gray fault before the bytes ever landed on the target)."""
        self.repair_bytes -= allocated
        self.metadata_bytes -= metadata

    def credit_chunk(self, allocated: int, metadata: int) -> None:
        """Credit one client-pushed chunk the instant it is stored.

        Degraded writes land chunk by chunk, and the conservation
        invariant is checked at arbitrary instants, so each allocation is
        credited synchronously with ``store_chunk`` (into the padding
        bucket); :meth:`reclassify_ingest` moves the logical share to
        ``client_bytes`` once the whole write commits.
        """
        self.parity_padding_bytes += allocated
        self.metadata_bytes += metadata

    def debit_chunk(self, allocated: int, metadata: int) -> None:
        """Roll back one speculative chunk credit (push failed/aborted)."""
        self.parity_padding_bytes -= allocated
        self.metadata_bytes -= metadata

    def reclassify_ingest(self, object_size: int) -> None:
        """A committed client write: move its logical bytes from the
        padding bucket (where per-chunk credits parked them) to the
        client bucket.  Device totals are untouched, so conservation
        holds across the reclassification."""
        self.client_bytes += object_size
        self.parity_padding_bytes -= object_size

    def credit_overwrite(self, client_bytes: int, stored_bytes: int) -> None:
        """Record an in-place overwrite (no allocation changes)."""
        self.overwrite_client_bytes += client_bytes
        self.overwrite_stored_bytes += stored_bytes


#: WaLedger fields added with the write path — pruned from digests when
#: zero so read-only runs hash identically to the pre-write-path model.
OVERWRITE_LEDGER_KEYS = ("overwrite_client_bytes", "overwrite_stored_bytes")


class CephCluster:
    """An assembled cluster with one erasure-coded pool."""

    def __init__(
        self,
        env: Environment,
        code: ErasureCode,
        cache_config: CacheConfig,
        config: Optional[CephConfig] = None,
        num_hosts: int = 30,
        osds_per_host: int = 2,
        num_racks: int = 1,
        pg_num: int = 256,
        stripe_unit: int = 4096,
        failure_domain: str = "host",
        disk_spec: DiskSpec = GP_SSD,
        nic_spec: NicSpec = M5_NIC,
        placement_seed: int = 0,
        integrity: Optional[IntegrityConfig] = None,
        scrub: Optional[ScrubConfig] = None,
        num_regions: int = 1,
        wan_spec: Optional[WanSpec] = None,
        region_rule: Optional[RegionRule] = None,
    ):
        self.env = env
        self.config = config or CephConfig()
        self.topology = ClusterTopology(
            env,
            num_hosts=num_hosts,
            osds_per_host=osds_per_host,
            num_racks=num_racks,
            disk_spec=disk_spec,
            nic_spec=nic_spec,
            num_regions=num_regions,
            wan_spec=wan_spec,
        )
        self.region_rule = region_rule
        self.host_logs: Dict[int, NodeLog] = {
            host_id: NodeLog(f"host.{host_id}")
            for host_id in self.topology.hosts
        }
        self.mon_log = NodeLog("mon.0")
        self.osds: Dict[int, OsdDaemon] = {
            osd_id: OsdDaemon(env, device, cache_config, self.config)
            for osd_id, device in self.topology.osds.items()
        }
        self.crush = CrushMap(self.topology, seed=placement_seed)
        self.pool = Pool(
            pool_id=1,
            name="ecpool",
            code=code,
            crush=self.crush,
            pg_num=pg_num,
            stripe_unit=stripe_unit,
            failure_domain=failure_domain,
            pg_log_max_entries=self.config.osd_pg_log_max_entries,
            pg_log_hard_limit=self.config.osd_pg_log_hard_limit,
            region_rule=region_rule,
        )
        self.monitor = Monitor(
            env,
            self.osds,
            self.config,
            log=self.mon_log,
            nics={
                osd_id: self.topology.nic_of(osd_id)
                for osd_id in self.topology.osds
            },
        )
        self.ledger = WaLedger()
        self.recovery = RecoveryManager(
            env,
            self.topology,
            self.osds,
            self.pool,
            self.config,
            self.host_logs,
            self.mon_log,
            ledger=self.ledger,
        )
        self.monitor.on_out.append(self.recovery.on_osds_out)
        self.monitor.on_in.append(self.recovery.on_osds_in)
        self.monitor.on_up.append(self.recovery.on_osds_up)
        self.integrity = IntegrityStore(self.pool, integrity or IntegrityConfig())
        self.scrub = ScrubManager(
            env,
            self.topology,
            self.osds,
            self.pool,
            self.integrity,
            scrub or ScrubConfig(),
            self.host_logs,
            self.mon_log,
            monitor=self.monitor,
        )
        #: ByzantineState, attached lazily by ``ensure_byzantine`` when
        #: the first Byzantine fault is injected; None on honest runs so
        #: pre-existing outcome digests stay byte-identical.
        self.byzantine = None

    # -- state ingestion ---------------------------------------------------------

    def ingest_object(self, name: str, size: int) -> None:
        """Place one object and account its chunks on the acting OSDs.

        Ingestion is a state operation (the paper measures recovery and
        storage overhead, not write latency): every chunk is stored with
        full padding/metadata accounting but no simulated I/O time.
        """
        pg = self.pool.put_object(name, size)
        obj = pg.objects[-1]
        layout = obj.layout
        csum_blocks = 0
        csums = {}
        if self.integrity.config.enabled:
            csum_blocks = self.integrity.csum_blocks_for(layout.chunk_stored_bytes)
            csums = self.integrity.register_object(pg, obj)
        # Every chunk of the stripe has the same geometry, so the same
        # allocation on whichever OSD it lands.
        allocation = BlueStore.chunk_allocation(
            layout.chunk_stored_bytes, layout.units, csum_blocks
        )
        for shard, osd_id in enumerate(pg.acting):
            osd = self.osds[osd_id]
            osd.store_chunk(layout.chunk_stored_bytes, layout.units, allocation)
            if shard in csums:
                osd.backend.put_chunk_checksums((pg.pgid, obj.name, shard), csums[shard])
        allocated, metadata = allocation
        chunks = len(pg.acting)
        self.ledger.credit_ingest(size, chunks * allocated, chunks * metadata)
        if pg.log is not None:
            # Ingest is a state operation on a healthy cluster: every
            # shard landed, so the create entry carries no missing set.
            pg.log.commit(
                name,
                "create",
                touched=tuple(range(self.pool.code.n)),
                missing=(),
                at=self.env.now,
                staged=False,
            )

    # -- queries ------------------------------------------------------------------

    def used_bytes_total(self) -> int:
        """Cluster-wide OSD-level storage usage (WA measurement point)."""
        return sum(osd.used_bytes for osd in self.osds.values())

    def all_logs(self) -> List[NodeLog]:
        return [self.mon_log, *self.host_logs.values()]

    def osds_with_data(self) -> List[int]:
        """OSDs that hold at least one chunk (fault-injection candidates)."""
        return sorted(
            osd_id
            for osd_id, osd in self.osds.items()
            if osd.backend.num_chunks > 0
        )

    def down_shards(self, pg: PlacementGroup) -> Set[int]:
        """Shard positions of ``pg`` whose acting OSD is down."""
        osds = self.osds
        return {
            shard
            for shard, osd_id in enumerate(pg.acting)
            if not osds[osd_id].is_up()
        }

    def damaged_shards(
        self,
        pg: PlacementGroup,
        obj: StoredObject,
        down: Optional[Set[int]] = None,
    ) -> Set[int]:
        """Shards of one object's stripe that can serve neither a read
        nor a repair.

        The union of shards on down OSDs, shards stale in the pg_log
        (they missed a degraded write), unrepaired silent corruption
        (honest, or Byzantine with a forged checksum) and undetected
        Byzantine false acks.  The fault injector's white-box guards, the
        durability invariant and the fuzzer's near-miss margin all judge
        a stripe by this set.  Read paths must not consult it: a reader
        cannot see silent corruption or a lie.

        ``down`` is the PG's :meth:`down_shards`, computed once by
        callers that loop over a PG's objects.
        """
        damaged = self.integrity.corrupt_shards(pg.pgid, obj.name)
        damaged |= self.down_shards(pg) if down is None else down
        if pg.log is not None:
            damaged |= pg.log.stale_shards(obj.name)
        if self.byzantine is not None:
            damaged |= self.byzantine.damaged_shards(pg.pgid, obj.name)
        return damaged
