"""Closed-form predictors for the DES's headline metrics.

The model walks the same causal chain the simulator executes, but in
expectation instead of event by event:

* **WA ledger** — exact.  Ingest stores ``n`` chunks per object through
  :meth:`BlueStore.chunk_allocation`; the twin evaluates the identical
  allocation+metadata arithmetic, so the predicted Actual WA Factor
  matches the measured one to the byte on a healthy ingest.
* **Repair bytes** — near-exact.  The expected lost-shard count per
  stripe follows a hypergeometric draw over failure domains; each loss
  pattern expands through the real :meth:`ErasureCode.repair_plan` and
  the real sub-chunk degeneration rule
  (:func:`repro.cluster.osd.resolve_subchunk_read`), so RS/Clay/LRC read
  amplification and the §4.2 min-IO collapse are reproduced, not
  re-modelled.
* **Recovery time** — queueing bounds.  The checking period is the
  down/out interval plus monitor-tick quantisation plus peering; the EC
  recovery period is the max of four capacity bounds (per-survivor
  recovery-read grants, per-target write grants after deferred-write
  coalescing, primary decode CPU, NIC) and a reservation-limited PG
  makespan, plus one object pipeline latency.  Cache-scheme sensitivity
  enters through the real BlueStore hit-rate model evaluated on the
  post-ingest working sets.
* **Degraded / tenant p99** — service-time sums over the client read
  path (disk, fan-in NIC serialisation, on-the-fly decode) with a light
  utilisation inflation; the tenant form adds the mClock share floor
  (``max(reservation, weight share)``) against a saturating batch
  competitor.

Every knob that is a guess rather than arithmetic lives in
:class:`TwinCalibration`; the differential harness
(:mod:`repro.twin.validate`) measures how far the guesses drift from the
DES and pins the error bounds.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..cluster.bluestore import BlueStore
from ..cluster.client import RadosClient
from ..cluster.network import M5_NIC
from ..cluster.objectstore import blocks_in, layout_object
from ..cluster.osd import (
    coding_time,
    recovery_read_time,
    recovery_write_time,
    resolve_subchunk_read,
    sequential_ops,
)
from ..cluster.topology import FailureDomain
from ..core.digest import canonical_json
from ..core.fault_injector import CRASH_LEVELS, FaultSpec
from ..core.profile import ExperimentProfile
from ..workload.generator import Workload

__all__ = [
    "TwinCalibration",
    "TwinPrediction",
    "AnalyticalTwin",
    "predict",
    "predict_degraded_p99",
    "predict_tenant_slo_p99",
    "predict_overwrite_amplification",
]


@dataclass(frozen=True)
class TwinCalibration:
    """The model's non-arithmetic constants, all in one auditable place.

    Values are fitted once against the seeded differential grid
    (``benchmarks/results/twin_calibration.txt``); they scale capacity
    bounds, they never change what is computed.
    """

    #: Monitor-tick quantisation between down+interval and the osdmap
    #: change (the DES's detection is itself tick-aligned, so the +600 s
    #: lands exactly on a tick: zero residual).
    out_quantisation: float = 0.0
    #: Utilisation ceiling of the per-survivor recovery-read grant pool
    #: (helper selection is not perfectly balanced).
    read_efficiency: float = 0.82
    #: Utilisation ceiling of the replacement-target write pool.
    write_efficiency: float = 0.85
    #: Decode CPU workers usable per active primary (the OSD pool has 2,
    #: shared with sub-chunk range extraction).
    cpu_per_primary: float = 2.0
    #: Backfill-reservation convoy law.  Each PG holds its reservation
    #: set (primary + targets, ``osd_max_backfills=1`` each) for its
    #: whole recovery; acquisition in sorted OSD-id order couples chains
    #: of waiting PGs, and the measured makespan of N spread-target PGs
    #: grows as ``per_pg_service * N**chain_exponent`` (fitted 0.62-0.65
    #: across pg_num 16/64/256 on the seed DES).
    chain_exponent: float = 0.64
    #: Extra serialisation per additional concentrated chain: two failed
    #: devices build two sibling-target chains that couple through
    #: shared primaries and doubly-affected PGs (measured ~1.4x for 2).
    chain_coupling: float = 0.4
    #: Helper-grant queueing burstiness.  Concurrent PGs issue their
    #: pulls in per-object bursts, so once in-flight reads exceed the
    #: helper-server pool an op's read phase pays ~this many grant
    #: services per unit of excess depth (fitted jointly with
    #: ``straggler`` across the 8 MB and 64 MB object grids).
    grant_contention: float = 2.0
    #: Straggler tail of the spread regime.  The makespan tracks the
    #: *slowest* affected PG, not the mean one: object counts are
    #: multinomial across PGs and helper-set collisions are uneven, so
    #: the slowest-PG excess over the mean shrinks roughly as 1/sqrt(N)
    #: of the affected-PG count (max-of-N concentration).
    straggler: float = 0.5
    #: Tail inflation from deterministic-service queueing in the probe
    #: load (p99 over near-constant samples sits just above the mean).
    p99_inflation: float = 1.08
    #: How strongly the saturating batch tenant inflates the latency
    #: tenant's queue beyond its mClock share floor.
    tenant_contention: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.read_efficiency <= 1.0:
            raise ValueError("read_efficiency must be in (0, 1]")
        if not 0.0 < self.write_efficiency <= 1.0:
            raise ValueError("write_efficiency must be in (0, 1]")
        if self.cpu_per_primary <= 0 or not 0.0 < self.chain_exponent <= 1.0:
            raise ValueError("invalid concurrency calibration")
        if self.chain_coupling < 0.0:
            raise ValueError("chain_coupling must be non-negative")
        if self.p99_inflation < 1.0 or self.tenant_contention < 0.0:
            raise ValueError("invalid tail calibration")
        if self.grant_contention < 0.0:
            raise ValueError("grant_contention must be non-negative")
        if self.straggler < 0.0:
            raise ValueError("straggler must be non-negative")


@dataclass(frozen=True)
class TwinPrediction:
    """One analytical evaluation of a profile under a fault load.

    Mirrors the DES observables: ``recovery_time`` is detection to EC
    recovery finished, ``wa_actual`` the Actual WA Factor, the repair
    byte counters match ``RecoveryStats.bytes_read/bytes_written``
    semantics (wanted bytes over the wire, stored bytes on targets).
    """

    label: str
    settings: Dict[str, Any]
    recovery_time: float
    checking_period: float
    ec_recovery_period: float
    wa_actual: float
    used_bytes: int
    workload_bytes: int
    repair_bytes_read: float
    repair_bytes_written: float
    affected_objects: float
    lost_chunks: float
    degraded_p99: Optional[float] = None
    tenant_slo_p99: Optional[float] = None
    #: Expected repair bytes pulled across regions (stretch clusters
    #: only; None on single-region profiles so their digests are stable).
    wan_cross_read_bytes: Optional[float] = None
    #: Expected aggregate PG-time at minimum redundancy (correlated
    #: fault loads only; None otherwise so existing digests are stable).
    time_at_risk: Optional[float] = None

    @property
    def checking_fraction(self) -> float:
        if self.recovery_time <= 0:
            return 0.0
        return self.checking_period / self.recovery_time

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready mapping of every predicted metric."""
        data: Dict[str, Any] = {
            "label": self.label,
            "settings": self.settings,
            "recovery_time": self.recovery_time,
            "checking_period": self.checking_period,
            "ec_recovery_period": self.ec_recovery_period,
            "checking_fraction": self.checking_fraction,
            "wa_actual": self.wa_actual,
            "used_bytes": self.used_bytes,
            "workload_bytes": self.workload_bytes,
            "repair_bytes_read": self.repair_bytes_read,
            "repair_bytes_written": self.repair_bytes_written,
            "affected_objects": self.affected_objects,
            "lost_chunks": self.lost_chunks,
        }
        # Pruned at None (the gray-digest convention) so predictions
        # without probe metrics stay byte-stable as fields accrete.
        if self.degraded_p99 is not None:
            data["degraded_p99"] = self.degraded_p99
        if self.tenant_slo_p99 is not None:
            data["tenant_slo_p99"] = self.tenant_slo_p99
        if self.wan_cross_read_bytes is not None:
            data["wan_cross_read_bytes"] = self.wan_cross_read_bytes
        if self.time_at_risk is not None:
            data["time_at_risk"] = self.time_at_risk
        return data

    def digest_json(self) -> str:
        """Canonical JSON for the determinism digest (sorted, compact)."""
        return canonical_json(self.to_dict())

    def digest(self) -> str:
        """SHA-256 of the canonical JSON: byte-stable across re-runs."""
        return hashlib.sha256(self.digest_json().encode()).hexdigest()


def _comb(n: int, r: int) -> int:
    if r < 0 or r > n:
        return 0
    return math.comb(n, r)


def _correlated_host_equivalents(
    profile: ExperimentProfile, spec: FaultSpec
) -> int:
    """How many whole hosts one correlated_crash unit takes down."""
    if spec.domain == FailureDomain.RACK:
        per_bucket = -(-profile.num_hosts // max(1, profile.num_racks))
    elif spec.domain == FailureDomain.REGION:
        per_bucket = -(-profile.num_hosts // max(1, profile.num_regions))
    else:
        per_bucket = 1
    return per_bucket * spec.count


def _loss_distribution(
    profile: ExperimentProfile, faults: Sequence[FaultSpec]
) -> List[Tuple[int, float]]:
    """(lost shards per stripe, probability) over the fault load.

    Node faults remove whole hosts: with the host failure domain a
    stripe's ``n`` shards sit on ``n`` distinct hosts, so the lost count
    is hypergeometric over hosts.  Device faults remove single OSDs;
    each shard's OSD is marginally uniform, binomial is exact enough at
    the counts the injector admits.  Correlated crashes mark whole
    buckets: on a rack-domain pool a whole-rack unit is one marked
    bucket in the same hypergeometric, just drawn over racks; anywhere
    else the unit dissolves into its host-equivalents.
    """
    code_n = profile.create_code().n
    hosts = profile.num_hosts
    osds = hosts * profile.osds_per_host
    failed_hosts = sum(
        spec.count for spec in faults if spec.level == "node"
    )
    failed_osds = sum(
        spec.count for spec in faults if spec.level == "device"
    )
    rack_pool = profile.failure_domain == FailureDomain.RACK
    failed_racks = 0
    for spec in faults:
        if spec.level != "correlated_crash":
            continue
        if rack_pool and spec.domain == FailureDomain.RACK:
            failed_racks += spec.count
        else:
            failed_hosts += _correlated_host_equivalents(profile, spec)
    if failed_hosts == 0 and failed_osds == 0 and failed_racks == 0:
        return [(0, 1.0)]
    if profile.failure_domain == FailureDomain.OSD:
        # OSD domain: shards land on distinct OSDs, hosts unconstrained.
        marked = failed_hosts * profile.osds_per_host + failed_osds
        total = osds
        draws = code_n
        return [
            (j, _comb(marked, j) * _comb(total - marked, draws - j) / _comb(total, draws))
            for j in range(0, min(draws, marked) + 1)
        ]
    dist: Dict[int, float] = {0: 1.0}
    if failed_hosts:
        host_dist = [
            (j, _comb(failed_hosts, j) * _comb(hosts - failed_hosts, code_n - j)
             / _comb(hosts, code_n))
            for j in range(0, min(code_n, failed_hosts) + 1)
        ]
        dist = {j: p for j, p in host_dist if p > 0}
    if failed_racks:
        # Rack-domain pools place at most one shard per rack, so whole-
        # rack correlated units are hypergeometric over racks; folded
        # with whatever the (conservatively independent) host faults
        # already cost, capped at the stripe width.
        racks = max(1, profile.num_racks)
        rack_dist = [
            (j, _comb(failed_racks, j)
             * _comb(racks - failed_racks, code_n - j)
             / _comb(racks, code_n))
            for j in range(0, min(code_n, failed_racks) + 1)
        ]
        folded_racks: Dict[int, float] = {}
        for base_j, base_p in dist.items():
            for j, p in rack_dist:
                if p > 0:
                    key = min(code_n, base_j + j)
                    folded_racks[key] = folded_racks.get(key, 0.0) + base_p * p
        dist = folded_racks
    if failed_osds:
        # Device removals: per-shard marginal loss probability, folded
        # into whatever the node faults already cost.
        p_shard = failed_osds / osds
        folded: Dict[int, float] = {}
        for base_j, base_p in dist.items():
            remaining = code_n - base_j
            for extra in range(0, remaining + 1):
                p = (
                    base_p
                    * _comb(remaining, extra)
                    * (p_shard**extra)
                    * ((1 - p_shard) ** (remaining - extra))
                )
                if p > 0:
                    folded[base_j + extra] = folded.get(base_j + extra, 0.0) + p
        dist = folded
    return sorted(dist.items())


def _ghost_backend(
    profile: ExperimentProfile, workload: Workload
) -> BlueStore:
    """A BlueStore instance carrying the expected post-ingest state.

    The cache hit-rate and write-coalescing models are queried against
    this ghost, so Figure 2a's cache-scheme sensitivity flows from the
    *real* BlueStore arithmetic rather than a re-derivation.
    """
    code = profile.create_code()
    layout = layout_object(
        workload.object_size, code.n, code.k, profile.stripe_unit
    )
    osds = profile.num_hosts * profile.osds_per_host
    chunks_per_osd = workload.num_objects * code.n / osds
    backend = BlueStore(
        profile.cache_config(), cache_bytes=profile.ceph.osd_cache_bytes
    )
    backend.num_chunks = chunks_per_osd
    backend.num_extents = chunks_per_osd * layout.units
    backend.data_bytes = chunks_per_osd * layout.chunk_stored_bytes
    return backend


@dataclass
class _RepairCosts:
    """Expected per-affected-object repair costs (service seconds/bytes)."""

    net_read_bytes: float = 0.0
    disk_read_bytes: float = 0.0
    read_grant_service: float = 0.0
    max_read_leg: float = 0.0
    reads_count: float = 0.0
    decode_service: float = 0.0
    extract_service: float = 0.0
    lost_shards: float = 0.0


class AnalyticalTwin:
    """Closed-form evaluator sharing the DES's configuration inputs."""

    def __init__(self, calibration: Optional[TwinCalibration] = None):
        self.calibration = calibration or TwinCalibration()

    # -- WA (exact) -------------------------------------------------------------

    def predict_used_bytes(
        self, profile: ExperimentProfile, workload: Workload
    ) -> int:
        """Total OSD usage after ingest: the Table-3 measurement point."""
        code = profile.create_code()
        layout = layout_object(
            workload.object_size, code.n, code.k, profile.stripe_unit
        )
        backend = BlueStore(profile.cache_config())
        integrity = profile.integrity_config()
        csum_blocks = 0
        if integrity.enabled:
            csum_blocks = blocks_in(
                layout.chunk_stored_bytes, integrity.csum_block_size
            )
        allocated, metadata = backend.chunk_allocation(
            layout.chunk_stored_bytes, layout.units, csum_blocks
        )
        return workload.num_objects * code.n * (allocated + metadata)

    # -- repair plan expansion ---------------------------------------------------

    def _plan_costs(
        self,
        profile: ExperimentProfile,
        workload: Workload,
        loss_dist: Sequence[Tuple[int, float]],
        backend: BlueStore,
    ) -> _RepairCosts:
        code = profile.create_code()
        config = profile.ceph
        layout = layout_object(
            workload.object_size, code.n, code.k, profile.stripe_unit
        )
        chunk = layout.chunk_stored_bytes
        disk = profile.disk_spec()
        nic = M5_NIC
        cpu_cost = code.cpu_cost_factor
        costs = _RepairCosts()
        p_affected = sum(p for j, p in loss_dist if j >= 1)
        if p_affected <= 0:
            return costs
        for j, p in loss_dist:
            if j < 1:
                continue
            weight = p / p_affected
            plans = self._plans_for(code, j)
            if not plans:
                continue
            pshare = weight / len(plans)
            for plan in plans:
                legs: List[float] = []
                for read in plan.reads:
                    if read.fraction >= 1.0:
                        net_bytes = float(chunk)
                        disk_bytes = float(chunk)
                        disk_ops = sequential_ops(config, chunk)
                        scatter = 0
                    else:
                        prof = resolve_subchunk_read(
                            config,
                            layout.units,
                            layout.stripe_unit,
                            read.fraction,
                            read.io_ops,
                        )
                        net_bytes = float(int(chunk * read.fraction))
                        disk_bytes = float(prof.disk_bytes)
                        disk_ops = prof.disk_ops
                        scatter = prof.scatter_runs
                        costs.extract_service += pshare * (
                            layout.units
                            * read.io_ops
                            * config.subchunk_range_overhead
                        )
                    meta_ops = backend.read_overhead_ops(disk_bytes, scatter)
                    grant = recovery_read_time(
                        config, disk_bytes, meta_ops, scatter
                    )
                    disk_svc = disk.service_time(
                        max(1, round(disk_ops + meta_ops)), disk_bytes,
                        write=False,
                    )
                    costs.net_read_bytes += pshare * net_bytes
                    costs.disk_read_bytes += pshare * disk_bytes
                    costs.read_grant_service += pshare * grant
                    # One fabric hop: egress and ingress wire time plus
                    # the propagation latency.
                    legs.append(grant + disk_svc + (
                        2 * nic.wire_time(net_bytes) + nic.latency
                    ))
                costs.max_read_leg += pshare * (max(legs) if legs else 0.0)
                costs.reads_count += pshare * len(plan.reads)
                fragments = layout.units * code.sub_chunk_count * j
                costs.decode_service += pshare * coding_time(
                    config, chunk * j, plan.decode_work, fragments, cpu_cost
                )
            costs.lost_shards += weight * j
        return costs

    @staticmethod
    def _plans_for(code, j: int):
        """Repair plans for ``j`` losses: all single-loss positions for
        j=1 (LRC/SHEC locality depends on *which* shard died), one
        representative pattern beyond that."""
        shards = list(range(code.n))
        plans = []
        if j == 1:
            for lost in shards:
                alive = [s for s in shards if s != lost]
                try:
                    plans.append(code.repair_plan([lost], alive))
                except ValueError:
                    continue
        else:
            lost = shards[:j]
            alive = shards[j:]
            try:
                plans.append(code.repair_plan(lost, alive))
            except ValueError:
                pass
        return plans

    # -- recovery timeline -------------------------------------------------------

    def predict(
        self,
        profile: ExperimentProfile,
        workload: Workload,
        faults: Optional[Sequence[FaultSpec]] = None,
    ) -> TwinPrediction:
        """The full analytical evaluation: WA, repair bytes, timeline.

        A stripe's ``n`` shards need ``n`` distinct failure-domain
        buckets; a profile with fewer is refused with ``ValueError``, as
        the DES refuses to place it.
        """
        faults = list(faults) if faults is not None else [FaultSpec(level="node")]
        cal = self.calibration
        code = profile.create_code()
        buckets, kind = {
            FailureDomain.OSD: (profile.num_hosts * profile.osds_per_host, "OSDs"),
            FailureDomain.HOST: (profile.num_hosts, "hosts"),
            FailureDomain.RACK: (profile.num_racks, "racks"),
        }[profile.failure_domain]
        if buckets < code.n:
            raise ValueError(
                f"failure domain {profile.failure_domain} has {buckets} "
                f"{kind}, fewer than the n={code.n} shards of a stripe"
            )
        config = profile.ceph
        layout = layout_object(
            workload.object_size, code.n, code.k, profile.stripe_unit
        )
        chunk = layout.chunk_stored_bytes
        disk = profile.disk_spec()
        nic = M5_NIC
        objects = workload.num_objects
        workload_bytes = objects * workload.object_size
        used_bytes = self.predict_used_bytes(profile, workload)
        wa_actual = used_bytes / workload_bytes if workload_bytes else 0.0
        settings = {
            "ec_plugin": profile.ec_plugin,
            "ec_params": dict(profile.ec_params),
            "pg_num": profile.pg_num,
            "stripe_unit": profile.stripe_unit,
            "cache_scheme": profile.cache_scheme,
            "failure_domain": profile.failure_domain,
        }

        # Like the DES, predict a recovery cycle only for crash levels;
        # correlated crashes ride it via bucket/host-equivalent conversion.
        crash = [spec for spec in faults if spec.level in CRASH_LEVELS]
        loss_dist = _loss_distribution(profile, crash)
        p_affected = sum(p for j, p in loss_dist if j >= 1)
        if not crash or p_affected <= 0:
            return TwinPrediction(
                label=profile.name,
                settings=settings,
                recovery_time=0.0,
                checking_period=0.0,
                ec_recovery_period=0.0,
                wa_actual=wa_actual,
                used_bytes=used_bytes,
                workload_bytes=workload_bytes,
                repair_bytes_read=0.0,
                repair_bytes_written=0.0,
                affected_objects=0.0,
                lost_chunks=0.0,
            )

        backend = _ghost_backend(profile, workload)
        costs = self._plan_costs(profile, workload, loss_dist, backend)
        affected_objects = objects * p_affected
        lost_chunks = affected_objects * costs.lost_shards
        repair_read = affected_objects * costs.net_read_bytes
        repair_written = lost_chunks * chunk

        # Cluster shape after the osdmap change.  Correlated crashes
        # dissolve into their host-equivalents here: capacity math only
        # cares how many hosts' worth of daemons left the cluster.
        osds = profile.num_hosts * profile.osds_per_host
        down_hosts = sum(
            spec.count for spec in crash if spec.level == "node"
        ) + sum(
            _correlated_host_equivalents(profile, spec)
            for spec in crash
            if spec.level == "correlated_crash"
        )
        failed_osds = down_hosts * profile.osds_per_host + sum(
            spec.count for spec in crash if spec.level == "device"
        )
        survivors = max(1, osds - failed_osds)
        surviving_hosts = max(1, profile.num_hosts - down_hosts)

        # PG census.  Every PG whose acting set touches a failed OSD gets
        # queued — including empty ones, which still pay reservation
        # acquisition and peering (why small workloads are PG-overhead
        # bound, fig2b's mechanism at this scale).
        targets_per_pg = costs.lost_shards

        # Per-object push costs (identical for every target of a PG).
        coalescing = backend.write_coalescing()
        write_grant = recovery_write_time(config, chunk, coalescing)
        write_ops = max(
            1, round(sequential_ops(config, chunk) * coalescing)
        )
        write_disk = disk.service_time(write_ops, chunk, write=True)
        push_leg = (
            2 * nic.wire_time(chunk) + nic.latency + write_grant + write_disk
        )

        # One object op's no-contention pipeline: messaging, parallel
        # pulls (bounded by the slowest leg and the primary's NIC
        # fan-in), decode, parallel pushes.
        fan_in = costs.net_read_bytes / nic.bandwidth
        base_read_phase = max(costs.max_read_leg, fan_in)
        op_fixed = (
            config.recovery_op_overhead
            + costs.decode_service
            + costs.extract_service
            + push_leg
        )
        mean_grant = (
            costs.read_grant_service / costs.reads_count
            if costs.reads_count
            else 0.0
        )
        helpers_per_pg = max(1.0, code.n - costs.lost_shards)
        max_active = config.osd_recovery_max_active

        def per_pg_service(objects_pg: float, read_phase: float) -> float:
            """Reservation-hold time of one PG: peering + object batch.

            The recovery_ops throttle (``osd_recovery_max_active`` per
            primary) only bites once a PG holds more objects than slots;
            below that the batch costs one op latency.
            """
            peering = (
                config.peering_base + config.peering_per_object * objects_pg
            )
            if objects_pg <= 0:
                return peering
            op = op_fixed + read_phase
            batch = op * max(
                min(objects_pg, 1.0), objects_pg / max_active
            )
            return peering + max(
                batch, objects_pg * costs.net_read_bytes / nic.bandwidth
            )

        # Reservation-makespan regimes.  Each PG holds osd_max_backfills
        # slots on {primary, targets} for its whole recovery, so the
        # makespan is governed by how replacement targets distribute:
        #
        # * device fault under the host failure domain: CRUSH retries
        #   inside the failed OSD's bucket first, so every affected PG
        #   targets the *sibling* OSD on the same host — one serial
        #   chain per failed device (fig2d's surprise: half the repair
        #   work, 2.7x the time).  Pull queueing is steady-state and
        #   local to the chain PG's surviving acting set.
        # * node fault (bucket fully excluded) or osd failure domain:
        #   targets spread across survivors; convoying through sorted
        #   reservation acquisition yields the N**chain_exponent law,
        #   and the concurrently-active PGs' pull bursts queue on the
        #   shared helper-grant pool (grant_contention).
        device_count = sum(
            spec.count for spec in crash if spec.level == "device"
        )
        node_count = sum(spec.count for spec in crash if spec.level == "node")
        concentrated = (
            device_count > 0
            and profile.failure_domain == FailureDomain.HOST
            and profile.osds_per_host > 1
        )
        chain_makespan = 0.0
        spread_p = p_affected
        if concentrated:
            pgs_per_device = profile.pg_num * code.n / osds
            p_device_pg = pgs_per_device / profile.pg_num
            chain_objects_pg = (
                objects * min(1.0, p_device_pg * device_count)
                / max(1.0, pgs_per_device * device_count)
            )
            chain_ops = min(max_active, max(1.0, chain_objects_pg))
            chain_read_phase = max(
                base_read_phase,
                costs.reads_count * mean_grant * chain_ops / helpers_per_pg,
            )
            chain_makespan = (
                pgs_per_device
                * per_pg_service(chain_objects_pg, chain_read_phase)
                * (1.0 + cal.chain_coupling * (device_count - 1))
            )
            # Only the node-fault share (if any) still spreads.
            spread_p = sum(
                p for j, p in _loss_distribution(
                    profile,
                    [s for s in crash if s.level == "node"],
                ) if j >= 1
            ) if node_count else 0.0
        spread_pgs = profile.pg_num * spread_p
        spread_makespan = 0.0
        effective_pgs = 1.0
        if spread_pgs > 0:
            effective_pgs = max(
                1.0, spread_pgs ** (1.0 - cal.chain_exponent)
            )
            spread_objects_pg = objects * spread_p / spread_pgs
            concurrent_ops = effective_pgs * min(
                max_active, max(1.0, spread_objects_pg)
            )
            # Spread targets mean spread pulls: the burst pool is the
            # whole survivor set, not any one PG's acting set.
            depth = concurrent_ops * costs.reads_count / survivors
            spread_read_phase = (
                base_read_phase
                + max(0.0, depth - 1.0) * mean_grant * cal.grant_contention
            )
            spread_makespan = (
                per_pg_service(spread_objects_pg, spread_read_phase)
                * spread_pgs**cal.chain_exponent
                # Max-of-N straggler: the slowest PG sets the makespan.
                * (1.0 + cal.straggler / math.sqrt(spread_pgs))
            )

        op_tail = op_fixed + base_read_phase
        bounds = [
            chain_makespan,
            spread_makespan,
            # Per-survivor recovery-read grant pool (1 server each).
            affected_objects
            * costs.read_grant_service
            / (survivors * cal.read_efficiency),
            # Replacement-target write pool: only targets hold busy
            # write servers, ~t/(1+t) of the reserved set.
            lost_chunks
            * (write_grant + write_disk)
            / (
                survivors
                * cal.write_efficiency
                * (targets_per_pg / (1.0 + targets_per_pg))
            ),
            # Primary decode workers on the concurrently-active PGs.
            affected_objects
            * (costs.decode_service + costs.extract_service)
            / (effective_pgs * cal.cpu_per_primary),
            # Aggregate fabric: every repair byte crosses the wire twice
            # (helper->primary, primary->target).
            (repair_read + repair_written)
            / (surviving_hosts * nic.bandwidth),
        ]
        # WAN-hop term (stretch clusters only).  With the region rule the
        # primary's home region holds ~n/R shards of each stripe; every
        # helper the plan needs beyond the surviving local ones is pulled
        # over the WAN — serialised on the home region's uplink ingress
        # and the (R-1) remote uplinks' egress, plus one one-way WAN
        # latency folded into each affected object's pipeline.
        wan_cross_bytes: Optional[float] = None
        if profile.num_regions > 1:
            local_shards = code.n / profile.num_regions
            cross_reads = max(
                0.0,
                costs.reads_count
                - max(0.0, local_shards - costs.lost_shards),
            )
            cross_frac = (
                cross_reads / costs.reads_count if costs.reads_count else 0.0
            )
            wan_cross_bytes = repair_read * cross_frac
            bounds.append(wan_cross_bytes / profile.wan_ingress_bandwidth)
            bounds.append(
                wan_cross_bytes
                / (
                    profile.wan_egress_bandwidth
                    * max(1, profile.num_regions - 1)
                )
            )
            if cross_reads > 0:
                op_tail += profile.wan_latency
        ec_period = max(bounds) + op_tail

        # Detection to first peering completion: the down/out interval
        # (tick-aligned in the DES) plus the first PG through peering.
        checking = (
            config.mon_osd_down_out_interval
            + cal.out_quantisation
            + config.peering_base
            + config.peering_per_object * (objects / profile.pg_num)
        )
        # Time-at-risk (cascade loads only): expected aggregate PG-time
        # spent at the redundancy floor.  A stripe sits at margin <= 0
        # exactly when it lost >= tolerance shards; each such PG is
        # exposed from the fault until its recovery completes, bounded
        # above by the full predicted cycle.
        time_at_risk: Optional[float] = None
        if any(spec.level == "correlated_crash" for spec in crash):
            p_at_min = sum(
                p for j, p in loss_dist if j >= code.fault_tolerance()
            )
            time_at_risk = profile.pg_num * p_at_min * (checking + ec_period)
        return TwinPrediction(
            label=profile.name,
            settings=settings,
            recovery_time=checking + ec_period,
            checking_period=checking,
            ec_recovery_period=ec_period,
            wa_actual=wa_actual,
            used_bytes=used_bytes,
            workload_bytes=workload_bytes,
            repair_bytes_read=repair_read,
            repair_bytes_written=repair_written,
            affected_objects=affected_objects,
            lost_chunks=lost_chunks,
            wan_cross_read_bytes=wan_cross_bytes,
            time_at_risk=time_at_risk,
        )

    # -- client-path p99 ---------------------------------------------------------

    def predict_degraded_p99(
        self,
        profile: ExperimentProfile,
        objects: int = 48,
        object_size: int = 8 * 1024 * 1024,
        interval: float = 0.25,
    ) -> float:
        """Degraded-read p99 during the down-not-out checking window.

        Mirrors the evaluator's :func:`measure_degraded_p99` scenario:
        one host down, no recovery traffic yet (the window closes before
        the down/out interval), an open-loop read stream.  A degraded
        read fetches k surviving shards in parallel — the slowest leg is
        disk service plus the k-way fan-in on the coordinator's NIC —
        then pays an on-the-fly decode.
        """
        code = profile.create_code()
        config = profile.ceph
        layout = layout_object(object_size, code.n, code.k, profile.stripe_unit)
        chunk = layout.chunk_stored_bytes
        disk = profile.disk_spec()
        nic = M5_NIC
        disk_svc = disk.service_time(
            sequential_ops(config, chunk), chunk, write=False
        )
        survivors = max(
            1, (profile.num_hosts - 1) * profile.osds_per_host
        )
        # Light self-interference of the open-loop stream.
        arrival = code.k / interval / survivors
        rho = min(0.9, arrival * disk_svc)
        fan_in = code.k * nic.wire_time(chunk)
        decode = coding_time(
            config,
            chunk,
            1.0,
            layout.units * code.sub_chunk_count,
            code.cpu_cost_factor,
        )
        latency = (
            RadosClient.request_overhead
            + disk_svc / (1.0 - rho)
            + fan_in
            + nic.latency
            + decode
        )
        return latency * self.calibration.p99_inflation

    def predict_tenant_slo_p99(
        self,
        profile: ExperimentProfile,
        objects: int = 32,
        object_size: int = 4 * 1024 * 1024,
        interval: float = 0.5,
        reservation: float = 0.2,
    ) -> float:
        """A reserved tenant's read p99 beside a saturating batch tenant.

        The mClock floor guarantees the latency tenant ``reservation`` of
        every OSD's service rate; its weight share (4:1 in the probe
        fleet) usually grants more.  The batch tenant's utilisation
        inflates queueing up to that floor — the knee the tenant probe
        measures.
        """
        base = self.predict_degraded_p99(
            profile, objects=objects, object_size=object_size, interval=interval
        )
        weight_share = 4.0 / 5.0
        share = max(reservation, weight_share)
        # The batch competitor saturates; the scheduler still serves the
        # latency class at `share` of each device, so its effective
        # service stretches by at most 1/share, damped by contention.
        stretch = 1.0 + self.calibration.tenant_contention * (
            1.0 / max(share, 1e-6) - 1.0
        )
        floor_stretch = 1.0 / max(reservation, 1e-6)
        return base * min(stretch, floor_stretch)

    def predict_overwrite_amplification(
        self, profile: ExperimentProfile, rmw_fraction: float = 1.0
    ) -> float:
        """Device bytes rewritten per logical overwrite byte.

        The closed form of the WA ledger's measured ratio
        ``overwrite_stored_bytes / overwrite_client_bytes``
        (:class:`repro.cluster.ceph.WaLedger`): a partial-stripe RMW of
        one stripe unit rewrites the data unit
        plus every parity unit — ``1 + m`` — while a full-stripe
        overwrite re-encodes in place at the ingest ratio ``n / k``.
        ``rmw_fraction`` mixes the two (1.0 = all partial RMWs).
        """
        if not 0.0 <= rmw_fraction <= 1.0:
            raise ValueError("rmw_fraction must be in [0, 1]")
        code = profile.create_code()
        m = code.n - code.k
        return rmw_fraction * (1.0 + m) + (1.0 - rmw_fraction) * (
            code.n / code.k
        )


_DEFAULT_TWIN = AnalyticalTwin()


def predict(
    profile: ExperimentProfile,
    workload: Workload,
    faults: Optional[Sequence[FaultSpec]] = None,
) -> TwinPrediction:
    """Module-level convenience around a default-calibrated twin."""
    return _DEFAULT_TWIN.predict(profile, workload, faults)


def predict_degraded_p99(profile: ExperimentProfile, **kwargs) -> float:
    """Default-calibrated :meth:`AnalyticalTwin.predict_degraded_p99`."""
    return _DEFAULT_TWIN.predict_degraded_p99(profile, **kwargs)


def predict_tenant_slo_p99(profile: ExperimentProfile, **kwargs) -> float:
    """Default-calibrated :meth:`AnalyticalTwin.predict_tenant_slo_p99`."""
    return _DEFAULT_TWIN.predict_tenant_slo_p99(profile, **kwargs)


def predict_overwrite_amplification(
    profile: ExperimentProfile, rmw_fraction: float = 1.0
) -> float:
    """Default-calibrated :meth:`AnalyticalTwin.predict_overwrite_amplification`."""
    return _DEFAULT_TWIN.predict_overwrite_amplification(profile, rmw_fraction)
