"""Peering and EC recovery state machine.

When the monitor marks OSDs *out*, every placement group whose acting set
intersects them goes through the Ceph-like cycle this module models:

1. **Queueing** — the PG is queued, missing shards are computed from the
   old acting set ("collecting missing OSDs, queueing recovery").
2. **Reservation + peering** — the PG takes a backfill reservation on its
   primary and on each replacement OSD (``osd_max_backfills`` throttle),
   then scans its object census ("check recovery resource").
3. **Recovery I/O** — per object: the primary pulls the repair plan's
   reads from the surviving shards (disk + NIC), decodes (CPU), and
   pushes rebuilt chunks to the replacement OSDs (NIC + disk), throttled
   by ``osd_recovery_max_active`` per primary.

All repair I/O amounts come from the erasure code's own
:meth:`~repro.ec.base.ErasureCode.repair_plan`, so RS-vs-Clay differences
in Figures 2c/2d are produced by the codes, not by per-code constants.

Recovery ops are *gray-fault tolerant*: pulls and pushes that hit a
dropped transfer, a partitioned host, or a flapped-down helper are
retried with seeded backoff and a fresh repair plan (surviving helpers
re-enumerated per attempt), up to ``recovery_retry_max`` times.  An op
that exhausts its budget is abandoned — the PG stays degraded on its old
acting set rather than wedging the whole recovery cycle, and partial
pushes are rolled back so byte conservation stays exact.  Abandoned PGs
are remembered and *requeued* the next time a helper OSD rejoins the
map, so a healed cluster converges instead of staying wedged.

**Delta recovery** (the transient half of the failure-mode axis): when
an OSD comes back *up* before ``mon_osd_down_out_interval`` — the
monitor fires ``on_up`` instead of ``on_out`` — the PG's write log
(:mod:`repro.cluster.pglog`) already knows exactly which objects each
stale shard missed.  Peering diffs shard versions against the log and
repairs only those objects, in place, with no backfill reservation
storm; a shard whose divergence outlived the log's hard cap falls back
to a full per-shard sweep (Ceph's "log too short, backfilling").  Delta
bytes are accounted separately and bounded by an accrued budget so the
chaos harness can assert log-bounded repair as a step invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Set

from ..ec.base import ErasureCode
from ..sim import Chain, Environment, Event
from ..sim.rng import SeedSequence
from .crush import PlacementError
from .devices import DiskFailedError
from .logs import NodeLog
from .network import TransferDroppedError
from .osd import CephConfig, OsdDaemon, coding_time, resolve_subchunk_read
from .pool import PlacementGroup, Pool, StoredObject
from .retry import retry_backoff
from .topology import ClusterTopology

__all__ = [
    "RecoveryStats",
    "RecoveryManager",
    "AdmissionRecord",
    "DELTA_STAT_KEYS",
    "GEO_STAT_KEYS",
    "CASCADE_STAT_KEYS",
]


@dataclass
class RecoveryStats:
    """Aggregate counters for one recovery cycle."""

    pgs_queued: int = 0
    pgs_recovered: int = 0
    pgs_unplaceable: int = 0
    objects_recovered: int = 0
    chunks_rebuilt: int = 0
    chunks_toofull: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    #: Object-op retries forced by gray faults (drops, flapped helpers).
    op_retries: int = 0
    #: Object ops abandoned after exhausting the retry budget.
    ops_abandoned: int = 0
    #: PGs left degraded because at least one op was abandoned.
    pgs_abandoned: int = 0
    #: Abandoned-degraded PGs requeued after a helper OSD rejoined.
    pgs_requeued: int = 0
    #: pg_log delta-recovery counters (transient down->up restarts).
    pgs_delta_recovered: int = 0
    objects_delta_recovered: int = 0
    delta_bytes_read: int = 0
    delta_bytes_written: int = 0
    #: Shard sweeps forced because the log trimmed past divergence.
    delta_fallback_backfills: int = 0
    #: Accrued delta allowance: the planned pull+push bytes of every
    #: delta attempt, credited *before* the I/O runs.  The log-bounded
    #: repair invariant asserts delta bytes spent never exceed it.
    delta_budget_bytes: int = 0
    #: Stretch-cluster counters: repair payload bytes that crossed a
    #: region boundary (counted only after the WAN delivered them, so
    #: they mirror the WanFabric's own delivered-byte accounting).
    cross_region_bytes_read: int = 0
    cross_region_bytes_written: int = 0
    cross_region_pulls: int = 0
    cross_region_pushes: int = 0
    #: Cascade-resilience counters.  ``time_at_min_redundancy`` is
    #: aggregate PG-seconds spent at redundancy margin <= 0 (one more
    #: loss is data loss), measured between osdmap/recovery events and
    #: only when ``osd_track_risk_exposure`` is on;
    #: ``pgs_at_min_redundancy`` counts entries into that state.
    #: ``pgs_toofull_requeued`` counts PGs whose toofull-abandoned
    #: backfill was requeued after capacity freed up.
    time_at_min_redundancy: float = 0.0
    pgs_at_min_redundancy: int = 0
    pgs_toofull_requeued: int = 0
    started_at: Optional[float] = None
    io_started_at: Optional[float] = None
    finished_at: Optional[float] = None


#: RecoveryStats fields added with the write path — pruned from digests
#: when zero so read-only runs hash identically to the prior model.
DELTA_STAT_KEYS = (
    "pgs_requeued",
    "pgs_delta_recovered",
    "objects_delta_recovered",
    "delta_bytes_read",
    "delta_bytes_written",
    "delta_fallback_backfills",
    "delta_budget_bytes",
)

#: RecoveryStats fields added with the geo axis — pruned from digests
#: when zero so single-region runs hash identically to the prior model.
GEO_STAT_KEYS = (
    "cross_region_bytes_read",
    "cross_region_bytes_written",
    "cross_region_pulls",
    "cross_region_pushes",
)

#: RecoveryStats fields added with the cascade axis — pruned from
#: digests when zero so pre-cascade runs hash identically.
CASCADE_STAT_KEYS = (
    "time_at_min_redundancy",
    "pgs_at_min_redundancy",
    "pgs_toofull_requeued",
)


@dataclass(frozen=True)
class AdmissionRecord:
    """One risk-mode recovery admission, for the priority-soundness oracle.

    ``pending_margins`` snapshots the redundancy margins of the PGs
    still waiting behind this one at the admission instant; the
    invariant asserts none of them was strictly more at risk than the
    PG admitted.  Only risk-priority runs record admissions — FIFO runs
    keep an empty log (the invariant is vacuous there by design).
    """

    at: float
    pg_id: int
    margin: int
    pending_margins: tuple


class RecoveryManager:
    """Drives all PG recoveries triggered by an osdmap change."""

    def __init__(
        self,
        env: Environment,
        topology: ClusterTopology,
        osds: Dict[int, OsdDaemon],
        pool: Pool,
        config: CephConfig,
        host_logs: Dict[int, NodeLog],
        mgr_log: NodeLog,
        ledger=None,
    ):
        self.env = env
        self.topology = topology
        self.osds = osds
        self.pool = pool
        self.config = config
        self.host_logs = host_logs
        self.mgr_log = mgr_log
        #: Optional WaLedger credited as rebuilt chunks are stored, so the
        #: cluster-wide byte-conservation invariant stays exact.
        self.ledger = ledger
        #: Duck-typed ByzantineState reference, planted by
        #: ``ensure_byzantine``; None unless a Byzantine fault landed.
        self.byzantine = None
        self.stats = RecoveryStats()
        # Consumed only when a gray fault actually forces a retry, so
        # healthy recovery cycles never draw from it.
        self._retry_rng = SeedSequence(0).stream("recovery-retry")
        self.out_osds: Set[int] = set()
        self._active_pgs = 0
        self._all_done: Optional[Event] = None
        #: PGs whose recovery was abandoned (or unplaceable): candidates
        #: for requeueing the next time an OSD rejoins the map.
        self._abandoned_pgs: Set[int] = set()
        #: PGs with a delta-recovery process in flight (dedupe guard).
        self._delta_busy: Set[int] = set()
        #: Deterministic round-robin offset for helper load-balancing on
        #: stretch clusters (D3 spirit): advanced once per localized
        #: plan, so successive objects spread their pulls across
        #: surviving hosts instead of hammering the same straw2 prefix.
        #: Never advanced on single-region topologies.
        self._helper_rr = 0
        #: Risk-mode admission trail (see :class:`AdmissionRecord`);
        #: stays empty under FIFO priority.
        self.admission_log: List[AdmissionRecord] = []
        #: pg_id -> sim time it entered redundancy margin <= 0; clocks
        #: close into ``stats.time_at_min_redundancy`` when margin
        #: recovers.  Only maintained under ``osd_track_risk_exposure``.
        self._at_min_since: Dict[int, float] = {}
        #: PGs that hit a toofull push during recovery, mapped to a
        #: per-up-OSD used-bytes snapshot at abandon time: a later drop
        #: below the snapshot (or a fresh OSD joining) requeues them.
        self._toofull_pgs: Dict[int, Dict[int, int]] = {}
        #: Toofull hits observed mid-recovery, consumed by
        #: ``_recover_pg`` to turn a silently-incomplete backfill into
        #: an explicit abandon-and-requeue.
        self._toofull_hit: Set[int] = set()
        #: pg_id -> earliest time its recovery was abandoned while a
        #: healthy placement with spare capacity demonstrably existed —
        #: the audit trail behind the no-avoidable-loss invariant.
        #: Entries clear when the PG later recovers.
        self._abandoned_with_alternative: Dict[int, float] = {}

    @property
    def idle(self) -> bool:
        """No PG recovery in flight (an invariant-probe for the chaos harness)."""
        return self._active_pgs == 0

    def _log_for(self, osd_id: int) -> NodeLog:
        return self.host_logs[self.osds[osd_id].device.host_id]

    # -- entry point (wired to Monitor.on_out) -------------------------------------

    def on_osds_out(self, newly_out: Set[int]) -> None:
        """React to an osdmap change: queue recovery for affected PGs."""
        self.out_osds |= set(newly_out)
        self._update_risk_clocks()
        if self.stats.started_at is None:
            self.stats.started_at = self.env.now
        affected = self.pool.pgs_using_osd(newly_out)
        batch = []
        for pg in affected:
            lost_shards = pg.shards_on(self.out_osds)
            if not lost_shards:
                continue
            batch.append((pg, lost_shards))
        self._spawn_recoveries(batch)

    # -- risk-prioritized dispatch ---------------------------------------------------

    def pg_margin(self, pg: PlacementGroup) -> int:
        """Redundancy margin: up acting shards minus k.

        0 means one more loss is data loss (min redundancy); negative
        means the PG cannot currently serve reads from live shards.
        """
        alive = sum(
            1 for osd_id in pg.acting if self.osds[osd_id].is_up()
        )
        return alive - self.pool.code.k

    def _risk_key(self, pg: PlacementGroup, lost_shards: List[int]):
        """Priority-queue order: margin asc, bytes-at-risk desc,
        degraded-object count desc, pg id (deterministic tie-break)."""
        bytes_at_risk = pg.stored_bytes() * len(lost_shards)
        return (
            self.pg_margin(pg),
            -bytes_at_risk,
            -len(pg.objects),
            pg.pg_id,
        )

    def _spawn_recoveries(self, batch, requeued: bool = False) -> None:
        """Dispatch a same-instant batch of PG recoveries.

        FIFO mode spawns in the caller's (pool-iteration) order — byte
        identical to the historical model.  Risk mode re-scores every
        queued PG against the *current* map (margins reflect any OSD
        that is already down again), sorts by risk, and spawns in that
        order; because all processes start at the same instant, the
        backfill Resource queues then grant reservations in priority
        order.  Each admission is recorded for the priority-soundness
        invariant.
        """
        if self.config.osd_recovery_priority == "risk":
            batch = sorted(
                batch, key=lambda item: self._risk_key(item[0], item[1])
            )
            margins = [self.pg_margin(pg) for pg, _ in batch]
            for index, (pg, _) in enumerate(batch):
                self.admission_log.append(
                    AdmissionRecord(
                        at=self.env.now,
                        pg_id=pg.pg_id,
                        margin=margins[index],
                        pending_margins=tuple(margins[index + 1:]),
                    )
                )
        for pg, lost_shards in batch:
            self._active_pgs += 1
            self.stats.pgs_queued += 1
            if requeued:
                self.stats.pgs_requeued += 1
                self.mgr_log.emit(
                    self.env.now, "mgr",
                    "helper rejoined, requeueing degraded pg", pg=pg.pgid,
                )
            self.env.process(self._recover_pg(pg, lost_shards))

    def _update_risk_clocks(self) -> None:
        """Advance the per-PG time-at-min-redundancy accounting.

        Called on every osdmap/up event and on each PG recovery
        completion; a no-op unless ``osd_track_risk_exposure`` is set,
        so pre-cascade runs never touch the new stats fields.
        """
        if not self.config.osd_track_risk_exposure:
            return
        now = self.env.now
        for pg_id in sorted(self.pool.pgs):
            pg = self.pool.pgs[pg_id]
            at_min = self.pg_margin(pg) <= 0
            since = self._at_min_since.get(pg_id)
            if at_min and since is None:
                self._at_min_since[pg_id] = now
                self.stats.pgs_at_min_redundancy += 1
            elif not at_min and since is not None:
                self.stats.time_at_min_redundancy += now - since
                del self._at_min_since[pg_id]

    def on_osds_in(self, newly_in: Set[int]) -> None:
        """React to restored OSDs rejoining the map.

        Dropping them from the exclusion set lets later placement and
        fault rounds reuse them — without this, a restore leaves the set
        permanently poisoned and repeated fault/restore campaigns starve.

        PGs whose recovery was abandoned (gray faults exhausted the
        retry budget) or unplaceable are requeued here: a rejoining
        helper is exactly the event that can make them recoverable, and
        without the requeue a healed cluster stays wedged degraded.
        """
        self.out_osds -= set(newly_in)
        self._update_risk_clocks()
        if self._abandoned_pgs:
            requeue = sorted(self._abandoned_pgs)
            self._abandoned_pgs.clear()
            batch = []
            for pg_id in requeue:
                pg = self.pool.pgs[pg_id]
                # A rejoining OSD supersedes the capacity watch: the
                # requeue here already retries the backfill.
                self._toofull_pgs.pop(pg_id, None)
                lost_shards = pg.shards_on(self.out_osds)
                if not lost_shards:
                    # Every OSD this PG was missing is back in the map:
                    # nothing to rebuild (any staleness is delta's job).
                    continue
                batch.append((pg, lost_shards))
            self._spawn_recoveries(batch, requeued=True)
        self._queue_delta(set(newly_in))

    # -- entry point (wired to Monitor.on_up): pg_log delta recovery ----------------

    def on_osds_up(self, newly_up: Set[int]) -> None:
        """A transient restart: down->up *before* the down-out interval.

        No osdmap placement changed, so there is nothing to backfill —
        but the rejoining OSD missed every write committed while it was
        away.  The PG logs know exactly which objects those were; queue
        delta recovery for the affected PGs.
        """
        self._update_risk_clocks()
        self._queue_delta(set(newly_up))

    def _queue_delta(self, osd_ids: Set[int]) -> None:
        for pg in self.pool.pgs_using_osd(osd_ids):
            self._maybe_queue_delta_pg(pg)

    def _maybe_queue_delta_pg(self, pg: PlacementGroup) -> bool:
        """Queue delta recovery if the PG has dirty shards on live OSDs."""
        if pg.log is None or pg.pg_id in self._delta_busy:
            return False
        dirty = [
            shard
            for shard in sorted(pg.log.dirty_shards())
            if pg.acting[shard] not in self.out_osds
            and self.osds[pg.acting[shard]].is_up()
        ]
        if not dirty:
            return False
        self._delta_busy.add(pg.pg_id)
        self._active_pgs += 1
        self.stats.pgs_queued += 1
        if self.stats.started_at is None:
            self.stats.started_at = self.env.now
        self.env.process(self._delta_recover_pg(pg))
        return True

    def kick_stale(self) -> bool:
        """Queue delta recovery for every PG with live dirty shards.

        Convergence predicates (the cycle's restore settle, the chaos
        settle loop) call this to catch staleness with no down->up
        trigger: an OSD whose fault was restored within the heartbeat
        grace was never marked down, so no monitor event fires, yet its
        shards may have missed writes.  Returns True if anything was queued (=> not converged).
        No-op on read-only runs — nothing is ever dirty.
        """
        queued = False
        for pg_id in sorted(self.pool.pgs):
            if self._maybe_queue_delta_pg(self.pool.pgs[pg_id]):
                queued = True
        if self._kick_toofull():
            queued = True
        return queued

    # -- toofull requeue (capacity backpressure) --------------------------------------

    def _capacity_snapshot(self) -> Dict[int, int]:
        """Per-up-OSD allocated bytes, the toofull-retry trigger state."""
        return {
            osd_id: self.osds[osd_id].disk.used_bytes
            for osd_id in sorted(self.osds)
            if self.osds[osd_id].is_up()
        }

    def _note_toofull(self, pg: PlacementGroup) -> None:
        """Watch a toofull-abandoned PG for freed capacity.

        The snapshot comparison in :meth:`_kick_toofull` only requeues
        when some up OSD's usage *dropped* below what it was at abandon
        time (or a fresh OSD joined) — never on mere growth — so the
        settle loop cannot livelock on a permanently-full cluster.
        """
        self._toofull_pgs[pg.pg_id] = self._capacity_snapshot()

    def _kick_toofull(self) -> bool:
        """Requeue toofull-abandoned PGs once capacity has freed.

        Called from :meth:`kick_stale` (the chaos/gray convergence
        kick): a transient toofull — an OSD that filled during the
        cascade and later freed space, or a new target joining — no
        longer leaves a permanently degraded shard.
        """
        queued = False
        batch = []
        current = self._capacity_snapshot() if self._toofull_pgs else {}
        for pg_id in sorted(self._toofull_pgs):
            snapshot = self._toofull_pgs[pg_id]
            freed = any(
                used < snapshot.get(osd_id, float("inf"))
                for osd_id, used in current.items()
            )
            if not freed:
                continue
            del self._toofull_pgs[pg_id]
            pg = self.pool.pgs[pg_id]
            self._abandoned_pgs.discard(pg_id)
            lost_shards = pg.shards_on(self.out_osds)
            if not lost_shards:
                continue
            self.stats.pgs_toofull_requeued += 1
            self.mgr_log.emit(
                self.env.now, "mgr",
                "capacity freed, requeueing toofull pg", pg=pg.pgid,
            )
            batch.append((pg, lost_shards))
            queued = True
        if batch:
            self._spawn_recoveries(batch)
        return queued

    def wait_all_recovered(self) -> Event:
        """Event firing when every queued PG finished recovery."""
        if self._all_done is None:
            self._all_done = self.env.event()
            if self._active_pgs == 0:
                self._all_done.succeed()
        return self._all_done

    def _pg_finished(self) -> None:
        self._active_pgs -= 1
        self.stats.finished_at = self.env.now
        if self._active_pgs == 0 and self._all_done is not None:
            if not self._all_done.triggered:
                self._all_done.succeed()

    # -- per-PG state machine --------------------------------------------------------

    def _backfillfull_osds(self) -> Set[int]:
        """OSDs past the backfillfull ratio: not valid backfill targets."""
        return {
            osd_id
            for osd_id, osd in self.osds.items()
            if self.config.capacity_tier(osd.disk.usage_ratio)
            in ("backfillfull", "full")
        }

    def _audit_abandon(self, pg: PlacementGroup) -> None:
        """Record an abandon while a viable alternative placement existed.

        The no-avoidable-loss invariant's evidence trail: if at abandon
        time a placement avoiding the out set existed whose every OSD
        still had headroom for this PG's shard, remember the instant.
        The entry clears if the PG later recovers; one surviving an
        actual data loss convicts the recovery policy of avoidable loss.
        """
        if pg.pg_id in self._abandoned_with_alternative:
            return
        shard_bytes = pg.stored_bytes()
        full = {
            osd_id
            for osd_id, osd in self.osds.items()
            if osd.disk.headroom_bytes() < shard_bytes
        }
        try:
            self.pool.place(pg.pg_id, self.out_osds | full)
        except PlacementError:
            return
        self._abandoned_with_alternative[pg.pg_id] = self.env.now

    def _recover_pg(self, pg: PlacementGroup, lost_shards: List[int]) -> Generator:
        old_acting = list(pg.acting)
        self._toofull_hit.discard(pg.pg_id)
        # Capacity-aware target selection: OSDs past the backfillfull
        # ratio are excluded up front (Ceph's backfillfull reservation
        # rejection).  If that leaves too few buckets, fall back to
        # capacity-blind placement — the per-push headroom check is
        # still the last line of defense.
        excluded = self.out_osds | self._backfillfull_osds()
        try:
            try:
                new_acting = self.pool.place(pg.pg_id, excluded)
            except PlacementError:
                if excluded == self.out_osds:
                    raise
                new_acting = self.pool.place(pg.pg_id, self.out_osds)
        except PlacementError:
            self.stats.pgs_unplaceable += 1
            self._abandoned_pgs.add(pg.pg_id)
            self._audit_abandon(pg)
            self.mgr_log.emit(
                self.env.now, "mgr", "pg remains degraded, no placement",
                pg=pg.pgid,
            )
            self._pg_finished()
            return

        primary = new_acting[0]
        if (
            self.topology.wan is not None
            and self.config.recovery_locality_aware
        ):
            primary = self._geo_primary(old_acting, new_acting, lost_shards)
        targets = sorted({new_acting[shard] for shard in lost_shards})
        self._log_for(primary).emit(
            self.env.now,
            "osd",
            "collecting missing OSDs, queueing recovery",
            pg=pg.pgid,
            missing=len(lost_shards),
        )

        # Backfill reservations, taken in OSD-id order to avoid deadlock.
        reservation_osds = sorted({primary, *targets})
        for osd_id in reservation_osds:
            yield self.osds[osd_id].backfill_slots.acquire()
        try:
            self._log_for(primary).emit(
                self.env.now, "osd", "check recovery resource", pg=pg.pgid
            )
            peering = (
                self.config.peering_base
                + self.config.peering_per_object * len(pg.objects)
            )
            yield self.env.timeout(peering)
            # Peering compares per-shard version claims, so any false
            # ack on this PG surfaces here as pg_log divergence.
            if self.byzantine is not None:
                revealed = self.byzantine.reveal_false_acks(
                    pg, self.env.now, "peering"
                )
                if revealed:
                    self._log_for(primary).emit(
                        self.env.now, "osd",
                        "peering version check: acked writes never applied",
                        pg=pg.pgid, shards=revealed,
                    )
            if self.stats.io_started_at is None:
                self.stats.io_started_at = self.env.now
                self.mgr_log.emit(
                    self.env.now, "mgr", "report recovery I/O", phase="start"
                )
            self._log_for(primary).emit(
                self.env.now, "osd", "start recovery I/O",
                pg=pg.pgid, objects=len(pg.objects),
            )
            ops = [
                self.env.process(
                    self._recover_object(
                        pg, obj, lost_shards, old_acting, new_acting,
                        primary_id=primary,
                    )
                )
                for obj in pg.objects
            ]
            results = (yield self.env.all_of(ops)) if ops else []
        finally:
            for osd_id in reversed(reservation_osds):
                self.osds[osd_id].backfill_slots.release()

        toofull = pg.pg_id in self._toofull_hit
        self._toofull_hit.discard(pg.pg_id)
        if not all(results) or toofull:
            # At least one object op was abandoned (or a push found its
            # target toofull): the rebuilt state is incomplete, so the
            # PG keeps its old acting set and stays degraded instead of
            # claiming a clean map it cannot serve.
            self.stats.pgs_abandoned += 1
            self._abandoned_pgs.add(pg.pg_id)
            self._audit_abandon(pg)
            if toofull:
                # Watch for freed capacity: kick_stale requeues this PG
                # instead of leaving the shard permanently degraded.
                self._note_toofull(pg)
                self._log_for(primary).emit(
                    self.env.now, "osd",
                    "backfill toofull, pg remains degraded",
                    pg=pg.pgid,
                )
            else:
                self._log_for(primary).emit(
                    self.env.now, "osd",
                    "recovery abandoned, pg remains degraded",
                    pg=pg.pgid, failed=sum(1 for ok in results if not ok),
                )
            self._pg_finished()
            return

        pg.acting = new_acting
        self._abandoned_with_alternative.pop(pg.pg_id, None)
        self._toofull_pgs.pop(pg.pg_id, None)
        self._update_risk_clocks()
        self.stats.pgs_recovered += 1
        self._log_for(primary).emit(
            self.env.now, "osd", "recovery completed", pg=pg.pgid
        )
        self.mgr_log.emit(
            self.env.now, "mgr", "report recovery I/O",
            pg=pg.pgid, phase="pg-done",
        )
        # Backfill rebuilt the lost shards current, but staleness on
        # *other* positions (writes that raced the rebuild, shards that
        # missed writes without ever failing) is delta's job.
        if pg.log is not None and pg.log.dirty_shards():
            self._maybe_queue_delta_pg(pg)
        self._pg_finished()

    def _geo_primary(
        self,
        old_acting: List[int],
        new_acting: List[int],
        lost_shards: List[int],
    ) -> int:
        """Pick the decoding primary in the cheapest region for the WAN.

        On a stretch cluster the primary is where helper pulls converge
        and pushes originate, so its region decides which legs cross the
        WAN.  The cheapest region minimises the repair plan's cross
        bytes: each helper read costs its plan fraction when pulled from
        another region, each rebuilt shard a full push when its target
        lives elsewhere.  The split matters — for a single loss the
        target's region wins (LRC pulls its whole local group in-region,
        Clay's fractional pulls are cheaper than a full cross push), but
        for a region-wide rebuild every helper lives elsewhere and
        decoding next to the helpers beats shipping their full reads
        into the recovering region, retries included.  Ties prefer the
        helper-richest region (retried pulls stay local), then the
        lowest region id — fully deterministic, no RNG draw.
        """
        region_of = self.topology.region_of
        code = self.pool.code
        alive = [
            shard
            for shard, osd_id in enumerate(old_acting)
            if shard not in lost_shards and self.osds[osd_id].is_up()
        ]
        try:
            plan = code.repair_plan(list(lost_shards), alive)
            reads = [
                (region_of(old_acting[read.chunk_index]), read.fraction)
                for read in plan.reads
            ]
        except ValueError:
            # Not repairable right now (flap window) — approximate with
            # the conventional any-k read set.
            reads = [(region_of(old_acting[s]), 1.0) for s in alive[: code.k]]
        targets = [region_of(new_acting[s]) for s in lost_shards]
        candidates = sorted({region for region, _ in reads} | set(targets))
        if not candidates:
            return new_acting[0]

        def wan_cost(region: int):
            pulls = sum(f for r, f in reads if r != region)
            pushes = sum(1.0 for r in targets if r != region)
            helpers = sum(1 for r, _ in reads if r == region)
            return (pulls + pushes, -helpers, region)

        home = min(candidates, key=wan_cost)
        for shard in lost_shards:
            if region_of(new_acting[shard]) == home:
                return new_acting[shard]
        for shard, osd_id in enumerate(new_acting):
            if shard not in lost_shards and region_of(osd_id) == home:
                return osd_id
        return new_acting[0]

    # -- pg_log delta recovery (transient down->up restarts) --------------------------

    def _delta_recover_pg(self, pg: PlacementGroup) -> Generator:
        """Repair a PG's stale shards in place, guided by its pg_log.

        Loops until the log shows no live dirty shard: writes racing a
        round (``record_repair`` refuses a stale version) or landing
        mid-round simply dirty the log again and are picked up by the
        next round.  Pure delta rounds take *no* backfill reservations —
        that absence is the reservation-storm half of the transient-vs-
        permanent cost gap; only the trimmed-log fallback sweeps reserve.
        """
        log = pg.log
        assert log is not None
        primary_id = pg.acting[0]
        announced = False
        try:
            while True:
                acting = list(pg.acting)
                live_dirty = [
                    shard
                    for shard in sorted(log.dirty_shards())
                    if acting[shard] not in self.out_osds
                    and self.osds[acting[shard]].is_up()
                ]
                if not live_dirty:
                    break
                primary_id = next(
                    (osd_id for osd_id in acting if self.osds[osd_id].is_up()),
                    acting[0],
                )
                fallback = [
                    shard for shard in live_dirty
                    if log.delta_objects(shard) is None
                ]
                delta_shards = [s for s in live_dirty if s not in fallback]
                by_name = {obj.name: obj for obj in pg.objects}
                dirty_objs: Dict[str, Set[int]] = {}
                first_miss: Dict[str, int] = {}
                for shard in delta_shards:
                    for name in log.delta_objects(shard):
                        dirty_objs.setdefault(name, set()).add(shard)
                        since = log.stale_since(name, shard)
                        if name not in first_miss or since < first_miss[name]:
                            first_miss[name] = since
                if not announced:
                    announced = True
                    self._log_for(primary_id).emit(
                        self.env.now, "osd", "pg_log peering: delta recovery",
                        pg=pg.pgid, dirty=len(live_dirty),
                        objects=len(dirty_objs),
                    )
                # Peering cost scales with the log diff, not the census.
                yield self.env.timeout(
                    self.config.peering_base
                    + self.config.peering_per_object * len(dirty_objs)
                )
                # Delta peering runs the same version cross-check as a
                # full peer: false acks on this PG surface here too.
                if self.byzantine is not None:
                    revealed = self.byzantine.reveal_false_acks(
                        pg, self.env.now, "peering"
                    )
                    if revealed:
                        self._log_for(primary_id).emit(
                            self.env.now, "osd",
                            "peering version check: acked writes "
                            "never applied",
                            pg=pg.pgid, shards=revealed,
                        )
                if self.stats.io_started_at is None:
                    self.stats.io_started_at = self.env.now
                    self.mgr_log.emit(
                        self.env.now, "mgr", "report recovery I/O",
                        phase="start",
                    )
                before = log.dirty_state()
                ok = True
                if dirty_objs:
                    order = sorted(
                        dirty_objs, key=lambda name: (first_miss[name], name)
                    )
                    ops = [
                        self.env.process(
                            self._recover_object(
                                pg, by_name[name], sorted(dirty_objs[name]),
                                acting, acting,
                                in_place=True, delta=True,
                                primary_id=primary_id,
                            )
                        )
                        for name in order
                    ]
                    results = yield self.env.all_of(ops)
                    ok = all(results)
                if fallback:
                    swept = yield from self._sweep_shards(
                        pg, acting, fallback, primary_id
                    )
                    ok = ok and swept
                if not ok:
                    # Retry budgets exhausted mid-gray-fault: leave the
                    # staleness recorded; the next monitor event or
                    # convergence kick requeues this PG.
                    self._log_for(primary_id).emit(
                        self.env.now, "osd",
                        "delta recovery abandoned, pg remains stale",
                        pg=pg.pgid,
                    )
                    return
                if log.dirty_state() == before:
                    # No repair landed and no write raced (head is
                    # unchanged): another round would do exactly the
                    # same work (e.g. toofull targets).  Bail rather
                    # than loop; the next osdmap event retries.
                    self._log_for(primary_id).emit(
                        self.env.now, "osd",
                        "delta recovery stalled, pg remains stale",
                        pg=pg.pgid,
                    )
                    return
            if announced:
                self.stats.pgs_delta_recovered += 1
                self._log_for(primary_id).emit(
                    self.env.now, "osd", "delta recovery completed",
                    pg=pg.pgid,
                )
                self.mgr_log.emit(
                    self.env.now, "mgr", "report recovery I/O",
                    pg=pg.pgid, phase="delta-done",
                )
        finally:
            self._delta_busy.discard(pg.pg_id)
            self._pg_finished()

    def _sweep_shards(
        self,
        pg: PlacementGroup,
        acting: List[int],
        shards: List[int],
        primary_id: int,
    ) -> Generator:
        """Full in-place sweep of shards whose log window was trimmed.

        Ceph's "log too short, backfilling" arc: the log can no longer
        enumerate what these shards missed, so every object is rebuilt
        in place, under backfill reservations, with the bytes counted as
        ordinary recovery traffic — this *is* a backfill, merely one
        that keeps the acting set.
        """
        log = pg.log
        for shard in shards:
            self.stats.delta_fallback_backfills += 1
            self._log_for(primary_id).emit(
                self.env.now, "osd",
                "pg_log trimmed past divergence, falling back to backfill",
                pg=pg.pgid, shard=shard,
            )
        reservation_osds = sorted({primary_id, *(acting[s] for s in shards)})
        for osd_id in reservation_osds:
            yield self.osds[osd_id].backfill_slots.acquire()
        try:
            ops = [
                self.env.process(
                    self._recover_object(
                        pg, obj, list(shards), acting, acting,
                        in_place=True, delta=False, primary_id=primary_id,
                    )
                )
                for obj in pg.objects
            ]
            results = (yield self.env.all_of(ops)) if ops else []
        finally:
            for osd_id in reversed(reservation_osds):
                self.osds[osd_id].backfill_slots.release()
        if all(results):
            for shard in shards:
                log.clear_backfill(shard)
            return True
        return False

    # -- per-object recovery op ---------------------------------------------------------

    def _recover_object(
        self,
        pg: PlacementGroup,
        obj: StoredObject,
        lost_shards: List[int],
        old_acting: List[int],
        new_acting: List[int],
        in_place: bool = False,
        delta: bool = False,
        primary_id: Optional[int] = None,
    ) -> Generator:
        code = self.pool.code
        primary = self.osds[
            primary_id if primary_id is not None else new_acting[0]
        ]
        layout = obj.layout
        yield primary.recovery_ops.acquire()
        try:
            # Messaging/commit round trips of the pull+push op pair.
            yield self.env.timeout(self.config.recovery_op_overhead)
            attempt = 0
            #: Shards already persisted on their targets — never
            #: re-pushed across retries (no double-stored bytes).
            pushed: Set[int] = set()
            while True:
                ok = yield from self._attempt_object(
                    code, pg, obj, lost_shards, old_acting, new_acting,
                    primary, layout, pushed, in_place=in_place, delta=delta,
                )
                if ok:
                    if delta:
                        self.stats.objects_delta_recovered += 1
                    else:
                        self.stats.objects_recovered += 1
                    self.stats.chunks_rebuilt += len(lost_shards)
                    if self.config.osd_recovery_sleep:
                        yield self.env.timeout(self.config.osd_recovery_sleep)
                    return True
                attempt += 1
                if attempt > self.config.recovery_retry_max:
                    self.stats.ops_abandoned += 1
                    self._log_for(primary.osd_id).emit(
                        self.env.now, "osd",
                        "recovery op abandoned after retries",
                        pg=pg.pgid, object=obj.name, attempts=attempt,
                    )
                    return False
                self.stats.op_retries += 1
                yield self.env.timeout(
                    retry_backoff(
                        attempt, self.config.recovery_retry_base, self._retry_rng
                    )
                )
        finally:
            primary.recovery_ops.release()

    def _attempt_object(
        self,
        code: ErasureCode,
        pg: PlacementGroup,
        obj: StoredObject,
        lost_shards: List[int],
        old_acting: List[int],
        new_acting: List[int],
        primary: OsdDaemon,
        layout,
        pushed: Set[int],
        in_place: bool = False,
        delta: bool = False,
    ) -> Generator:
        """One pull+decode+push attempt; False on any gray-fault loss.

        Survivors are re-enumerated on every attempt, so a helper that
        flapped down (or a host whose network was restored) changes the
        repair plan between attempts rather than failing the op outright.
        Shards the pg_log knows to be stale never serve as sources, and
        the object version captured *before* the pulls is what
        ``record_repair`` asserts against — a write racing the repair
        leaves the shard stale and a later round redoes it.
        """
        log = pg.log
        stale = log.stale_shards(obj.name) if log is not None else set()
        captured_version = (
            log.object_version.get(obj.name) if log is not None else None
        )
        alive_shards = [
            shard
            for shard, osd_id in enumerate(old_acting)
            if shard not in lost_shards
            and shard not in stale
            and self.osds[osd_id].is_up()
        ]
        try:
            plan = code.repair_plan(lost_shards, alive_shards)
        except ValueError:
            # Too few helpers up right now (flap window) — retryable.
            return False
        if (
            self.topology.wan is not None
            and self.config.recovery_locality_aware
            and len(alive_shards) > len(plan.reads)
        ):
            plan = self._localize_plan(
                code, lost_shards, alive_shards, plan, old_acting, primary
            )
        to_push = [shard for shard in lost_shards if shard not in pushed]
        if delta:
            # Accrue the attempt's allowance before any I/O runs, so the
            # log-bounded-repair invariant is monotone-safe: bytes spent
            # can never overtake budget at any observation instant.
            planned_reads = sum(
                layout.chunk_stored_bytes
                if read.fraction >= 1.0
                else int(layout.chunk_stored_bytes * read.fraction)
                for read in plan.reads
            )
            self.stats.delta_budget_bytes += (
                planned_reads + layout.chunk_stored_bytes * len(to_push)
            )
        pulls = [
            _Pull(self, read, old_acting, primary, layout, delta)
            for read in plan.reads
        ]
        pull_results = yield self.env.all_of(pulls)
        if not all(pull_results):
            return False
        fragments = layout.units * code.sub_chunk_count * len(lost_shards)
        decode = coding_time(
            primary.config,
            nbytes=layout.chunk_stored_bytes * len(lost_shards),
            work=plan.decode_work,
            fragments=fragments,
            cpu_cost_factor=code.cpu_cost_factor,
        )
        yield primary.cpu.request(decode)
        pushes = {
            shard: self.env.process(
                self._push_shard(
                    shard, new_acting, primary, layout,
                    delta=delta,
                    # In-place repair overwrites the existing extents;
                    # allocation happens only for chunks a degraded
                    # create never physically stored.
                    allocate=(not in_place)
                    or (log is not None and log.is_unstored(obj.name, shard)),
                )
            )
            for shard in to_push
        }
        push_results = yield self.env.all_of(list(pushes.values()))
        for shard, result in zip(pushes, push_results):
            if result:
                pushed.add(shard)
                if result == "toofull":
                    # Surface the capacity miss to the PG state machine:
                    # _recover_pg abandons (and capacity-watches) the PG
                    # instead of claiming a clean map missing a chunk.
                    self._toofull_hit.add(pg.pg_id)
                if log is None:
                    continue
                if result == "stored":
                    # The chunk physically exists now, whatever version
                    # its content reflects — never allocate it again.
                    log.unstored.discard((obj.name, shard))
                if result != "toofull":
                    log.record_repair(obj.name, shard, captured_version)
        return all(push_results)

    def _localize_plan(
        self,
        code: ErasureCode,
        lost_shards: List[int],
        alive_shards: List[int],
        plan,
        old_acting: List[int],
        primary: OsdDaemon,
    ):
        """Steer the repair plan toward in-region helpers when it's free.

        Every plugin's ``repair_plan`` picks helpers from the *offered*
        alive set, so locality is injected by offering a subset: helpers
        in the primary's region first, ties broken by a deterministic
        round-robin over host ids (D3-style recovery load balancing),
        truncated to the read count the code already chose.  The
        candidate plan is accepted only if it is no worse on every cost
        axis — total read fraction, decode work, and cross-region reads
        — so codes whose repair sets are rigid (an LRC local group, a
        SHEC window) simply keep their original plan.  MDS codes accept
        any k helpers and Clay any d, which is where region-local
        reconstruction pays off.
        """
        home = self.topology.region_of(primary.osd_id)
        num_hosts = self.topology.num_hosts
        offset = self._helper_rr
        self._helper_rr += 1

        def rank(shard: int):
            osd_id = old_acting[shard]
            local = 0 if self.topology.region_of(osd_id) == home else 1
            host = self.osds[osd_id].device.host_id
            return (local, (host - offset) % num_hosts, shard)

        preferred = sorted(alive_shards, key=rank)[: len(plan.reads)]
        try:
            candidate = code.repair_plan(lost_shards, preferred)
        except ValueError:
            return plan

        def cross_fraction(p) -> float:
            return sum(
                read.fraction
                for read in p.reads
                if self.topology.region_of(old_acting[read.chunk_index])
                != home
            )

        eps = 1e-9
        total = sum(read.fraction for read in plan.reads)
        cand_total = sum(read.fraction for read in candidate.reads)
        if (
            cross_fraction(candidate) <= cross_fraction(plan) + eps
            and cand_total <= total + eps
            and candidate.decode_work <= plan.decode_work + eps
        ):
            return candidate
        return plan

    def _push_shard(
        self,
        shard: int,
        new_acting,
        primary: OsdDaemon,
        layout,
        delta: bool = False,
        allocate: bool = True,
    ) -> Generator:
        """Ship one rebuilt shard from the primary and persist it.

        With ``allocate`` (backfill to a fresh target, or a chunk a
        degraded create never stored) the space is reserved up front; a
        target without capacity headroom behaves like Ceph's
        ``backfill_toofull``: the shard stays degraded rather than
        overfilling the device (returns ``"toofull"`` — truthy, not
        retryable, but the caller must not mark the shard repaired).
        Without it the push overwrites the chunk's existing extents in
        place (delta repair of stale-but-stored data).

        Never fails its process.  If the wire transfer or the device
        write is lost to a gray fault, the speculative space reservation
        is rolled back (chunk removed, ledger debited) and ``False`` is
        returned, so a retry re-pushes from a clean accounting state.
        """
        target = self.osds[new_acting[shard]]
        nbytes = layout.chunk_stored_bytes
        if not target.is_up():
            # Flapped-down target: retry once it oscillates back up.
            return False
        allocated = metadata = 0
        if allocate:
            allocation = target.backend.chunk_allocation(nbytes, layout.units)
            allocated, metadata = allocation
            if target.disk.used_bytes + allocated + metadata > target.disk.spec.capacity_bytes:
                self.stats.chunks_toofull += 1
                self.mgr_log.emit(
                    self.env.now, "mgr", "backfill toofull, shard stays degraded",
                    osd=target.name,
                )
                return "toofull"
            # Reserve the space synchronously with the check (concurrent
            # pushes to one target must not race past the headroom test).
            target.store_chunk(nbytes, layout.units, allocation)
            if self.ledger is not None:
                self.ledger.credit_repair(allocated, metadata)
        try:
            yield self.topology.fabric.transfer(
                self.topology.nic_of(primary.osd_id),
                self.topology.nic_of(target.osd_id),
                nbytes,
            )
            # The WAN delivered these bytes even if the device write
            # below fails — count them here, not after the write, so the
            # cross-region invariant stays exact under gray faults.
            if self.topology.wan is not None and self.topology.region_of(
                primary.osd_id
            ) != self.topology.region_of(target.osd_id):
                self.stats.cross_region_bytes_written += nbytes
                self.stats.cross_region_pushes += 1
            yield target.recovery_write_grant(nbytes)
            yield target.write_chunk(nbytes)
        except (TransferDroppedError, DiskFailedError):
            if allocate:
                target.remove_chunk(nbytes, layout.units, allocation)
                if self.ledger is not None:
                    self.ledger.debit_repair(allocated, metadata)
            return False
        if delta:
            self.stats.delta_bytes_written += nbytes
        else:
            self.stats.bytes_written += nbytes
        return "stored"


class _Pull(Chain):
    """One helper shard read and shipped to the primary.

    The read first waits for the source's recovery-QoS grant (the
    scheduler share — usually the binding constraint), then performs
    the device I/O, then crosses the network.  Each step is placed
    where a process doing the same pull would resume (see
    :class:`~repro.sim.engine.Chain`).

    Never fails: a flapped-down source, failed disk, or
    dropped/partitioned transfer succeeds it with ``False`` so the
    object op can replan and retry, and a delivered read with ``True``.
    Disk bytes already read when a transfer drops stay counted — that
    I/O really happened.
    """

    __slots__ = (
        "manager", "read", "source", "primary", "layout", "delta",
        "nbytes", "profile",
    )

    def __init__(
        self,
        manager: RecoveryManager,
        read,
        old_acting: List[int],
        primary: OsdDaemon,
        layout,
        delta: bool,
    ):
        super().__init__(manager.env)
        self.manager = manager
        self.read = read
        self.source = manager.osds[old_acting[read.chunk_index]]
        self.primary = primary
        self.layout = layout
        self.delta = delta
        self.start(self._request)

    def _request(self, _arg) -> None:
        source, read, layout = self.source, self.read, self.layout
        if not source.is_up():
            self.succeed(False)
            return
        if read.fraction >= 1.0:
            self.nbytes = layout.chunk_stored_bytes
            self.wait(source.recovery_read_grant(self.nbytes), self._read_chunk)
            return
        self.nbytes = int(layout.chunk_stored_bytes * read.fraction)
        self.profile = profile = resolve_subchunk_read(
            source.config, layout.units, layout.stripe_unit,
            read.fraction, read.io_ops,
        )
        # The grant covers what the device must move (full extents when
        # the read degenerated); only the wanted sub-chunks cross the
        # network.
        self.wait(
            source.recovery_read_grant(
                profile.disk_bytes, runs=profile.scatter_runs
            ),
            self._read_subchunks,
        )

    def _read_chunk(self, _grant) -> None:
        try:
            disk_read = self.source.read_chunk(self.nbytes)
        except DiskFailedError:
            self.succeed(False)
            return
        self.wait(disk_read, self._ship)

    def _read_subchunks(self, _grant) -> None:
        try:
            disk_read = self.source.read_subchunks(self.profile)
        except DiskFailedError:
            self.succeed(False)
            return
        self.wait(disk_read, self._extract)

    def _extract(self, _disk_read) -> None:
        # Software cost of extracting the sub-chunk ranges.
        ranges = self.layout.units * self.read.io_ops
        self.wait(
            self.source.cpu.request(
                ranges * self.manager.config.subchunk_range_overhead
            ),
            self._ship,
        )

    def _ship(self, _done) -> None:
        manager = self.manager
        if self.delta:
            manager.stats.delta_bytes_read += self.nbytes
        else:
            manager.stats.bytes_read += self.nbytes
        topology = manager.topology
        self.wait(
            topology.fabric.transfer(
                topology.nic_of(self.source.osd_id),
                topology.nic_of(self.primary.osd_id),
                self.nbytes,
            ),
            self._delivered,
        )

    def _delivered(self, transfer: Event) -> None:
        if not transfer.ok:
            if isinstance(transfer.value, TransferDroppedError):
                self.succeed(False)
            else:
                self.fail(transfer.value)
            return
        # Counted only after delivery so the totals stay in lockstep
        # with the WanFabric's own delivered-byte ledger (the chaos
        # cross-region-byte invariant compares the two).
        topology = self.manager.topology
        if topology.wan is not None and topology.region_of(
            self.source.osd_id
        ) != topology.region_of(self.primary.osd_id):
            stats = self.manager.stats
            stats.cross_region_bytes_read += self.nbytes
            stats.cross_region_pulls += 1
        self.succeed(True)
