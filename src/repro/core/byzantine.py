"""Byzantine OSD faults: daemons that *lie* instead of dying.

Three fault levels, each modelled after a real Ceph failure family and
each caught by a different existing detection path:

``byz_corrupt_data``
    Chunk bytes rewritten *with* a matching recomputed local checksum
    (crc32c forged alongside the data), so BlueStore-style local verify
    passes.  Only the deep-scrub EC-decode cross-check — reconstructing
    the shard from its peers and comparing — reveals the lie.

``byz_stale_map``
    An OSD gossips an old osdmap epoch in its heartbeats.  The monitor's
    epoch-mismatch rejection detects it on the next delivered heartbeat
    and pushes a fresh map, ending the lie.

``byz_false_ack``
    A write was acked but never durably applied: the OSD's pg_log claims
    a version its store does not hold.  Peering (or the scrub version
    cross-check) compares claimed versions and flags the divergent
    shard, which then heals through normal log-based delta recovery.

All three are **white-box guarded**: a lying shard counts against the
code's per-stripe tolerance ``m`` exactly like a crashed or corrupted
one, so durability claims stay provable while the adversary is active.
The ``byzantine-containment`` chaos invariant asserts the contract:
zero wrong reads served before detection, and every injected lie
eventually detected (with time-to-detection recorded in the digest).

``ByzantineState`` is attached lazily (``ensure_byzantine``) so that
clusters which never see a byz fault carry no new state and produce
byte-identical outcome digests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

BYZ_LEVELS = ("byz_corrupt_data", "byz_stale_map", "byz_false_ack")

#: detection mechanisms, in the order they appear in digests
DETECTED_BY = ("scrub", "peering", "epoch")


@dataclass
class ByzFaultRecord:
    """One injected lie and (eventually) its detection."""

    level: str
    osd_id: int
    injected_at: float
    pgid: str = ""
    object_name: str = ""
    shard: int = -1
    detected_at: Optional[float] = None
    detected_by: Optional[str] = None

    @property
    def detected(self) -> bool:
        return self.detected_at is not None

    def mark_detected(self, at: float, by: str) -> None:
        if self.detected_at is None:
            self.detected_at = at
            self.detected_by = by


class ByzantineState:
    """Book-keeping for every active and historical Byzantine lie.

    Lives on ``cluster.byzantine`` (``None`` until the first byz fault
    is injected).  The monitor, scrub manager, and recovery manager each
    hold a duck-typed ``.byzantine`` reference so their detection hooks
    stay one ``is not None`` check away from free.
    """

    def __init__(self) -> None:
        self.records: List[ByzFaultRecord] = []
        # osd_id -> claimed (stale) epoch, while the lie is active
        self.stale_epochs: Dict[int, int] = {}
        # (pgid, name) -> shard -> records, while the false ack is
        # undetected; detection hands accounting over to pg_log staleness.
        # A list per shard: re-injecting on the same shard is the same
        # lie continued, and detection exposes every record at once.
        self.false_acks: Dict[
            Tuple[str, str], Dict[int, List[ByzFaultRecord]]
        ] = {}
        # (pgid, name, shard) -> records for undetected forged-csum chunks
        self._corrupt: Dict[Tuple[str, str, int], List[ByzFaultRecord]] = {}
        self.wrong_reads_served = 0
        self.epoch_rejections = 0
        self.detections: Dict[str, int] = {by: 0 for by in DETECTED_BY}

    # -- injection ------------------------------------------------------------

    def add_corrupt(self, osd_id: int, pgid: str, name: str, shard: int,
                    at: float) -> ByzFaultRecord:
        record = ByzFaultRecord("byz_corrupt_data", osd_id, at,
                                pgid=pgid, object_name=name, shard=shard)
        self.records.append(record)
        self._corrupt.setdefault((pgid, name, shard), []).append(record)
        return record

    def add_stale_map(self, osd_id: int, epoch: int,
                      at: float) -> ByzFaultRecord:
        record = ByzFaultRecord("byz_stale_map", osd_id, at)
        self.records.append(record)
        self.stale_epochs[osd_id] = epoch
        return record

    def add_false_ack(self, osd_id: int, pgid: str, name: str, shard: int,
                      at: float) -> ByzFaultRecord:
        record = ByzFaultRecord("byz_false_ack", osd_id, at,
                                pgid=pgid, object_name=name, shard=shard)
        self.records.append(record)
        shards = self.false_acks.setdefault((pgid, name), {})
        shards.setdefault(shard, []).append(record)
        return record

    # -- queries --------------------------------------------------------------

    def gossiping_stale(self, osd_id: int) -> bool:
        return osd_id in self.stale_epochs

    def claimed_epoch(self, osd_id: int) -> Optional[int]:
        return self.stale_epochs.get(osd_id)

    def damaged_shards(self, pgid: str, name: str) -> Set[int]:
        """Shards of (pgid, name) holding *undetected* false-ack damage.

        Forged-checksum corruption is deliberately excluded: the
        integrity store already counts those shards in ``_corrupted``,
        so unioning them here would double-count against tolerance.
        """
        return set(self.false_acks.get((pgid, name), ()))

    def false_ack_items(self) -> Iterator[Tuple[str, str, Set[int]]]:
        for (pgid, name), shards in self.false_acks.items():
            yield pgid, name, set(shards)

    def lying_shards(self, pgid: str, name: str) -> Set[int]:
        """All undetected lying shards for one object (any byz level)."""
        shards = set(self.false_acks.get((pgid, name), ()))
        for (r_pgid, r_name, shard), _ in self._corrupt.items():
            if r_pgid == pgid and r_name == name:
                shards.add(shard)
        return shards

    # -- detection ------------------------------------------------------------

    def on_epoch_rejection(self, osd_id: int, now: float) -> None:
        """Monitor saw a stale epoch in a heartbeat and pushed a fresh map."""
        if osd_id not in self.stale_epochs:
            return
        del self.stale_epochs[osd_id]
        self.epoch_rejections += 1
        for record in self.records:
            if (record.level == "byz_stale_map" and record.osd_id == osd_id
                    and not record.detected):
                record.mark_detected(now, "epoch")
                self.detections["epoch"] += 1

    def detect_corrupt(self, pgid: str, name: str, shard: int,
                       now: float) -> None:
        """Scrub found a lying shard: its corrupt records are detected."""
        for record in self._corrupt.pop((pgid, name, shard), ()):
            if not record.detected:
                record.mark_detected(now, "scrub")
                self.detections["scrub"] += 1

    def reveal_false_acks(self, pg, now: float, by: str) -> int:
        """Version cross-check over one PG: every undetected false ack on
        it becomes ordinary pg_log staleness (healed by delta recovery)."""
        revealed = 0
        for (pgid, name) in [key for key in self.false_acks
                             if key[0] == pg.pgid]:
            shards = self.false_acks.pop((pgid, name))
            for shard, records in shards.items():
                for record in records:
                    record.mark_detected(now, by)
                    self.detections[by] += 1
                if pg.log is not None:
                    pg.log.note_divergent(name, shard)
                revealed += 1
        return revealed

    def note_read(self, pgid: str, name: str, shards, now: float) -> None:
        """A client read was served from ``shards``; any overlap with an
        undetected lying shard is a wrong read (the containment breach)."""
        if set(shards) & self.lying_shards(pgid, name):
            self.wrong_reads_served += 1

    # -- lifecycle ------------------------------------------------------------

    def on_restore(self, now: float) -> None:
        """Adversary daemons restarted: re-fetching the osdmap ends every
        stale-map lie (detected via the epoch path).  Data-plane lies
        (forged csums, false acks) persist until scrub/peering finds
        them, mirroring how ``Worker.restore`` never heals corruption.
        Idempotent."""
        for osd_id in list(self.stale_epochs):
            self.on_epoch_rejection(osd_id, now)

    def quiescent(self) -> bool:
        return not self.stale_epochs and all(
            record.detected for record in self.records
        )

    # -- digest ---------------------------------------------------------------

    def digest_section(self) -> dict:
        return {
            "records": [
                {
                    "level": record.level,
                    "osd": record.osd_id,
                    "pgid": record.pgid,
                    "object": record.object_name,
                    "shard": record.shard,
                    "injected_at": record.injected_at,
                    "detected_at": record.detected_at,
                    "detected_by": record.detected_by,
                }
                for record in self.records
            ],
            "wrong_reads_served": self.wrong_reads_served,
            "epoch_rejections": self.epoch_rejections,
            "detections": dict(self.detections),
        }


def ensure_byzantine(cluster) -> ByzantineState:
    """Attach (once) and return the cluster's ByzantineState.

    Also plants the duck-typed references the detection hooks poll, so
    monitor/scrub/recovery never import this module.
    """
    state = cluster.byzantine
    if state is None:
        state = ByzantineState()
        cluster.byzantine = state
        cluster.monitor.byzantine = state
        cluster.recovery.byzantine = state
        cluster.scrub.byzantine = state
    return state
