"""Scrub & silent-corruption subsystem: integrity state plus deep scrub.

Crash faults (node shutdown, device removal) announce themselves through
missed heartbeats; *silent* corruption — bit rot, torn writes, misdirected
writes — does not.  Real DSS deployments catch it the way Ceph does: every
chunk carries per-block crc32c checksums persisted with its onode, and a
background **deep scrub** re-reads chunks on a schedule, verifies them
against the stored checksums, marks the owning PG ``inconsistent`` and
repairs the damaged chunk through an EC decode.  This module provides both
halves:

* :class:`IntegrityStore` — the per-chunk integrity ledger.  At write time
  it computes crc32c block checksums (``csum_block_size`` granularity) and
  persists them with the chunk's onode in BlueStore.  With the *data
  plane* enabled it also materialises real encoded chunk bytes (payloads
  derived deterministically from the object name), so corruption, checksum
  verification and EC decode-repair operate on actual bits and repairs can
  be asserted bit-identical.  With the data plane off (the default at
  simulation scale) the ledger tracks which checksum blocks a corruption
  damaged without materialising data — detection and repair behave
  identically, byte payloads are simply not stored.

* :class:`ScrubManager` — the scrub scheduler and per-PG deep-scrub state
  machine, running as simulation processes.  Every ``interval`` it starts
  deep scrubs on the next batch of PGs (round-robin), reading every chunk
  at a configurable QoS rate *through the same per-OSD recovery scheduler
  crash repair uses* — scrub repair and failure repair compete for the
  same scarce repair-read bandwidth.  Checksum mismatches flip the PG
  ``active+clean -> inconsistent``; auto-repair then drives an in-place EC
  decode (reads sized to the damaged region via the code's own
  :meth:`~repro.ec.base.ErasureCode.repair_plan`), re-verifies, and
  returns the PG to ``active+clean``.  Cluster health transitions
  ``HEALTH_ERR -> HEALTH_WARN -> HEALTH_OK`` are surfaced through the
  monitor as the cycle progresses.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Set, Tuple

import numpy as np

from ..ec.repair import traffic_for_plan
from ..sim import Environment
from ..sim.rng import SeedSequence
from .devices import DiskFailedError
from .logs import NodeLog
from .network import TransferDroppedError
from .objectstore import block_checksums, blocks_in, crc32c
from .osd import coding_time
from .pool import PlacementGroup, Pool, StoredObject
from .retry import retry_backoff

__all__ = [
    "CorruptionModel",
    "IntegrityConfig",
    "IntegrityStore",
    "ScrubConfig",
    "ScrubPhase",
    "ScrubStats",
    "ScrubRepairError",
    "ScrubManager",
]


class CorruptionModel:
    """The three silent-corruption models the fault injector supports."""

    BIT_ROT = "bit_rot"
    TORN_WRITE = "torn_write"
    MISDIRECTED_WRITE = "misdirected_write"
    ALL = (BIT_ROT, TORN_WRITE, MISDIRECTED_WRITE)


class ScrubRepairError(RuntimeError):
    """A scrub repair produced data that fails checksum re-verification."""


@dataclass(frozen=True)
class IntegrityConfig:
    """Write-time checksum configuration.

    ``csum_block_size`` is the checksum granularity (bytes of chunk data
    per stored crc32c value) — one of the new configuration axes.  With
    ``data_plane`` enabled the store keeps real encoded chunk bytes, so
    repairs are verifiably bit-identical; keep it off for large simulated
    workloads where only the integrity *state* matters.
    """

    enabled: bool = False
    data_plane: bool = False
    csum_block_size: int = 4096
    payload_seed: int = 0

    def __post_init__(self):
        if self.csum_block_size <= 0:
            raise ValueError(
                f"csum_block_size must be positive, got {self.csum_block_size}"
            )


@dataclass
class _ChunkRecord:
    """Integrity state of one stored chunk (one shard of one object)."""

    blocks: int
    expected: Optional[Tuple[int, ...]] = None
    data: Optional[bytes] = None
    corrupt_blocks: Set[int] = field(default_factory=set)
    #: Blocks rewritten by a Byzantine fault *with forged checksums*: the
    #: stored crc32c matches the wrong bytes, so local verify passes.
    #: Only the deep-scrub EC-decode cross-check moves these into
    #: ``corrupt_blocks`` (see :meth:`IntegrityStore.reveal_byzantine`).
    byz_blocks: Set[int] = field(default_factory=set)


class IntegrityStore:
    """Per-chunk checksum ledger and (optionally) real chunk bytes.

    Keys are ``(pgid, object_name, shard)``.  The store is populated by
    :meth:`CephCluster.ingest_object` at write time and consulted by the
    fault injector (to corrupt), the scrub state machine (to verify and
    repair) and the white-box tolerance guard (to count damaged chunks
    per stripe).
    """

    def __init__(self, pool: Pool, config: IntegrityConfig):
        self.pool = pool
        self.config = config
        self._chunks: Dict[tuple, _ChunkRecord] = {}
        #: (pgid, object_name) -> shard indices currently corrupted.
        self._corrupted: Dict[tuple, Set[int]] = {}

    # -- write path --------------------------------------------------------------

    def _payload_for(self, name: str, size: int) -> bytes:
        digest = hashlib.blake2b(
            f"{self.config.payload_seed}:{name}".encode("utf-8"), digest_size=8
        ).digest()
        rng = np.random.default_rng(int.from_bytes(digest, "big"))
        return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()

    def csum_blocks_for(self, chunk_stored_bytes: int) -> int:
        """Checksum blocks (hence onode csum values) one chunk carries."""
        return blocks_in(chunk_stored_bytes, self.config.csum_block_size)

    def register_object(
        self,
        pg: PlacementGroup,
        obj: StoredObject,
        shards: Optional[Set[int]] = None,
    ) -> Dict[int, Tuple[int, ...]]:
        """Compute write-time checksums for shards of one object.

        ``shards`` limits registration to the shard positions a write
        physically reached (``None`` — the ingest path — covers all of
        them).  A registered shard's chunk was just rewritten whole, so
        any silent corruption it carried is physically gone: its
        corruption state is cleared along with the new record.

        Returns ``{shard: csum_tuple}`` for persistence with each acting
        OSD's onode metadata.  In data-plane mode the tuple holds real
        crc32c values of the encoded chunk; otherwise the csum array is
        accounted (the block count is exact) but the values — which would
        never be compared against anything — are not materialised.
        """
        if not self.config.enabled:
            return {}
        targets = (
            list(range(len(pg.acting))) if shards is None else sorted(shards)
        )
        out: Dict[int, Tuple[int, ...]] = {}
        if self.config.data_plane:
            payload = self._payload_for(obj.name, obj.size)
            chunks = self.pool.code.encode(payload)
            for shard in targets:
                data = np.asarray(chunks[shard], dtype=np.uint8).tobytes()
                expected = block_checksums(data, self.config.csum_block_size)
                self._chunks[(pg.pgid, obj.name, shard)] = _ChunkRecord(
                    blocks=len(expected), expected=expected, data=data
                )
                out[shard] = expected
                self._note_rewritten(pg.pgid, obj.name, shard)
        else:
            blocks = self.csum_blocks_for(obj.layout.chunk_stored_bytes)
            for shard in targets:
                self._chunks[(pg.pgid, obj.name, shard)] = _ChunkRecord(blocks=blocks)
                self._note_rewritten(pg.pgid, obj.name, shard)
        return out

    def _note_rewritten(self, pgid: str, object_name: str, shard: int) -> None:
        """A full-chunk overwrite physically replaced this shard's data."""
        shards = self._corrupted.get((pgid, object_name))
        if shards is not None:
            shards.discard(shard)
            if not shards:
                del self._corrupted[(pgid, object_name)]

    # -- corruption (applied by the fault injector through the Workers) -----------

    def corrupt(
        self, pgid: str, object_name: str, shard: int, model: str, rng
    ) -> int:
        """Silently damage one chunk; returns how many blocks went bad."""
        if model not in CorruptionModel.ALL:
            raise ValueError(
                f"unknown corruption model {model!r}; "
                f"allowed models: {', '.join(CorruptionModel.ALL)}"
            )
        record = self._record(pgid, object_name, shard)
        if self.config.data_plane:
            self._corrupt_data(pgid, object_name, shard, record, model, rng)
            bad = self._bad_blocks(record)
        else:
            bad = self._corrupt_model(record, model, rng)
        if not bad:
            raise RuntimeError("corruption left no detectable damage")
        record.corrupt_blocks = set(bad)
        self._corrupted.setdefault((pgid, object_name), set()).add(shard)
        return len(bad)

    def _corrupt_model(self, record: _ChunkRecord, model: str, rng) -> List[int]:
        if model == CorruptionModel.BIT_ROT:
            blocks = [rng.randrange(record.blocks)]
        elif model == CorruptionModel.TORN_WRITE:
            tail = max(1, record.blocks // 4)
            blocks = list(range(record.blocks - tail, record.blocks))
        else:  # misdirected write: the whole chunk is someone else's data
            blocks = list(range(record.blocks))
        return sorted(set(record.corrupt_blocks) | set(blocks))

    def _corrupt_data(
        self, pgid: str, object_name: str, shard: int,
        record: _ChunkRecord, model: str, rng,
    ) -> None:
        data = bytearray(record.data)
        if model == CorruptionModel.BIT_ROT:
            bit = rng.randrange(max(1, len(data) * 8))
            data[bit // 8] ^= 1 << (bit % 8)
        elif model == CorruptionModel.TORN_WRITE:
            tail = max(1, record.blocks // 4)
            start = (record.blocks - tail) * self.config.csum_block_size
            for i in range(max(0, start), len(data)):
                data[i] = 0
        else:
            donor_shard = (shard + 1) % self.pool.code.n
            donor = self._chunks[(pgid, object_name, donor_shard)].data
            data = bytearray(donor[: len(data)].ljust(len(data), b"\0"))
        if bytes(data) == record.data:
            data[0] ^= 0xFF  # degenerate case: force a detectable change
        record.data = bytes(data)

    def _bad_blocks(self, record: _ChunkRecord) -> List[int]:
        actual = block_checksums(record.data, self.config.csum_block_size)
        return [i for i, (a, e) in enumerate(zip(actual, record.expected)) if a != e]

    # -- Byzantine corruption (forged checksums) -----------------------------------

    def corrupt_byzantine(
        self, pgid: str, object_name: str, shard: int, rng
    ) -> int:
        """Rewrite one chunk so its *local* checksums still verify.

        The damage lands in ``byz_blocks`` instead of ``corrupt_blocks``:
        :meth:`verify` (the local crc32c check) stays green, because the
        adversary recomputed the stored checksums over the lie.  The
        shard still joins ``_corrupted`` — it *is* silent damage, so the
        white-box tolerance guards must count it and repair helpers must
        exclude it.  Returns the number of blocks rewritten.
        """
        record = self._record(pgid, object_name, shard)
        if self.config.data_plane:
            # Rewrite the whole chunk with adversary bytes; expected
            # keeps the write-time truth for the eventual repair.
            data = bytearray(record.data)
            for i in range(len(data)):
                data[i] = rng.randrange(256)
            if bytes(data) == record.data:
                data[0] ^= 0xFF
            record.data = bytes(data)
            bad = set(self._bad_blocks(record))
            if not bad:
                raise RuntimeError("byzantine rewrite left no damage")
        else:
            # A believable forgery rewrites the whole chunk — partial
            # rewrites would leave blocks whose true csum survives.
            bad = set(range(record.blocks))
        record.byz_blocks = bad
        self._corrupted.setdefault((pgid, object_name), set()).add(shard)
        return len(bad)

    def byz_shards(self, pgid: str, object_name: str) -> Set[int]:
        """Shards of one stripe carrying unrevealed forged-csum damage."""
        return {
            shard
            for shard in self._corrupted.get((pgid, object_name), set())
            if self._chunks[(pgid, object_name, shard)].byz_blocks
        }

    def reveal_byzantine(
        self, pgid: str, object_name: str, shard: int
    ) -> List[int]:
        """The EC-decode cross-check exposed a forged-csum chunk.

        Moves the hidden damage into ``corrupt_blocks`` so the ordinary
        scrub-repair machinery (and any later local verify) sees it.
        Returns the bad block indices, like :meth:`verify` would.
        """
        record = self._record(pgid, object_name, shard)
        record.corrupt_blocks |= record.byz_blocks
        record.byz_blocks = set()
        return sorted(record.corrupt_blocks)

    def actual_checksums(
        self, pgid: str, object_name: str, shard: int
    ) -> Optional[Tuple[int, ...]]:
        """crc32c over the chunk's *current* bytes (data-plane only) —
        what a lying OSD forges into its onode after a rewrite."""
        if not self.config.data_plane:
            return None
        record = self._record(pgid, object_name, shard)
        return block_checksums(record.data, self.config.csum_block_size)

    def expected_checksums(
        self, pgid: str, object_name: str, shard: int
    ) -> Optional[Tuple[int, ...]]:
        """The write-time truth (data-plane only) — restored to the onode
        when a forged-csum lie is exposed."""
        if not self.config.data_plane:
            return None
        return self._record(pgid, object_name, shard).expected

    # -- verification & repair (driven by the scrub state machine) ----------------

    def verify(
        self, pgid: str, object_name: str, shard: int,
        stored_csums: Optional[Tuple[int, ...]] = None,
    ) -> List[int]:
        """Bad block indices of one chunk (empty when the chunk is clean).

        ``stored_csums`` is the onode-resident csum array read from the
        owning OSD's BlueStore; when provided (data-plane mode) the check
        recomputes crc32c over the chunk bytes and compares against it.
        """
        record = self._record(pgid, object_name, shard)
        if self.config.data_plane:
            expected = stored_csums if stored_csums is not None else record.expected
            actual = block_checksums(record.data, self.config.csum_block_size)
            return [i for i, (a, e) in enumerate(zip(actual, expected)) if a != e]
        return sorted(record.corrupt_blocks)

    def repair(self, pgid: str, object_name: str, shard: int) -> None:
        """EC decode-repair one corrupted chunk in place and re-verify.

        In data-plane mode the chunk is actually rebuilt from the clean
        shards via :meth:`~repro.ec.base.ErasureCode.decode_chunks` and
        must come back bit-identical (checksums match the write-time
        values) or :class:`ScrubRepairError` is raised.
        """
        record = self._record(pgid, object_name, shard)
        if self.config.data_plane:
            bad_shards = self._corrupted.get((pgid, object_name), set())
            available = {
                s: np.frombuffer(
                    self._chunks[(pgid, object_name, s)].data, dtype=np.uint8
                )
                for s in range(self.pool.code.n)
                if s != shard and s not in bad_shards
                and (pgid, object_name, s) in self._chunks
            }
            decoded = self.pool.code.decode_chunks(available, [shard])
            data = np.asarray(decoded[shard], dtype=np.uint8).tobytes()
            if block_checksums(data, self.config.csum_block_size) != record.expected:
                raise ScrubRepairError(
                    f"repair of {pgid}/{object_name} shard {shard} is not "
                    "bit-identical to the original chunk"
                )
            record.data = data
        record.corrupt_blocks.clear()
        record.byz_blocks.clear()
        shards = self._corrupted.get((pgid, object_name))
        if shards is not None:
            shards.discard(shard)
            if not shards:
                del self._corrupted[(pgid, object_name)]

    # -- queries -------------------------------------------------------------------

    def _record(self, pgid: str, object_name: str, shard: int) -> _ChunkRecord:
        try:
            return self._chunks[(pgid, object_name, shard)]
        except KeyError:
            raise KeyError(
                f"no integrity record for {pgid}/{object_name} shard {shard}; "
                "was the object ingested with integrity enabled?"
            ) from None

    def has_record(self, pgid: str, object_name: str, shard: int) -> bool:
        return (pgid, object_name, shard) in self._chunks

    def chunk_data(self, pgid: str, object_name: str, shard: int) -> Optional[bytes]:
        """Current chunk bytes (data-plane mode only)."""
        return self._record(pgid, object_name, shard).data

    def block_count(self, pgid: str, object_name: str, shard: int) -> int:
        return self._record(pgid, object_name, shard).blocks

    def corrupt_shards(self, pgid: str, object_name: str) -> Set[int]:
        """Shards of one stripe currently carrying undetected/unrepaired damage."""
        return set(self._corrupted.get((pgid, object_name), set()))

    def corrupted_chunk_count(self) -> int:
        return sum(len(shards) for shards in self._corrupted.values())

    def max_corrupt_per_stripe(self) -> int:
        """Worst-case unrepaired corruption concentration on one stripe.

        The white-box guard for *crash* faults needs this: a crash takes
        one more shard from every stripe a victim holds, so crash buckets
        plus the worst stripe's outstanding corruption must stay within
        the code's guaranteed tolerance.
        """
        if not self._corrupted:
            return 0
        return max(len(shards) for shards in self._corrupted.values())

    def all_clean(self) -> bool:
        return not self._corrupted


@dataclass(frozen=True)
class ScrubConfig:
    """Scrub scheduler knobs — the new configuration axis.

    ``interval`` is the pause between scrub batches; each batch deep-scrubs
    ``pgs_per_batch`` placement groups (round-robin over the pool), so a
    full-pool pass takes ``interval * pg_num / pgs_per_batch`` plus the
    I/O time of the scans.  ``read_rate`` is the per-OSD QoS share granted
    to scrub reads through the same scheduler recovery reads use.
    """

    enabled: bool = False
    interval: float = 300.0
    pgs_per_batch: int = 4
    read_rate: float = 20e6
    csum_verify_cost: float = 2e-7
    auto_repair: bool = True

    def __post_init__(self):
        if self.interval <= 0:
            raise ValueError(f"scrub interval must be positive, got {self.interval}")
        if self.pgs_per_batch < 1:
            raise ValueError(
                f"pgs_per_batch must be >= 1, got {self.pgs_per_batch}"
            )
        if self.read_rate <= 0:
            raise ValueError(f"scrub read_rate must be positive, got {self.read_rate}")


class ScrubPhase:
    """Per-PG deep-scrub state machine states."""

    CLEAN = "active+clean"
    SCRUBBING = "scrubbing"
    INCONSISTENT = "inconsistent"
    REPAIRING = "repairing"


@dataclass
class ScrubStats:
    """Aggregate counters across all scrub cycles of one experiment."""

    cycles: int = 0
    pgs_scrubbed: int = 0
    chunks_scrubbed: int = 0
    bytes_scrubbed: int = 0
    errors_detected: int = 0
    pgs_inconsistent: int = 0
    chunks_repaired: int = 0
    repair_bytes_read: int = 0
    repair_bytes_written: int = 0
    #: Chunk-repair retries forced by gray faults (drops, flapped peers).
    repair_retries: int = 0
    #: Repairs deferred to a later scrub cycle after the retry budget.
    repairs_deferred: int = 0


class ScrubManager:
    """Scrub scheduler plus the per-PG deep-scrub state machine."""

    def __init__(
        self,
        env: Environment,
        topology,
        osds: Dict[int, "OsdDaemon"],
        pool: Pool,
        integrity: IntegrityStore,
        config: ScrubConfig,
        host_logs: Dict[int, NodeLog],
        mgr_log: NodeLog,
        monitor=None,
    ):
        self.env = env
        self.topology = topology
        self.osds = osds
        self.pool = pool
        self.integrity = integrity
        self.config = config
        self.host_logs = host_logs
        self.mgr_log = mgr_log
        self.monitor = monitor
        #: Duck-typed ByzantineState reference, planted by
        #: ``ensure_byzantine`` when the first Byzantine fault lands;
        #: None on every cluster the adversary never touched.
        self.byzantine = None
        self.stats = ScrubStats()
        # Consumed only when a gray fault forces a repair retry, so runs
        # without degradation never draw from it.
        self._retry_rng = SeedSequence(0).stream("scrub-retry")
        self.pg_states: Dict[int, str] = {
            pg_id: ScrubPhase.CLEAN for pg_id in pool.pgs
        }
        self._cursor = 0
        if config.enabled:
            self._proc = env.process(self._scheduler())

    def _log_for(self, osd_id: int) -> NodeLog:
        return self.host_logs[self.osds[osd_id].device.host_id]

    def _health(self, status: str, reason: str) -> None:
        if self.monitor is not None:
            self.monitor.record_health(status, reason)

    # -- state queries ---------------------------------------------------------------

    def pgs_in(self, phase: str) -> int:
        return sum(1 for state in self.pg_states.values() if state == phase)

    def quiescent(self) -> bool:
        """No unrepaired corruption, no PG inconsistent or under repair.

        Routine scrubbing of clean PGs does not count against quiescence
        — the scheduler scrubs forever by design.
        """
        return self.integrity.all_clean() and not any(
            state in (ScrubPhase.INCONSISTENT, ScrubPhase.REPAIRING)
            for state in self.pg_states.values()
        )

    # -- scheduler -------------------------------------------------------------------

    def _scheduler(self) -> Generator:
        pg_ids = sorted(self.pool.pgs)
        while True:
            yield self.env.timeout(self.config.interval)
            self.stats.cycles += 1
            batch: List[PlacementGroup] = []
            seen = 0
            while len(batch) < self.config.pgs_per_batch and seen < len(pg_ids):
                pg = self.pool.pgs[pg_ids[self._cursor % len(pg_ids)]]
                self._cursor += 1
                seen += 1
                if pg.objects:
                    batch.append(pg)
            scans = [self.env.process(self._deep_scrub(pg)) for pg in batch]
            if scans:
                yield self.env.all_of(scans)

    # -- per-PG deep scrub --------------------------------------------------------------

    def _deep_scrub(self, pg: PlacementGroup) -> Generator:
        primary = pg.acting[0]
        self.pg_states[pg.pg_id] = ScrubPhase.SCRUBBING
        self._log_for(primary).emit(
            self.env.now, "osd", "deep-scrub started",
            pg=pg.pgid, objects=len(pg.objects),
        )
        errors: List[tuple] = []
        for obj in pg.objects:
            for shard, osd_id in enumerate(pg.acting):
                osd = self.osds[osd_id]
                if not osd.is_up():
                    continue
                if not self.integrity.has_record(pg.pgid, obj.name, shard):
                    continue
                nbytes = obj.layout.chunk_stored_bytes
                yield osd.scrub_read_grant(nbytes, self.config.read_rate)
                yield osd.read_chunk(nbytes)
                blocks = self.integrity.block_count(pg.pgid, obj.name, shard)
                yield osd.cpu.request(blocks * self.config.csum_verify_cost)
                self.stats.chunks_scrubbed += 1
                self.stats.bytes_scrubbed += nbytes
                stored = osd.backend.get_chunk_checksums((pg.pgid, obj.name, shard))
                bad = self.integrity.verify(pg.pgid, obj.name, shard, stored)
                if bad:
                    errors.append((obj, shard, bad))
                    self.stats.errors_detected += 1
                    self._log_for(osd_id).emit(
                        self.env.now, "osd",
                        "scrub error: checksum mismatch on chunk read",
                        pg=pg.pgid, shard=shard, osd=osd.name,
                        bad_blocks=len(bad),
                    )
        if self.byzantine is not None:
            yield from self._byz_cross_checks(pg, errors)
        if not errors:
            self.pg_states[pg.pg_id] = ScrubPhase.CLEAN
            self.stats.pgs_scrubbed += 1
            self._log_for(primary).emit(
                self.env.now, "osd", "deep-scrub ok", pg=pg.pgid
            )
            return
        self.pg_states[pg.pg_id] = ScrubPhase.INCONSISTENT
        self.stats.pgs_inconsistent += 1
        self._log_for(primary).emit(
            self.env.now, "osd", "pg inconsistent, queueing scrub repair",
            pg=pg.pgid, errors=len(errors),
        )
        self._health(
            "HEALTH_ERR", f"pg {pg.pgid} inconsistent ({len(errors)} scrub errors)"
        )
        if not self.config.auto_repair:
            self.stats.pgs_scrubbed += 1
            return
        self.pg_states[pg.pg_id] = ScrubPhase.REPAIRING
        self._health("HEALTH_WARN", f"scrub repair in progress on pg {pg.pgid}")
        self._log_for(primary).emit(
            self.env.now, "osd", "scrub repair started",
            pg=pg.pgid, chunks=len(errors),
        )
        deferred = 0
        for obj, shard, bad in errors:
            repaired = yield from self._repair_chunk(pg, obj, shard, bad)
            if not repaired:
                deferred += 1
        self.stats.pgs_scrubbed += 1
        if deferred:
            # Gray faults starved the repair of helpers or transfers;
            # leave the PG inconsistent so the next scrub cycle retries
            # once the fault window has passed.
            self.pg_states[pg.pg_id] = ScrubPhase.INCONSISTENT
            self.stats.repairs_deferred += deferred
            self._log_for(primary).emit(
                self.env.now, "osd",
                "scrub repair incomplete, deferring to next cycle",
                pg=pg.pgid, deferred=deferred,
            )
            return
        self.pg_states[pg.pg_id] = ScrubPhase.CLEAN
        self._log_for(primary).emit(
            self.env.now, "osd", "scrub repair completed", pg=pg.pgid
        )
        if self.quiescent():
            self._health("HEALTH_OK", "all pgs active+clean after scrub repair")

    # -- Byzantine cross-checks (run once per deep scrub of a PG) ---------------------------

    def _byz_cross_checks(self, pg: PlacementGroup, errors: List[tuple]) -> Generator:
        """Detections local checksum verify can never make.

        *EC-decode cross-check*: for every shard of this PG carrying a
        forged-checksum lie, the primary re-derives the shard from its
        peers' chunks (already read during the scan) and compares.  The
        extra decode is paid as primary CPU; a mismatch reveals the
        forgery, restores the onode's true checksums, and enqueues the
        chunk with the ordinary scrub-repair errors.

        *Version cross-check*: deep scrub compares per-shard object
        versions like peering does, so any undetected false ack on this
        PG becomes ordinary pg_log staleness (healed by delta recovery,
        not checksum repair).
        """
        byz = self.byzantine
        code = self.pool.code
        primary = self.osds[pg.acting[0]]
        for obj in pg.objects:
            for shard in sorted(self.integrity.byz_shards(pg.pgid, obj.name)):
                osd_id = pg.acting[shard]
                if not self.osds[osd_id].is_up():
                    # The liar is down right now; its chunk cannot be
                    # read, so the lie survives until a later cycle.
                    continue
                blocks = self.integrity.block_count(pg.pgid, obj.name, shard)
                # Reconstructing one shard from k peers costs roughly k
                # local verifies' worth of arithmetic on the primary.
                yield primary.cpu.request(
                    blocks * self.config.csum_verify_cost * code.k
                )
                truth = self.integrity.expected_checksums(
                    pg.pgid, obj.name, shard
                )
                if truth is not None:
                    self.osds[osd_id].backend.put_chunk_checksums(
                        (pg.pgid, obj.name, shard), truth
                    )
                bad = self.integrity.reveal_byzantine(pg.pgid, obj.name, shard)
                errors.append((obj, shard, bad))
                self.stats.errors_detected += 1
                byz.detect_corrupt(pg.pgid, obj.name, shard, self.env.now)
                self._log_for(osd_id).emit(
                    self.env.now, "osd",
                    "scrub error: EC cross-check exposed forged checksums",
                    pg=pg.pgid, shard=shard, osd=self.osds[osd_id].name,
                    bad_blocks=len(bad),
                )
        revealed = byz.reveal_false_acks(pg, self.env.now, "scrub")
        if revealed:
            self._log_for(primary.osd_id).emit(
                self.env.now, "osd",
                "scrub version cross-check: acked writes never applied",
                pg=pg.pgid, shards=revealed,
            )

    # -- in-place EC decode-repair of one chunk ---------------------------------------------

    def _repair_chunk(
        self, pg: PlacementGroup, obj: StoredObject, shard: int, bad_blocks: List[int]
    ) -> Generator:
        """Rebuild one damaged chunk from the surviving shards.

        Reads are sized to the damaged region (checksum granularity tells
        the scrubber *which* blocks are bad, so fine granularity shrinks
        repair traffic) and follow the code's own repair plan, then the
        rebuilt region is decoded on the primary and rewritten in place.

        Attempts lost to gray faults (dropped transfers, flapped peers)
        are retried with seeded backoff; past the budget the repair is
        deferred — returns False and the chunk stays corrupted until the
        next scrub cycle finds it again.
        """
        primary = self.osds[pg.acting[0]]
        attempt = 0
        while True:
            ok = yield from self._attempt_repair(pg, obj, shard, bad_blocks)
            if ok:
                return True
            attempt += 1
            if attempt > primary.config.recovery_retry_max:
                return False
            self.stats.repair_retries += 1
            yield self.env.timeout(
                retry_backoff(
                    attempt, primary.config.recovery_retry_base, self._retry_rng
                )
            )

    def _attempt_repair(
        self, pg: PlacementGroup, obj: StoredObject, shard: int, bad_blocks: List[int]
    ) -> Generator:
        """One pull+decode+rewrite attempt; False on any gray-fault loss."""
        code = self.pool.code
        layout = obj.layout
        chunk_bytes = layout.chunk_stored_bytes
        region = min(
            chunk_bytes,
            max(
                len(bad_blocks) * self.integrity.config.csum_block_size,
                self.osds[pg.acting[0]].config.min_io_bytes,
            ),
        )
        region_units = max(1, min(layout.units, -(-region // layout.stripe_unit)))
        corrupted = self.integrity.corrupt_shards(pg.pgid, obj.name)
        alive = [
            s
            for s, osd_id in enumerate(pg.acting)
            if s != shard and s not in corrupted and self.osds[osd_id].is_up()
        ]
        try:
            plan = code.repair_plan([shard], alive)
        except ValueError:
            # Too few helpers up right now (flap window) — retryable.
            return False
        traffic = traffic_for_plan(plan, region, region_units)
        primary = self.osds[pg.acting[0]]
        pulls = [
            self.env.process(self._pull_region(pg, read, traffic, primary))
            for read in plan.reads
        ]
        if pulls:
            results = yield self.env.all_of(pulls)
            if not all(results):
                return False
        fragments = region_units * code.sub_chunk_count
        decode = coding_time(
            primary.config,
            nbytes=region,
            work=plan.decode_work,
            fragments=fragments,
            cpu_cost_factor=code.cpu_cost_factor,
        )
        yield primary.cpu.request(decode)
        target = self.osds[pg.acting[shard]]
        if not target.is_up():
            return False
        try:
            yield self.topology.fabric.transfer(
                self.topology.nic_of(primary.osd_id),
                self.topology.nic_of(target.osd_id),
                region,
            )
            yield target.recovery_write_grant(region)
            yield target.write_chunk(region)
        except (TransferDroppedError, DiskFailedError):
            return False
        self.integrity.repair(pg.pgid, obj.name, shard)
        self.stats.chunks_repaired += 1
        self.stats.repair_bytes_written += region
        self._log_for(target.osd_id).emit(
            self.env.now, "osd", "scrub repair rewrote chunk",
            pg=pg.pgid, shard=shard, bytes=region,
        )
        return True

    def _pull_region(
        self, pg: PlacementGroup, read, traffic, primary
    ) -> Generator:
        """Never fails its process; False signals a retryable loss."""
        source = self.osds[pg.acting[read.chunk_index]]
        nbytes = traffic.read_bytes_by_chunk[read.chunk_index]
        try:
            if not source.is_up():
                return False
            yield source.recovery_read_grant(nbytes)
            yield source.read_chunk(nbytes)
            self.stats.repair_bytes_read += nbytes
            yield self.topology.fabric.transfer(
                self.topology.nic_of(source.osd_id),
                self.topology.nic_of(primary.osd_id),
                nbytes,
            )
        except (TransferDroppedError, DiskFailedError):
            return False
        return True
