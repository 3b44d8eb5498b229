"""Client I/O paths: reads (normal + degraded) and writes (full + RMW).

The paper measures how long the system takes to restore redundancy; this
module measures what the outage *costs clients meanwhile*.  During the
entire System Checking Period (§4.3) — ~600 s of down-but-not-out — every
read that needs a shard on the failed device is a **degraded read**: the
primary must fetch k surviving chunks (parity included) and decode on the
fly, instead of streaming the k data chunks directly.  Degraded reads are
slower, burn extra disk/network bandwidth, and compete with recovery I/O
once it starts — all visible through :class:`ClientLoadGenerator`'s
latency samples.

The gray-failure defenses live here too:

* **Per-op timeouts + retry/backoff** — when ``client_op_timeout`` is
  set, a read attempt that outlives it is abandoned and retried with
  seeded exponential backoff + jitter, up to ``client_retry_max`` times
  (:func:`repro.cluster.retry.retry_backoff`).
* **Hedged reads** — when ``client_hedge_delay`` is set, a shard fetch
  still in flight after the delay is *re-issued* to another surviving
  shard; whichever copy arrives first serves the read, and the loser's
  bytes are accounted as hedge waste (:class:`ClientOpStats`).  The
  abandoned fetch still drains its disk/NIC resources — exactly the
  duplicated I/O cost real hedging pays.

All defenses default OFF and the retry RNG is consumed only on actual
retries, so healthy baseline runs are byte-identical to the undefended
model.

**The write path** (the transient-failure axis's other half) also lives
here.  :meth:`RadosClient.write_object` encodes a full stripe at the
coordinating primary and pushes every shard; :meth:`write_stripe_unit`
is the partial-stripe read-modify-write (read old units, re-encode the
parity deltas, write the touched shards in place).  Writes succeed
*degraded* — shards may be down, up to the code's guaranteed fault
tolerance (``fault_tolerance()``) — and every commit appends a
:class:`~repro.cluster.pglog.PgLog` entry recording exactly which shards
missed the write, which is what makes pg_log delta recovery possible
when the absent OSD returns.  A write that exhausts its retry budget
rolls its staged log entry back and undoes (or marks divergent) its
partial pushes, so an abandoned op never leaves a torn stripe.  Stale
shards never serve reads or RMW source fetches; a *full* overwrite may
land on a stale shard (refreshing it).  Write RNG streams and stats
fields are consumed/emitted only when writes actually run, so read-only
runs stay byte-identical to the read-only model.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from ..sim import Event
from ..sim.rng import SeedSequence
from .ceph import CephCluster
from .devices import DiskFailedError
from .network import TransferDroppedError
from .osd import coding_time, sequential_ops
from .pool import PlacementGroup, StoredObject
from .retry import retry_backoff

__all__ = [
    "ReadSample",
    "ReadStats",
    "WriteSample",
    "WriteStats",
    "ClientOpStats",
    "RadosClient",
    "ClientLoadGenerator",
    "ARRIVAL_KINDS",
    "WRITE_STAT_KEYS",
]


class ObjectNotFoundError(KeyError):
    """Read of an object the pool does not hold."""


class ReadFailedError(RuntimeError):
    """The read could not be served within the client's retry budget."""


class WriteFailedError(RuntimeError):
    """The write could not commit within the client's retry budget."""


@dataclass(frozen=True)
class ReadSample:
    """One completed client read."""

    object_name: str
    issued_at: float
    latency: float
    degraded: bool
    bytes_read: int
    #: 1 for a first-try success; grows with timeout/drop retries.
    attempts: int = 1
    #: True when a hedged duplicate fetch was issued for this read.
    hedged: bool = False


@dataclass
class ReadStats:
    """Aggregate over a load generator's samples."""

    samples: List[ReadSample] = field(default_factory=list)
    #: Reads abandoned after the retry budget (no sample recorded).
    failures: int = 0

    def add(self, sample: ReadSample) -> None:
        self.samples.append(sample)

    def rows(self) -> List[list]:
        """The samples as outcome-digest rows (one list per read)."""
        return [
            [s.object_name, s.issued_at, s.latency, s.degraded,
             s.bytes_read, s.attempts, s.hedged]
            for s in self.samples
        ]

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def degraded_count(self) -> int:
        return sum(1 for s in self.samples if s.degraded)

    @property
    def degraded_fraction(self) -> float:
        return self.degraded_count / self.count if self.samples else 0.0

    def latency_percentile(self, pct: float, degraded: Optional[bool] = None) -> float:
        """p50/p99-style latency; optionally filtered by degraded flag.

        Delegates to the audited ceil-based nearest-rank implementation
        in :func:`repro.analysis.stats.percentile`.
        """
        # Imported at call time: the analysis package pulls in the sweep
        # machinery, which imports the cluster back (a top-level import
        # here would be a cycle).
        from ..analysis.stats import percentile

        values = [
            s.latency
            for s in self.samples
            if degraded is None or s.degraded == degraded
        ]
        if not values:
            raise ValueError("no samples match the filter")
        return percentile(values, pct)

    def mean_latency(self) -> float:
        if not self.samples:
            raise ValueError("no read samples")
        return statistics.fmean(s.latency for s in self.samples)


@dataclass(frozen=True)
class WriteSample:
    """One committed client write."""

    object_name: str
    issued_at: float
    latency: float
    #: ``create`` / ``full`` (whole-stripe overwrite) / ``rmw``.
    kind: str
    #: True when the commit recorded missing shards (degraded write).
    degraded: bool
    #: Logical bytes the client handed over (object size, or one
    #: stripe unit for an RMW) — not the encoded/stored volume.
    bytes_written: int
    attempts: int = 1
    #: Physical bytes this commit put on devices (allocations plus
    #: in-place rewrites) — the per-tenant WA-attribution numerator.
    #: Stays 0 only for a degraded write that landed nothing new.
    stored_bytes: int = 0


@dataclass
class WriteStats:
    """Aggregate over a load generator's write samples."""

    samples: List[WriteSample] = field(default_factory=list)
    #: Writes abandoned after the retry budget (no sample recorded).
    failures: int = 0

    def add(self, sample: WriteSample) -> None:
        self.samples.append(sample)

    def rows(self) -> List[list]:
        """The samples as outcome-digest rows (one list per write)."""
        return [
            [s.object_name, s.issued_at, s.latency, s.kind, s.degraded,
             s.bytes_written, s.attempts]
            for s in self.samples
        ]

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def degraded_count(self) -> int:
        return sum(1 for s in self.samples if s.degraded)

    @property
    def degraded_fraction(self) -> float:
        return self.degraded_count / self.count if self.samples else 0.0

    @property
    def logical_bytes(self) -> int:
        """Total logical volume committed (the outage-write workload size)."""
        return sum(s.bytes_written for s in self.samples)

    @property
    def stored_bytes(self) -> int:
        """Total physical volume committed (WA-attribution numerator)."""
        return sum(s.stored_bytes for s in self.samples)

    def mean_latency(self) -> float:
        if not self.samples:
            raise ValueError("no write samples")
        return statistics.fmean(s.latency for s in self.samples)


@dataclass
class ClientOpStats:
    """Defense-layer counters of one client (retries, hedges, waste)."""

    reads_ok: int = 0
    reads_failed: int = 0
    retries: int = 0
    timeouts: int = 0
    drops_seen: int = 0
    hedges_issued: int = 0
    hedges_won: int = 0
    #: Retry attempts served through a different primary than the first
    #: choice (the read was *redirected* around a degraded coordinator).
    redirects: int = 0
    #: Bytes of duplicate shard fetches whose result went unused — the
    #: price of hedging.  Never enters ReadSample.bytes_read or the WA
    #: ledger (reads allocate nothing), so client-visible byte counts
    #: are not double-counted.
    hedge_wasted_bytes: int = 0
    #: Write-path counters (stay zero on read-only runs and are pruned
    #: from digests then — see :data:`WRITE_STAT_KEYS`).
    writes_ok: int = 0
    writes_failed: int = 0
    write_retries: int = 0
    #: Write attempts that blocked on the monitor's full-ratio pause
    #: (capacity backpressure).  Zero — and digest-pruned — unless some
    #: OSD actually hit ``mon_osd_full_ratio``.
    writes_paused: int = 0


#: Arrival processes a load generator may run.
ARRIVAL_KINDS = ("uniform", "poisson")

#: ClientOpStats fields added with the write path — pruned from digests
#: when zero so read-only runs hash identically to the prior model.
WRITE_STAT_KEYS = ("writes_ok", "writes_failed", "write_retries", "writes_paused")


@dataclass(frozen=True)
class _ShardResult:
    """Outcome of one guarded shard fetch or push (processes never fail)."""

    ok: bool
    shard: int
    reason: str = ""


@dataclass(frozen=True)
class _AttemptResult:
    """Outcome of one full read attempt."""

    ok: bool
    degraded: bool = False
    hedged: bool = False
    needs_decode: bool = False
    reason: str = ""


@dataclass(frozen=True)
class _WriteAttempt:
    """Outcome of one full write attempt."""

    ok: bool
    reason: str = ""


class RadosClient:
    """Reads whole objects from the cluster's EC pool.

    A normal read streams the k data shards; a degraded read falls back
    to any k surviving shards plus an on-the-fly decode at the primary.
    Client I/O shares the same disks and NICs as recovery, so the two
    interfere exactly as they would in the real system.
    """

    #: Client-visible protocol overhead per read.
    request_overhead = 0.001

    def __init__(
        self,
        cluster: CephCluster,
        name: str = "client.0",
        seeds: Optional[SeedSequence] = None,
        qos_class: Optional[str] = None,
    ):
        self.cluster = cluster
        self.name = name
        #: QoS class this client's shard I/O is tagged with at each OSD
        #: (``tenant:<name>`` for fleet tenants).  ``None`` — or an OSD
        #: without an attached scheduler — skips admission entirely, so
        #: non-tenant runs stay byte-identical to the pre-QoS model.
        self.qos_class = qos_class
        self.stats = ClientOpStats()
        #: Consumed only when a retry actually backs off, so healthy
        #: runs never draw from it.
        self._retry_rng = (seeds or SeedSequence(0)).stream("client-retry")

    def _admit(self, osd, nbytes: int, write: bool) -> Optional[Event]:
        """The QoS admission grant for one shard I/O, or None when off."""
        if self.qos_class is None:
            return None
        qos = osd.qos_writes if write else osd.qos_reads
        if qos is None:
            return None
        return qos.submit(self.qos_class, qos.client_cost(nbytes))

    def read_object(self, object_name: str) -> Event:
        """Read one object; the event's value is a :class:`ReadSample`."""
        return self.cluster.env.process(self._read(object_name))

    def write_object(self, object_name: str, size: Optional[int] = None) -> Event:
        """Full-stripe write; the event's value is a :class:`WriteSample`.

        Creates the object (``size`` required) if the pool does not hold
        it, otherwise overwrites every shard in place.  Succeeds degraded
        with missing shards up to the code's guaranteed fault tolerance;
        the commit records the missing set in the PG's write log.
        """
        return self.cluster.env.process(
            self._write(object_name, size=size, data_shard=None)
        )

    def write_stripe_unit(self, object_name: str, data_shard: int = 0) -> Event:
        """Partial-stripe read-modify-write of one stripe unit.

        Reads the old data/parity units, re-encodes the ``m`` parity
        deltas at the primary, and writes the touched shards (the data
        shard plus every parity) in place.  The event's value is a
        :class:`WriteSample`.
        """
        return self.cluster.env.process(
            self._write(object_name, size=None, data_shard=data_shard)
        )

    # -- internals --------------------------------------------------------------

    def _lookup(self, object_name: str):
        pg = self.cluster.pool.pg_of(object_name)
        for obj in pg.objects:
            if obj.name == object_name:
                return pg, obj
        raise ObjectNotFoundError(f"object {object_name!r} not in pool")

    def _read(self, object_name: str) -> Generator:
        """Retry loop around read attempts (timeouts, drops, flaps)."""
        env = self.cluster.env
        config = self.cluster.config
        issued_at = env.now
        pg, obj = self._lookup(object_name)
        attempt = 0
        while True:
            result = yield from self._read_attempt(pg, obj, attempt)
            if result.ok:
                self.stats.reads_ok += 1
                return ReadSample(
                    object_name=object_name,
                    issued_at=issued_at,
                    latency=env.now - issued_at,
                    degraded=result.degraded,
                    bytes_read=obj.size,
                    attempts=attempt + 1,
                    hedged=result.hedged,
                )
            attempt += 1
            if attempt > config.client_retry_max:
                self.stats.reads_failed += 1
                raise ReadFailedError(
                    f"object {object_name!r}: {result.reason} "
                    f"(gave up after {attempt} attempts)"
                )
            self.stats.retries += 1
            yield env.timeout(
                retry_backoff(attempt, config.client_retry_base, self._retry_rng)
            )

    def _read_attempt(self, pg: PlacementGroup, obj, attempt: int = 0) -> Generator:
        env = self.cluster.env
        config = self.cluster.config
        code = self.cluster.pool.code
        layout = obj.layout

        data_shards = list(range(code.k))
        # Stale shards (missed a write while briefly down) hold old
        # content: they never serve reads, exactly like down shards.
        stale = pg.log.stale_shards(obj.name) if pg.log is not None else set()
        up = [
            shard
            for shard in range(code.n)
            if shard not in stale
            and self.cluster.osds[pg.acting[shard]].is_up()
        ]
        degraded = any(shard not in up for shard in data_shards)
        if degraded:
            shards = up[: code.k]
            if len(shards) < code.k:
                return _AttemptResult(
                    ok=False, degraded=True,
                    reason=f"only {len(up)} shards up",
                )
        else:
            shards = data_shards
        #: Surviving shards not already being read — the hedge targets.
        spares = [s for s in up if s not in shards]

        # Redirect: a retry rotates the coordinating primary to the next
        # surviving shard, so a read stuck behind a degraded primary's NIC
        # does not time out against the same path forever.  Attempt 0
        # always picks the first up shard — byte-identical to the
        # undefended model on healthy runs (retries never happen there).
        primary_shard = up[attempt % len(up)]
        if primary_shard != up[0]:
            self.stats.redirects += 1
        primary = self.cluster.osds[pg.acting[primary_shard]]
        yield env.timeout(self.request_overhead)
        fetches = [
            env.process(
                self._fetch_with_hedge(pg, shard, primary, layout, spares)
            )
            for shard in shards
        ]
        gather = env.all_of(fetches)
        if config.client_op_timeout > 0:
            timer = env.timeout(config.client_op_timeout)
            yield env.any_of([gather, timer])
            if not gather.triggered:
                # Abandon the attempt; the in-flight fetches drain on
                # their own (guarded processes never fail the engine).
                self.stats.timeouts += 1
                return _AttemptResult(
                    ok=False, degraded=degraded,
                    reason=f"op timed out after {config.client_op_timeout:g}s",
                )
            results = gather.value
        else:
            results = yield gather
        hedged = any(r.shard not in shards for r in results)
        bad = [r for r in results if not r.ok]
        if bad:
            return _AttemptResult(
                ok=False, degraded=degraded, hedged=hedged,
                reason=bad[0].reason,
            )
        served = {r.shard for r in results}
        byz = self.cluster.byzantine
        if byz is not None:
            # Containment accounting: a read served from a shard that is
            # still lying (undetected forged checksum or false-acked
            # write) is a *wrong read* — the byzantine-containment
            # invariant requires this count to stay zero pre-detection.
            byz.note_read(pg.pgid, obj.name, served, env.now)
        needs_decode = degraded or served != set(data_shards)
        if needs_decode:
            # On-the-fly decode of the missing data shards at the primary.
            decode = coding_time(
                primary.config,
                nbytes=layout.chunk_stored_bytes,
                work=1.0,
                fragments=layout.units * code.sub_chunk_count,
                cpu_cost_factor=code.cpu_cost_factor,
            )
            yield primary.cpu.request(decode)
        return _AttemptResult(
            ok=True, degraded=degraded, hedged=hedged,
            needs_decode=needs_decode,
        )

    def _fetch_with_hedge(
        self, pg: PlacementGroup, shard: int, primary, layout, spares: List[int]
    ) -> Generator:
        """One shard fetch, re-issued to a spare survivor if it straggles.

        The loser of the race is *abandoned*, not interrupted: it keeps
        draining its disk and NIC time (the true cost of hedging) but its
        result is discarded and its bytes counted as hedge waste.
        """
        env = self.cluster.env
        hedge_delay = self.cluster.config.client_hedge_delay
        proc = env.process(self._guarded_fetch(pg, shard, primary, layout))
        if hedge_delay <= 0:
            result = yield proc
            return result
        timer = env.timeout(hedge_delay)
        yield env.any_of([proc, timer])
        if proc.triggered:
            return proc.value
        spare = spares.pop(0) if spares else None
        if spare is None:
            result = yield proc
            return result
        self.stats.hedges_issued += 1
        hedge = env.process(self._guarded_fetch(pg, spare, primary, layout))
        first = yield env.any_of([proc, hedge])
        if first.ok:
            winner = first
        else:
            # First arrival failed (drop); fall back to the other copy.
            other = hedge if proc.triggered else proc
            winner = yield other
        # Exactly one copy serves the read; the duplicate's bytes are
        # waste whether it already landed or is still in flight.
        self.stats.hedge_wasted_bytes += layout.chunk_stored_bytes
        if winner.ok and winner.shard == spare:
            self.stats.hedges_won += 1
        return winner

    def _guarded_fetch(self, pg: PlacementGroup, shard: int, primary, layout) -> Generator:
        """Fetch one shard; never fails the process (returns a result).

        Every failure mode — source down (flap), failed disk, dropped or
        partitioned transfer — is caught here and reported by value, so
        abandoned fetches can safely drain without a waiter.
        """
        source = self.cluster.osds[pg.acting[shard]]
        nbytes = layout.chunk_stored_bytes
        try:
            if not source.is_up():
                return _ShardResult(
                    ok=False, shard=shard,
                    reason=f"shard {shard} source {source.name} is down",
                )
            grant = self._admit(source, nbytes, write=False)
            if grant is not None:
                yield grant
            yield source.disk.submit(
                sequential_ops(source.config, nbytes), nbytes, write=False
            )
            yield self.cluster.topology.fabric.transfer(
                self.cluster.topology.nic_of(source.osd_id),
                self.cluster.topology.nic_of(primary.osd_id),
                nbytes,
            )
        except TransferDroppedError as exc:
            self.stats.drops_seen += 1
            return _ShardResult(ok=False, shard=shard, reason=str(exc))
        except DiskFailedError as exc:
            return _ShardResult(ok=False, shard=shard, reason=str(exc))
        return _ShardResult(ok=True, shard=shard)

    # -- write path -------------------------------------------------------------

    def _write(
        self, object_name: str, size: Optional[int], data_shard: Optional[int]
    ) -> Generator:
        """Retry loop shared by full-stripe writes and RMWs.

        The write is *staged* on the PG log before any I/O and either
        commits exactly once (assigning the next PG version) or rolls
        back: allocations made for chunks that never existed are undone,
        and in-place pushes that landed before the abort are marked
        divergent so repair re-syncs them — the rollback rule that keeps
        an abandoned op from leaving a torn stripe.
        """
        env = self.cluster.env
        config = self.cluster.config
        pool = self.cluster.pool
        issued_at = env.now
        pg = pool.pg_of(object_name)
        log = pg.log
        if log is None:
            raise RuntimeError("pool has no pg_log; writes are unsupported")
        obj = next((o for o in pg.objects if o.name == object_name), None)
        rmw = data_shard is not None
        if rmw:
            if obj is None:
                raise ObjectNotFoundError(
                    f"object {object_name!r} not in pool"
                )
            if not 0 <= data_shard < pool.code.k:
                raise ValueError(
                    f"data_shard must be in [0, {pool.code.k}), got {data_shard}"
                )
            layout = obj.layout
            kind = "rmw"
            logical = layout.stripe_unit
        elif obj is None:
            if size is None:
                raise ValueError(
                    f"size required to create object {object_name!r}"
                )
            layout = pool.layout_for(size)
            kind = "create"
            logical = size
        else:
            layout = obj.layout
            size = obj.size
            kind = "full"
            logical = size
        log.stage()
        #: Shards persisted by this write (survives across attempts).
        landed: Set[int] = set()
        #: shard -> (allocated, metadata) for chunks this write brought
        #: into existence — the abort rollback set.
        allocs: Dict[int, Tuple[int, int]] = {}
        attempt = 0
        while True:
            # Capacity backpressure: while any OSD is at the full ratio
            # the monitor pauses client writes cluster-wide.  The gate is
            # None when unpaused (no yield, no event perturbation), so
            # runs that never fill a device are byte-identical.
            gate = self.cluster.monitor.write_gate()
            if gate is not None:
                self.stats.writes_paused += 1
                yield gate
            if rmw:
                result = yield from self._rmw_attempt(
                    pg, obj, data_shard, landed, attempt
                )
            else:
                result = yield from self._full_write_attempt(
                    pg, object_name, layout, kind == "create",
                    landed, allocs, attempt,
                )
            if result.ok:
                sample = self._commit_write(
                    pg, object_name, kind, size, layout,
                    data_shard, landed, allocs, issued_at, attempt + 1,
                )
                self.stats.writes_ok += 1
                return sample
            attempt += 1
            if attempt > config.client_write_retry_max:
                self._abort_write(pg, object_name, kind, layout, landed, allocs)
                self.stats.writes_failed += 1
                raise WriteFailedError(
                    f"object {object_name!r}: {result.reason} "
                    f"(gave up after {attempt} attempts)"
                )
            self.stats.write_retries += 1
            yield env.timeout(
                retry_backoff(attempt, config.client_retry_base, self._retry_rng)
            )

    def _full_write_attempt(
        self,
        pg: PlacementGroup,
        object_name: str,
        layout,
        create: bool,
        landed: Set[int],
        allocs: Dict[int, Tuple[int, int]],
        attempt: int,
    ) -> Generator:
        """Encode the stripe at the primary and push every reachable shard.

        A stale shard *is* a valid target — the full overwrite refreshes
        it.  Fails (retryably) only when more shards would end up without
        the write than the code's *guaranteed* fault tolerance (``m``
        for RS/Clay, ``r + 1`` for LRC, 1 for SHEC) — acking beyond that
        could leave an object the recovery path cannot promise to heal.
        """
        env = self.cluster.env
        code = self.cluster.pool.code
        up = [
            shard for shard in range(code.n)
            if self.cluster.osds[pg.acting[shard]].is_up()
        ]
        if not up:
            return _WriteAttempt(ok=False, reason="no shards up")
        missing_now = [
            s for s in range(code.n) if s not in landed and s not in up
        ]
        if len(missing_now) > code.fault_tolerance():
            return _WriteAttempt(
                ok=False, reason=f"only {len(up)} shards up"
            )
        primary_shard = up[attempt % len(up)]
        if primary_shard != up[0]:
            self.stats.redirects += 1
        primary = self.cluster.osds[pg.acting[primary_shard]]
        yield env.timeout(self.request_overhead)
        encode = coding_time(
            primary.config,
            nbytes=layout.chunk_stored_bytes * code.m,
            work=1.0,
            fragments=layout.units * code.sub_chunk_count * code.m,
            cpu_cost_factor=code.cpu_cost_factor,
        )
        yield primary.cpu.request(encode)
        targets = [s for s in up if s not in landed]
        pushes = [
            env.process(
                self._guarded_push(
                    pg, shard, primary, layout, object_name, create, allocs
                )
            )
            for shard in targets
        ]
        results = yield env.all_of(pushes)
        for result in results:
            if result.ok:
                landed.add(result.shard)
        still_missing = [s for s in range(code.n) if s not in landed]
        if len(still_missing) > code.fault_tolerance():
            bad = [r for r in results if not r.ok]
            return _WriteAttempt(
                ok=False,
                reason=bad[0].reason if bad else "too many shards missing",
            )
        return _WriteAttempt(ok=True)

    def _rmw_attempt(
        self,
        pg: PlacementGroup,
        obj: StoredObject,
        data_shard: int,
        landed: Set[int],
        attempt: int,
    ) -> Generator:
        """Read-modify-write one stripe unit: read, re-encode, push deltas.

        Sources and targets are restricted to clean (up, non-stale)
        shards — a partial write landing on stale content would tear the
        stripe.  The preferred read set is the old data unit plus the
        parities (the classic RMW); when any of those is unavailable the
        old unit is reconstructed from ``k`` clean shards instead.
        """
        env = self.cluster.env
        code = self.cluster.pool.code
        log = pg.log
        layout = obj.layout
        unit = layout.stripe_unit
        stale = log.stale_shards(obj.name)
        clean_up = [
            shard for shard in range(code.n)
            if shard not in stale
            and self.cluster.osds[pg.acting[shard]].is_up()
        ]
        if len(clean_up) < code.k:
            return _WriteAttempt(
                ok=False, reason=f"only {len(clean_up)} clean shards up"
            )
        touched = [data_shard, *range(code.k, code.n)]
        targets = [
            s for s in touched if s not in landed and s in clean_up
        ]
        prospective = stale | {
            s for s in touched if s not in landed and s not in targets
        }
        if len(prospective) > code.fault_tolerance():
            return _WriteAttempt(
                ok=False, reason="write would exceed parity tolerance"
            )
        primary_shard = clean_up[attempt % len(clean_up)]
        if primary_shard != clean_up[0]:
            self.stats.redirects += 1
        primary = self.cluster.osds[pg.acting[primary_shard]]
        yield env.timeout(self.request_overhead)
        if all(s in clean_up for s in touched):
            sources, needs_decode = list(touched), False
        else:
            sources, needs_decode = clean_up[: code.k], True
        fetches = [
            env.process(self._guarded_unit_io(pg, s, primary, unit, write=False))
            for s in sources
        ]
        results = yield env.all_of(fetches)
        bad = [r for r in results if not r.ok]
        if bad:
            return _WriteAttempt(ok=False, reason=bad[0].reason)
        cost_factor = code.cpu_cost_factor
        if needs_decode:
            decode = coding_time(
                primary.config,
                nbytes=unit,
                work=1.0,
                fragments=code.sub_chunk_count,
                cpu_cost_factor=cost_factor,
            )
            yield primary.cpu.request(decode)
        encode = coding_time(
            primary.config,
            nbytes=unit * code.m,
            work=1.0,
            fragments=code.sub_chunk_count * code.m,
            cpu_cost_factor=cost_factor,
        )
        yield primary.cpu.request(encode)
        pushes = [
            env.process(self._guarded_unit_io(pg, s, primary, unit, write=True))
            for s in targets
        ]
        write_results = yield env.all_of(pushes)
        for result in write_results:
            if result.ok:
                landed.add(result.shard)
        still_missing = {s for s in touched if s not in landed}
        if len(stale | still_missing) > code.fault_tolerance():
            bad = [r for r in write_results if not r.ok]
            return _WriteAttempt(
                ok=False,
                reason=bad[0].reason if bad else "too many shards missing",
            )
        return _WriteAttempt(ok=True)

    def _guarded_push(
        self,
        pg: PlacementGroup,
        shard: int,
        primary,
        layout,
        object_name: str,
        create: bool,
        allocs: Dict[int, Tuple[int, int]],
    ) -> Generator:
        """Push one full chunk to its target; never fails the process.

        Chunks that do not physically exist yet (a create, or a shard a
        degraded create skipped) are allocated — with the space reserved
        and the ledger credited synchronously, so the byte-conservation
        invariant holds at every instant mid-write.  Existing chunks are
        overwritten in place (no allocation change).  A push lost to a
        gray fault rolls its speculative allocation back.
        """
        target = self.cluster.osds[pg.acting[shard]]
        nbytes = layout.chunk_stored_bytes
        if not target.is_up():
            return _ShardResult(
                ok=False, shard=shard,
                reason=f"shard {shard} target {target.name} is down",
            )
        log = pg.log
        allocate = create or log.is_unstored(object_name, shard)
        csum_blocks = 0
        if allocate:
            integrity = self.cluster.integrity
            if integrity.config.enabled:
                csum_blocks = integrity.csum_blocks_for(nbytes)
            allocation = target.backend.chunk_allocation(
                nbytes, layout.units, csum_blocks
            )
            allocated, metadata = allocation
            if (
                target.disk.used_bytes + allocated + metadata
                > target.disk.spec.capacity_bytes
            ):
                return _ShardResult(
                    ok=False, shard=shard,
                    reason=f"target {target.name} toofull",
                )
            # Reserve synchronously with the headroom check, and credit
            # the ledger in the same instant (commit reclassifies).
            target.store_chunk(nbytes, layout.units, allocation)
            self.cluster.ledger.credit_chunk(allocated, metadata)
            allocs[shard] = allocation
        try:
            grant = self._admit(target, nbytes, write=True)
            if grant is not None:
                yield grant
            yield self.cluster.topology.fabric.transfer(
                self.cluster.topology.nic_of(primary.osd_id),
                self.cluster.topology.nic_of(target.osd_id),
                nbytes,
            )
            yield target.write_chunk(nbytes)
        except (TransferDroppedError, DiskFailedError) as exc:
            if isinstance(exc, TransferDroppedError):
                self.stats.drops_seen += 1
            if allocate:
                target.remove_chunk(nbytes, layout.units, allocation)
                self.cluster.ledger.debit_chunk(*allocation)
                allocs.pop(shard, None)
            return _ShardResult(ok=False, shard=shard, reason=str(exc))
        return _ShardResult(ok=True, shard=shard)

    def _guarded_unit_io(
        self, pg: PlacementGroup, shard: int, primary, unit: int, write: bool
    ) -> Generator:
        """One stripe-unit read or in-place write for an RMW; never fails."""
        osd = self.cluster.osds[pg.acting[shard]]
        try:
            if not osd.is_up():
                return _ShardResult(
                    ok=False, shard=shard,
                    reason=f"shard {shard} osd {osd.name} is down",
                )
            grant = self._admit(osd, unit, write=write)
            if grant is not None:
                yield grant
            if write:
                yield self.cluster.topology.fabric.transfer(
                    self.cluster.topology.nic_of(primary.osd_id),
                    self.cluster.topology.nic_of(osd.osd_id),
                    unit,
                )
                yield osd.disk.submit(1, unit, write=True)
            else:
                yield osd.disk.submit(1, unit, write=False)
                yield self.cluster.topology.fabric.transfer(
                    self.cluster.topology.nic_of(osd.osd_id),
                    self.cluster.topology.nic_of(primary.osd_id),
                    unit,
                )
        except TransferDroppedError as exc:
            self.stats.drops_seen += 1
            return _ShardResult(ok=False, shard=shard, reason=str(exc))
        except DiskFailedError as exc:
            return _ShardResult(ok=False, shard=shard, reason=str(exc))
        return _ShardResult(ok=True, shard=shard)

    def _commit_write(
        self,
        pg: PlacementGroup,
        object_name: str,
        kind: str,
        size: Optional[int],
        layout,
        data_shard: Optional[int],
        landed: Set[int],
        allocs: Dict[int, Tuple[int, int]],
        issued_at: float,
        attempts: int,
    ) -> WriteSample:
        """Assign the next PG version and settle all the bookkeeping."""
        env = self.cluster.env
        code = self.cluster.pool.code
        log = pg.log
        if kind == "rmw":
            touched = tuple(sorted((data_shard, *range(code.k, code.n))))
            unit = layout.stripe_unit
            logical = unit
        else:
            touched = tuple(range(code.n))
            logical = size
        missing = tuple(s for s in touched if s not in landed)
        log.commit(object_name, kind, touched=touched, missing=missing, at=env.now)
        ledger = self.cluster.ledger
        #: Physical bytes this commit put on devices: fresh allocations
        #: (data + metadata) plus in-place rewrites of existing chunks.
        stored = sum(a + m for a, m in allocs.values())
        if kind == "full":
            stored += layout.chunk_stored_bytes * (len(landed) - len(allocs))
        elif kind == "rmw":
            stored += layout.stripe_unit * len(landed)
        if kind == "create":
            obj = StoredObject(name=object_name, size=size, layout=layout)
            pg.objects.append(obj)
            for shard in missing:
                log.note_unstored(object_name, shard)
            # Per-chunk credits parked the landed bytes in the padding
            # bucket; the committed logical volume moves to the client
            # bucket (device totals untouched — conservation is exact).
            ledger.reclassify_ingest(size)
            self._refresh_checksums(pg, obj, landed)
        elif kind == "full":
            # In-place rewrites allocate nothing; chunks brought into
            # existence by this write (previously unstored) were already
            # credited as allocations.
            overwritten = len(landed) - len(allocs)
            ledger.credit_overwrite(size, layout.chunk_stored_bytes * overwritten)
            obj = next(o for o in pg.objects if o.name == object_name)
            self._refresh_checksums(pg, obj, landed)
        else:
            ledger.credit_overwrite(logical, unit * len(landed))
        return WriteSample(
            object_name=object_name,
            issued_at=issued_at,
            latency=env.now - issued_at,
            kind=kind,
            degraded=bool(missing),
            bytes_written=logical,
            attempts=attempts,
            stored_bytes=stored,
        )

    def _refresh_checksums(
        self, pg: PlacementGroup, obj: StoredObject, landed: Set[int]
    ) -> None:
        """(Re)register write-time crc32c arrays for the landed shards.

        Only the shards the write physically reached are re-registered:
        a chunk the write rewrote whole also sheds any silent corruption
        it carried (the bad bytes are physically gone), while missing
        shards keep their old integrity state for scrub to judge.
        """
        integrity = self.cluster.integrity
        if not integrity.config.enabled:
            return
        csums = integrity.register_object(pg, obj, shards=landed)
        for shard in landed:
            if shard in csums:
                self.cluster.osds[pg.acting[shard]].backend.put_chunk_checksums(
                    (pg.pgid, obj.name, shard), csums[shard]
                )

    def _abort_write(
        self,
        pg: PlacementGroup,
        object_name: str,
        kind: str,
        layout,
        landed: Set[int],
        allocs: Dict[int, Tuple[int, int]],
    ) -> None:
        """Roll the staged write back without ever entering the log.

        Chunks this write allocated are removed (space and ledger
        credits undone).  In-place pushes that landed on pre-existing
        chunks cannot be physically unwritten — those shards are marked
        *divergent* (stale at the committed version) so repair re-syncs
        them; the log itself never learns the write happened.
        """
        log = pg.log
        log.rollback()
        for shard, allocation in allocs.items():
            osd = self.cluster.osds[pg.acting[shard]]
            osd.remove_chunk(layout.chunk_stored_bytes, layout.units, allocation)
            self.cluster.ledger.debit_chunk(*allocation)
        if kind != "create":
            for shard in landed:
                if shard not in allocs:
                    log.note_divergent(object_name, shard)


class ClientLoadGenerator:
    """Open-loop (by default read-only) load over the pool's objects.

    Issues one op every ``interval`` seconds at uniformly random
    objects, for ``duration`` seconds, collecting the latency/degraded
    samples into :attr:`stats` (reads) and :attr:`write_stats` (writes).
    Ops that exhaust the client's retry budget are counted in the
    respective ``failures`` instead of killing the generator — under
    gray faults some failures are expected.

    With ``write_fraction > 0`` each op is a write with that
    probability; a write is an RMW of a random data shard's stripe unit
    with probability ``rmw_fraction`` and a full-stripe overwrite
    otherwise.  The write draws happen *after* the object-name draw and
    only when the respective fraction is positive, so a read-only
    generator consumes exactly the same RNG stream as before the write
    path existed (digest compatibility).

    ``arrival`` is ``uniform`` (one op every ``interval``) or
    ``poisson`` (exponential gaps of mean ``interval``).  The poisson
    gap is drawn after the op draws, so uniform streams never see it.
    """

    def __init__(
        self,
        client: RadosClient,
        interval: float,
        seeds: Optional[SeedSequence] = None,
        write_fraction: float = 0.0,
        rmw_fraction: float = 0.5,
        arrival: str = "uniform",
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        if not 0.0 <= rmw_fraction <= 1.0:
            raise ValueError("rmw_fraction must be in [0, 1]")
        if arrival not in ARRIVAL_KINDS:
            raise ValueError(f"unknown arrival {arrival!r}")
        self.client = client
        self.interval = interval
        self.write_fraction = write_fraction
        self.rmw_fraction = rmw_fraction
        self.arrival = arrival
        self.rng = (seeds or SeedSequence(0)).stream("client-load")
        self.stats = ReadStats()
        self.write_stats = WriteStats()

    def digest_sections(self) -> Dict[str, Any]:
        """Failures and sample rows for an outcome digest.

        The write keys appear only when the stream wrote (or tried to),
        so read-only digests keep the read-only shape.
        """
        sections: Dict[str, Any] = {
            "read_failures": self.stats.failures,
            "samples": self.stats.rows(),
        }
        if self.write_stats.samples or self.write_stats.failures:
            sections["write_failures"] = self.write_stats.failures
            sections["write_samples"] = self.write_stats.rows()
        return sections

    def run_for(self, duration: float) -> Event:
        """Start issuing reads for ``duration`` simulated seconds."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        return self.client.cluster.env.process(self._run(duration))

    def _object_names(self) -> List[str]:
        return [
            obj.name
            for pg in self.client.cluster.pool.pgs.values()
            for obj in pg.objects
        ]

    def _run(self, duration: float) -> Generator:
        env = self.client.cluster.env
        names = self._object_names()
        if not names:
            raise RuntimeError("pool holds no objects to read")
        deadline = env.now + duration
        pending = []
        while env.now < deadline:
            name = self.rng.choice(names)
            if (
                self.write_fraction > 0.0
                and self.rng.random() < self.write_fraction
            ):
                if (
                    self.rmw_fraction > 0.0
                    and self.rng.random() < self.rmw_fraction
                ):
                    shard = self.rng.randrange(self.client.cluster.pool.code.k)
                    pending.append(env.process(self._one_rmw(name, shard)))
                else:
                    pending.append(env.process(self._one_write(name)))
            else:
                pending.append(env.process(self._one_read(name)))
            if self.arrival == "poisson":
                yield env.timeout(self.rng.expovariate(1.0 / self.interval))
            else:
                yield env.timeout(self.interval)
        if pending:
            yield env.all_of(pending)

    def _one_read(self, name: str) -> Generator:
        try:
            sample = yield self.client.read_object(name)
        except ReadFailedError:
            self.stats.failures += 1
            return
        self.stats.add(sample)

    def _one_write(self, name: str) -> Generator:
        try:
            sample = yield self.client.write_object(name)
        except WriteFailedError:
            self.write_stats.failures += 1
            return
        self.write_stats.add(sample)

    def _one_rmw(self, name: str, shard: int) -> Generator:
        try:
            sample = yield self.client.write_stripe_unit(name, data_shard=shard)
        except WriteFailedError:
            self.write_stats.failures += 1
            return
        self.write_stats.add(sample)
