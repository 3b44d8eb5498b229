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
from typing import Any, Dict, List, Optional, Set, Tuple

from ..sim import Chain, Event
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
    """Outcome of one guarded shard fetch or push (they never fail)."""

    ok: bool
    shard: int
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
        """Read one object; the event's value is a :class:`ReadSample`.

        The event fails with :class:`ReadFailedError` when the read
        exhausts its retry budget and with :class:`ObjectNotFoundError`
        when the pool does not hold the object.
        """
        return _Read(self, object_name)

    def write_object(self, object_name: str, size: Optional[int] = None) -> Event:
        """Full-stripe write; the event's value is a :class:`WriteSample`.

        Creates the object (``size`` required) if the pool does not hold
        it, otherwise overwrites every shard in place.  Succeeds degraded
        with missing shards up to the code's guaranteed fault tolerance;
        the commit records the missing set in the PG's write log.  The
        event fails with :class:`WriteFailedError` when the write
        exhausts its retry budget, with ``ValueError`` for a create
        without ``size`` and with ``RuntimeError`` for a pool without a
        pg_log.
        """
        return _Write(self, object_name, size, None)

    def write_stripe_unit(self, object_name: str, data_shard: int = 0) -> Event:
        """Partial-stripe read-modify-write of one stripe unit.

        Reads the old data/parity units, re-encodes the ``m`` parity
        deltas at the primary, and writes the touched shards (the data
        shard plus every parity) in place.  The event's value is a
        :class:`WriteSample`.  It fails with :class:`WriteFailedError`
        when the write exhausts its retry budget, with
        :class:`ObjectNotFoundError` when the pool does not hold the
        object and with ``ValueError`` for a ``data_shard`` outside
        ``[0, k)``.
        """
        return _Write(self, object_name, None, data_shard)

    # -- internals --------------------------------------------------------------

    def _lookup(self, object_name: str):
        pg = self.cluster.pool.pg_of(object_name)
        for obj in pg.objects:
            if obj.name == object_name:
                return pg, obj
        raise ObjectNotFoundError(f"object {object_name!r} not in pool")

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


class _Read(Chain):
    """One client read: the retry loop around read attempts.

    An attempt picks the shards to read (the k data shards, or any k
    clean survivors when the read is degraded) and a primary, pays the
    request overhead, fetches every shard through a :class:`_Fetch`,
    and decodes at the primary when a data shard is missing.  A lost
    attempt (too few shards, a timeout, a dropped or failed fetch)
    backs off and retries until the budget runs out.  Each step is
    placed where a process running the same loop would resume (see
    :class:`~repro.sim.engine.Chain`).
    """

    __slots__ = (
        "client", "name", "issued_at", "pg", "obj", "attempt", "degraded",
        "hedged", "shards", "spares", "primary", "gather",
    )

    def __init__(self, client: RadosClient, name: str):
        super().__init__(client.cluster.env)
        self.client = client
        self.name = name
        self.start(self._begin)

    def _begin(self, _arg) -> None:
        self.issued_at = self.env._now
        try:
            self.pg, self.obj = self.client._lookup(self.name)
        except ObjectNotFoundError as exc:
            self.fail(exc)
            return
        self.attempt = 0
        self._attempt()

    def _attempt(self, _arg=None) -> None:
        cluster = self.client.cluster
        code = cluster.pool.code
        pg = self.pg
        osds, acting = cluster.osds, pg.acting
        data_shards = list(range(code.k))
        # Stale shards (missed a write while briefly down) hold old
        # content: they never serve reads, exactly like down shards.
        stale = pg.log.stale_shards(self.obj.name) if pg.log is not None else set()
        up = [
            shard
            for shard in range(code.n)
            if shard not in stale and osds[acting[shard]].is_up()
        ]
        degraded = any(shard not in up for shard in data_shards)
        if degraded:
            shards = up[: code.k]
            if len(shards) < code.k:
                self._lost(f"only {len(up)} shards up")
                return
        else:
            shards = data_shards
        self.degraded = degraded
        self.shards = shards
        #: Surviving shards not already being read — the hedge targets.
        self.spares = [s for s in up if s not in shards]
        # Redirect: a retry rotates the coordinating primary to the next
        # surviving shard, so a read stuck behind a degraded primary's NIC
        # does not time out against the same path forever.  Attempt 0
        # always picks the first up shard — byte-identical to the
        # undefended model on healthy runs (retries never happen there).
        primary_shard = up[self.attempt % len(up)]
        if primary_shard != up[0]:
            self.client.stats.redirects += 1
        self.primary = osds[acting[primary_shard]]
        self.sleep(self.client.request_overhead, self._fetch)

    def _fetch(self, _arg) -> None:
        env = self.env
        client = self.client
        layout = self.obj.layout
        self.gather = gather = env.all_of([
            _Fetch(client, self.pg, shard, self.primary, layout, self.spares)
            for shard in self.shards
        ])
        timeout = client.cluster.config.client_op_timeout
        if timeout > 0:
            self.wait(env.any_of([gather, env.timeout(timeout)]), self._gathered)
        else:
            self.wait(gather, self._gathered)

    def _gathered(self, event: Event) -> None:
        if not event._ok:
            self.fail(event._value)
            return
        client = self.client
        cluster = client.cluster
        gather = self.gather
        if gather._ok is None:
            # Abandon the attempt; the in-flight fetches drain on their
            # own (guarded fetches never fail).
            client.stats.timeouts += 1
            self._lost(
                f"op timed out after {cluster.config.client_op_timeout:g}s"
            )
            return
        results = gather._value
        shards = self.shards
        self.hedged = any(r.shard not in shards for r in results)
        for result in results:
            if not result.ok:
                self._lost(result.reason)
                return
        code = cluster.pool.code
        served = {r.shard for r in results}
        byz = cluster.byzantine
        if byz is not None:
            # Containment accounting: a read served from a shard that is
            # still lying (undetected forged checksum or false-acked
            # write) is a *wrong read* — the byzantine-containment
            # invariant requires this count to stay zero pre-detection.
            byz.note_read(self.pg.pgid, self.obj.name, served, self.env._now)
        if self.degraded or served != set(range(code.k)):
            # On-the-fly decode of the missing data shards at the primary.
            layout = self.obj.layout
            primary = self.primary
            decode = coding_time(
                primary.config,
                nbytes=layout.chunk_stored_bytes,
                work=1.0,
                fragments=layout.units * code.sub_chunk_count,
                cpu_cost_factor=code.cpu_cost_factor,
            )
            self.wait(primary.cpu.request(decode), self._served)
            return
        self._served(None)

    def _served(self, _decode) -> None:
        self.client.stats.reads_ok += 1
        issued_at = self.issued_at
        self.succeed(ReadSample(
            object_name=self.name,
            issued_at=issued_at,
            latency=self.env._now - issued_at,
            degraded=self.degraded,
            bytes_read=self.obj.size,
            attempts=self.attempt + 1,
            hedged=self.hedged,
        ))

    def _lost(self, reason: str) -> None:
        """The attempt failed: back off and retry, or give up."""
        client = self.client
        config = client.cluster.config
        self.attempt += 1
        if self.attempt > config.client_retry_max:
            client.stats.reads_failed += 1
            self.fail(ReadFailedError(
                f"object {self.name!r}: {reason} "
                f"(gave up after {self.attempt} attempts)"
            ))
            return
        client.stats.retries += 1
        self.sleep(
            retry_backoff(self.attempt, config.client_retry_base, client._retry_rng),
            self._attempt,
        )


class _Fetch(Chain):
    """One shard fetch, re-issued to a spare survivor if it straggles.

    Without a hedge delay it only relays its :class:`_GuardedFetch`,
    keeping the start and end hops of the process it replaces.  With
    one, the loser of the race is *abandoned*, not interrupted: it keeps
    draining its disk and NIC time (the true cost of hedging) but its
    result is discarded and its bytes counted as hedge waste.
    """

    __slots__ = (
        "client", "pg", "shard", "primary", "layout", "spares", "proc",
        "hedge", "spare",
    )

    def __init__(self, client: RadosClient, pg: PlacementGroup, shard: int,
                 primary, layout, spares: List[int]):
        super().__init__(client.cluster.env)
        self.client = client
        self.pg = pg
        self.shard = shard
        self.primary = primary
        self.layout = layout
        self.spares = spares
        self.start(self._begin)

    def _begin(self, _arg) -> None:
        hedge_delay = self.client.cluster.config.client_hedge_delay
        self.proc = proc = _GuardedFetch(
            self.client, self.pg, self.shard, self.primary, self.layout
        )
        if hedge_delay <= 0:
            self.wait(proc, self._relay)
            return
        env = self.env
        self.wait(env.any_of([proc, env.timeout(hedge_delay)]), self._straggled)

    def _straggled(self, race: Event) -> None:
        if not race._ok:
            self.fail(race._value)
            return
        proc = self.proc
        if proc._ok is not None:
            self.succeed(proc._value)
            return
        spare = self.spares.pop(0) if self.spares else None
        if spare is None:
            self.wait(proc, self._relay)
            return
        self.client.stats.hedges_issued += 1
        self.spare = spare
        self.hedge = hedge = _GuardedFetch(
            self.client, self.pg, spare, self.primary, self.layout
        )
        self.wait(self.env.any_of([proc, hedge]), self._first)

    def _first(self, race: Event) -> None:
        if not race._ok:
            self.fail(race._value)
            return
        first = race._value
        if first.ok:
            self._won(first)
            return
        # First arrival failed (drop); fall back to the other copy.
        other = self.hedge if self.proc._ok is not None else self.proc
        self.wait(other, self._second)

    def _second(self, other: Event) -> None:
        if not other._ok:
            self.fail(other._value)
            return
        self._won(other._value)

    def _won(self, winner: _ShardResult) -> None:
        # Exactly one copy serves the read; the duplicate's bytes are
        # waste whether it already landed or is still in flight.
        stats = self.client.stats
        stats.hedge_wasted_bytes += self.layout.chunk_stored_bytes
        if winner.ok and winner.shard == self.spare:
            stats.hedges_won += 1
        self.succeed(winner)

    def _relay(self, fetch: Event) -> None:
        if fetch._ok:
            self.succeed(fetch._value)
        else:
            self.fail(fetch._value)


class _ShardIo(Chain):
    """One guarded shard I/O of a read or write: never fails.

    Every failure mode — the OSD down (flap), a failed disk, a dropped
    or partitioned transfer — succeeds the chain with a failed
    :class:`_ShardResult`, so an abandoned I/O can drain without a
    waiter.  Any other exception fails it.
    """

    __slots__ = ("client", "pg", "shard", "primary", "osd")

    def __init__(self, client: RadosClient, pg: PlacementGroup, shard: int,
                 primary):
        super().__init__(client.cluster.env)
        self.client = client
        self.pg = pg
        self.shard = shard
        self.primary = primary

    def _down(self, role: str) -> None:
        self.succeed(_ShardResult(
            ok=False, shard=self.shard,
            reason=f"shard {self.shard} {role} {self.osd.name} is down",
        ))

    def _transfer(self, src, dst, nbytes: int, step) -> None:
        topology = self.client.cluster.topology
        self.wait(
            topology.fabric.transfer(
                topology.nic_of(src.osd_id), topology.nic_of(dst.osd_id), nbytes
            ),
            step,
        )

    def _lost(self, exc: BaseException) -> None:
        if isinstance(exc, TransferDroppedError):
            self.client.stats.drops_seen += 1
        elif not isinstance(exc, DiskFailedError):
            self.fail(exc)
            return
        self._undo()
        self.succeed(_ShardResult(ok=False, shard=self.shard, reason=str(exc)))

    def _undo(self) -> None:
        """Roll back what the I/O reserved before it was lost."""

    def _done(self, _event) -> None:
        self.succeed(_ShardResult(ok=True, shard=self.shard))


class _GuardedFetch(_ShardIo):
    """Fetch one whole shard to the primary: QoS grant, disk read,
    transfer."""

    __slots__ = ("layout",)

    def __init__(self, client: RadosClient, pg: PlacementGroup, shard: int,
                 primary, layout):
        super().__init__(client, pg, shard, primary)
        self.layout = layout
        self.start(self._begin)

    def _begin(self, _arg) -> None:
        self.osd = source = self.client.cluster.osds[self.pg.acting[self.shard]]
        if not source.is_up():
            self._down("source")
            return
        grant = self.client._admit(source, self.layout.chunk_stored_bytes, write=False)
        if grant is None:
            self._read(None)
        else:
            self.wait(grant, self._read)

    def _read(self, _grant) -> None:
        source = self.osd
        nbytes = self.layout.chunk_stored_bytes
        try:
            disk_read = source.disk.submit(
                sequential_ops(source.config, nbytes), nbytes, write=False
            )
        except DiskFailedError as exc:
            self._lost(exc)
            return
        self.wait(disk_read, self._ship)

    def _ship(self, _disk_read) -> None:
        self._transfer(
            self.osd, self.primary, self.layout.chunk_stored_bytes, self._delivered
        )

    def _delivered(self, transfer: Event) -> None:
        if transfer._ok:
            self._done(transfer)
        else:
            self._lost(transfer._value)


class _Push(_ShardIo):
    """Push one full chunk to its target: QoS grant, transfer, disk write.

    Chunks that do not physically exist yet (a create, or a shard a
    degraded create skipped) are allocated — with the space reserved
    and the ledger credited synchronously, so the byte-conservation
    invariant holds at every instant mid-write.  Existing chunks are
    overwritten in place (no allocation change).  A push lost to a
    gray fault rolls its speculative allocation back.
    """

    __slots__ = ("layout", "object_name", "create", "allocs", "allocation")

    def __init__(self, client: RadosClient, pg: PlacementGroup, shard: int,
                 primary, layout, object_name: str, create: bool,
                 allocs: Dict[int, Tuple[int, int]]):
        super().__init__(client, pg, shard, primary)
        self.layout = layout
        self.object_name = object_name
        self.create = create
        self.allocs = allocs
        self.allocation: Optional[Tuple[int, int]] = None
        self.start(self._begin)

    def _begin(self, _arg) -> None:
        cluster = self.client.cluster
        shard, layout = self.shard, self.layout
        self.osd = target = cluster.osds[self.pg.acting[shard]]
        nbytes = layout.chunk_stored_bytes
        if not target.is_up():
            self._down("target")
            return
        if self.create or self.pg.log.is_unstored(self.object_name, shard):
            csum_blocks = 0
            integrity = cluster.integrity
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
                self.succeed(_ShardResult(
                    ok=False, shard=shard, reason=f"target {target.name} toofull",
                ))
                return
            # Reserve synchronously with the headroom check, and credit
            # the ledger in the same instant (commit reclassifies).
            target.store_chunk(nbytes, layout.units, allocation)
            cluster.ledger.credit_chunk(allocated, metadata)
            self.allocs[shard] = self.allocation = allocation
        grant = self.client._admit(target, nbytes, write=True)
        if grant is None:
            self._send(None)
        else:
            self.wait(grant, self._send)

    def _send(self, _grant) -> None:
        self._transfer(
            self.primary, self.osd, self.layout.chunk_stored_bytes, self._sent
        )

    def _sent(self, transfer: Event) -> None:
        if not transfer._ok:
            self._lost(transfer._value)
            return
        try:
            disk_write = self.osd.write_chunk(self.layout.chunk_stored_bytes)
        except DiskFailedError as exc:
            self._lost(exc)
            return
        self.wait(disk_write, self._done)

    def _undo(self) -> None:
        allocation = self.allocation
        if allocation is not None:
            layout = self.layout
            self.osd.remove_chunk(layout.chunk_stored_bytes, layout.units, allocation)
            self.client.cluster.ledger.debit_chunk(*allocation)
            self.allocs.pop(self.shard, None)


class _UnitIo(_ShardIo):
    """One stripe-unit read (disk, then transfer to the primary) or
    in-place write (transfer from the primary, then disk) for an RMW."""

    __slots__ = ("unit", "write")

    def __init__(self, client: RadosClient, pg: PlacementGroup, shard: int,
                 primary, unit: int, write: bool):
        super().__init__(client, pg, shard, primary)
        self.unit = unit
        self.write = write
        self.start(self._begin)

    def _begin(self, _arg) -> None:
        self.osd = osd = self.client.cluster.osds[self.pg.acting[self.shard]]
        if not osd.is_up():
            self._down("osd")
            return
        grant = self.client._admit(osd, self.unit, write=self.write)
        if grant is None:
            self._io(None)
        else:
            self.wait(grant, self._io)

    def _io(self, _grant) -> None:
        if self.write:
            self._transfer(self.primary, self.osd, self.unit, self._landed)
            return
        self._submit(write=False, step=self._ship)

    def _submit(self, write: bool, step) -> None:
        try:
            job = self.osd.disk.submit(1, self.unit, write=write)
        except DiskFailedError as exc:
            self._lost(exc)
            return
        self.wait(job, step)

    def _landed(self, transfer: Event) -> None:
        if transfer._ok:
            self._submit(write=True, step=self._done)
        else:
            self._lost(transfer._value)

    def _ship(self, _disk_read) -> None:
        self._transfer(self.osd, self.primary, self.unit, self._delivered)

    def _delivered(self, transfer: Event) -> None:
        if transfer._ok:
            self._done(transfer)
        else:
            self._lost(transfer._value)


class _Write(Chain):
    """One client write: the retry loop shared by full-stripe writes and
    RMWs.

    The write is *staged* on the PG log before any I/O and either
    commits exactly once (assigning the next PG version) or rolls back:
    allocations made for chunks that never existed are undone, and
    in-place pushes that landed before the abort are marked divergent
    so repair re-syncs them — the rollback rule that keeps an abandoned
    op from leaving a torn stripe.  Each step is placed where a process
    running the same loop would resume (see
    :class:`~repro.sim.engine.Chain`).
    """

    __slots__ = (
        "client", "name", "size", "data_shard", "issued_at", "pg", "obj",
        "layout", "kind", "landed", "allocs", "attempt", "primary", "up",
        "stale", "touched", "targets", "needs_decode",
    )

    def __init__(self, client: RadosClient, name: str, size: Optional[int],
                 data_shard: Optional[int]):
        super().__init__(client.cluster.env)
        self.client = client
        self.name = name
        self.size = size
        self.data_shard = data_shard
        self.start(self._begin)

    def _begin(self, _arg) -> None:
        pool = self.client.cluster.pool
        name, data_shard = self.name, self.data_shard
        self.issued_at = self.env._now
        self.pg = pg = pool.pg_of(name)
        log = pg.log
        if log is None:
            self.fail(RuntimeError("pool has no pg_log; writes are unsupported"))
            return
        self.obj = obj = next((o for o in pg.objects if o.name == name), None)
        if data_shard is not None:
            if obj is None:
                self.fail(ObjectNotFoundError(f"object {name!r} not in pool"))
                return
            if not 0 <= data_shard < pool.code.k:
                self.fail(ValueError(
                    f"data_shard must be in [0, {pool.code.k}), got {data_shard}"
                ))
                return
            self.layout = obj.layout
            self.kind = "rmw"
        elif obj is None:
            if self.size is None:
                self.fail(ValueError(f"size required to create object {name!r}"))
                return
            self.layout = pool.layout_for(self.size)
            self.kind = "create"
        else:
            self.layout = obj.layout
            self.size = obj.size
            self.kind = "full"
        log.stage()
        #: Shards persisted by this write (survives across attempts).
        self.landed: Set[int] = set()
        #: shard -> (allocated, metadata) for chunks this write brought
        #: into existence — the abort rollback set.
        self.allocs: Dict[int, Tuple[int, int]] = {}
        self.attempt = 0
        self._gate()

    def _gate(self, _arg=None) -> None:
        # Capacity backpressure: while any OSD is at the full ratio the
        # monitor pauses client writes cluster-wide.  The gate is None
        # when unpaused (no wait, no event perturbation), so runs that
        # never fill a device are byte-identical.
        gate = self.client.cluster.monitor.write_gate()
        if gate is not None:
            self.client.stats.writes_paused += 1
            self.wait(gate, self._attempt)
            return
        self._attempt(None)

    def _attempt(self, _gate) -> None:
        if self.kind == "rmw":
            self._rmw_attempt()
        else:
            self._full_write_attempt()

    def _choose_primary(self, candidates: List[int]) -> None:
        primary_shard = candidates[self.attempt % len(candidates)]
        if primary_shard != candidates[0]:
            self.client.stats.redirects += 1
        self.primary = self.client.cluster.osds[self.pg.acting[primary_shard]]

    def _cpu(self, nbytes: int, fragments: int, step) -> None:
        """Run an encode or decode of ``nbytes`` at the primary, then ``step``."""
        code = self.client.cluster.pool.code
        primary = self.primary
        self.wait(
            primary.cpu.request(coding_time(
                primary.config, nbytes=nbytes, work=1.0, fragments=fragments,
                cpu_cost_factor=code.cpu_cost_factor,
            )),
            step,
        )

    # -- full-stripe write ----------------------------------------------------------

    def _full_write_attempt(self) -> None:
        """Encode the stripe at the primary and push every reachable shard.

        A stale shard *is* a valid target — the full overwrite refreshes
        it.  Fails (retryably) only when more shards would end up without
        the write than the code's *guaranteed* fault tolerance (``m``
        for RS/Clay, ``r + 1`` for LRC, 1 for SHEC) — acking beyond that
        could leave an object the recovery path cannot promise to heal.
        """
        cluster = self.client.cluster
        code = cluster.pool.code
        osds, acting, landed = cluster.osds, self.pg.acting, self.landed
        self.up = up = [shard for shard in range(code.n) if osds[acting[shard]].is_up()]
        if not up:
            self._lost("no shards up")
            return
        missing_now = [s for s in range(code.n) if s not in landed and s not in up]
        if len(missing_now) > code.fault_tolerance():
            self._lost(f"only {len(up)} shards up")
            return
        self._choose_primary(up)
        self.sleep(self.client.request_overhead, self._encode)

    def _encode(self, _arg) -> None:
        code = self.client.cluster.pool.code
        layout = self.layout
        self._cpu(
            layout.chunk_stored_bytes * code.m,
            layout.units * code.sub_chunk_count * code.m,
            self._push,
        )

    def _push(self, _encode) -> None:
        landed = self.landed
        create = self.kind == "create"
        self.wait(
            self.env.all_of([
                _Push(self.client, self.pg, shard, self.primary, self.layout,
                      self.name, create, self.allocs)
                for shard in self.up
                if shard not in landed
            ]),
            self._pushed,
        )

    def _pushed(self, pushes: Event) -> None:
        if not pushes._ok:
            self.fail(pushes._value)
            return
        code = self.client.cluster.pool.code
        results = pushes._value
        landed = self.landed
        for result in results:
            if result.ok:
                landed.add(result.shard)
        still_missing = [s for s in range(code.n) if s not in landed]
        if len(still_missing) > code.fault_tolerance():
            bad = [r for r in results if not r.ok]
            self._lost(bad[0].reason if bad else "too many shards missing")
            return
        self._commit()

    # -- read-modify-write ---------------------------------------------------------

    def _rmw_attempt(self) -> None:
        """Read-modify-write one stripe unit: read, re-encode, push deltas.

        Sources and targets are restricted to clean (up, non-stale)
        shards — a partial write landing on stale content would tear the
        stripe.  The preferred read set is the old data unit plus the
        parities (the classic RMW); when any of those is unavailable the
        old unit is reconstructed from ``k`` clean shards instead.
        """
        cluster = self.client.cluster
        code = cluster.pool.code
        osds, acting, landed = cluster.osds, self.pg.acting, self.landed
        self.stale = stale = self.pg.log.stale_shards(self.obj.name)
        self.up = clean_up = [
            shard for shard in range(code.n)
            if shard not in stale and osds[acting[shard]].is_up()
        ]
        if len(clean_up) < code.k:
            self._lost(f"only {len(clean_up)} clean shards up")
            return
        self.touched = touched = [self.data_shard, *range(code.k, code.n)]
        self.targets = targets = [
            s for s in touched if s not in landed and s in clean_up
        ]
        prospective = stale | {
            s for s in touched if s not in landed and s not in targets
        }
        if len(prospective) > code.fault_tolerance():
            self._lost("write would exceed parity tolerance")
            return
        self._choose_primary(clean_up)
        self.sleep(self.client.request_overhead, self._rmw_read)

    def _rmw_read(self, _arg) -> None:
        clean_up, touched = self.up, self.touched
        if all(s in clean_up for s in touched):
            sources, self.needs_decode = list(touched), False
        else:
            sources = clean_up[: self.client.cluster.pool.code.k]
            self.needs_decode = True
        unit = self.layout.stripe_unit
        self.wait(
            self.env.all_of([
                _UnitIo(self.client, self.pg, s, self.primary, unit, write=False)
                for s in sources
            ]),
            self._rmw_fetched,
        )

    def _rmw_fetched(self, fetches: Event) -> None:
        if not fetches._ok:
            self.fail(fetches._value)
            return
        for result in fetches._value:
            if not result.ok:
                self._lost(result.reason)
                return
        if self.needs_decode:
            code = self.client.cluster.pool.code
            self._cpu(self.layout.stripe_unit, code.sub_chunk_count, self._rmw_encode)
            return
        self._rmw_encode(None)

    def _rmw_encode(self, _decode) -> None:
        code = self.client.cluster.pool.code
        self._cpu(
            self.layout.stripe_unit * code.m, code.sub_chunk_count * code.m,
            self._rmw_push,
        )

    def _rmw_push(self, _encode) -> None:
        unit = self.layout.stripe_unit
        self.wait(
            self.env.all_of([
                _UnitIo(self.client, self.pg, s, self.primary, unit, write=True)
                for s in self.targets
            ]),
            self._rmw_pushed,
        )

    def _rmw_pushed(self, pushes: Event) -> None:
        if not pushes._ok:
            self.fail(pushes._value)
            return
        code = self.client.cluster.pool.code
        results = pushes._value
        landed = self.landed
        for result in results:
            if result.ok:
                landed.add(result.shard)
        still_missing = {s for s in self.touched if s not in landed}
        if len(self.stale | still_missing) > code.fault_tolerance():
            bad = [r for r in results if not r.ok]
            self._lost(bad[0].reason if bad else "too many shards missing")
            return
        self._commit()

    # -- outcome ----------------------------------------------------------------------

    def _commit(self) -> None:
        client = self.client
        sample = client._commit_write(
            self.pg, self.name, self.kind, self.size, self.layout,
            self.data_shard, self.landed, self.allocs, self.issued_at,
            self.attempt + 1,
        )
        client.stats.writes_ok += 1
        self.succeed(sample)

    def _lost(self, reason: str) -> None:
        """The attempt failed: back off and retry, or abort the write."""
        client = self.client
        config = client.cluster.config
        self.attempt += 1
        if self.attempt > config.client_write_retry_max:
            client._abort_write(
                self.pg, self.name, self.kind, self.layout, self.landed, self.allocs
            )
            client.stats.writes_failed += 1
            self.fail(WriteFailedError(
                f"object {self.name!r}: {reason} "
                f"(gave up after {self.attempt} attempts)"
            ))
            return
        client.stats.write_retries += 1
        self.sleep(
            retry_backoff(self.attempt, config.client_retry_base, client._retry_rng),
            self._gate,
        )



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
        """Start issuing ops for ``duration`` simulated seconds.

        The returned event fires once the window has closed and every op
        issued in it has finished.  Ops that exhaust their retry budget
        (:class:`ReadFailedError`, :class:`WriteFailedError`) are counted
        in the stats' ``failures``; any other op failure fails the event
        with that op's exception, and an empty pool fails it with
        ``RuntimeError``.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        return _Run(self, duration)

    def _object_names(self) -> List[str]:
        return [
            obj.name
            for pg in self.client.cluster.pool.pgs.values()
            for obj in pg.objects
        ]


class _Run(Chain):
    """A load generator's arrival loop: draw an op, start it, sleep the
    gap, until the window closes; then wait for every op started."""

    __slots__ = ("gen", "duration", "names", "deadline", "pending")

    def __init__(self, gen: ClientLoadGenerator, duration: float):
        super().__init__(gen.client.cluster.env)
        self.gen = gen
        self.duration = duration
        self.start(self._begin)

    def _begin(self, _arg) -> None:
        self.names = self.gen._object_names()
        if not self.names:
            self.fail(RuntimeError("pool holds no objects to read"))
            return
        self.deadline = self.env._now + self.duration
        self.pending: List[_Op] = []
        self._issue(None)

    def _issue(self, _arg) -> None:
        if self.env._now < self.deadline:
            gen = self.gen
            rng = gen.rng
            name = rng.choice(self.names)
            if gen.write_fraction > 0.0 and rng.random() < gen.write_fraction:
                if gen.rmw_fraction > 0.0 and rng.random() < gen.rmw_fraction:
                    shard = rng.randrange(gen.client.cluster.pool.code.k)
                    op = _Op(gen, "rmw", name, shard)
                else:
                    op = _Op(gen, "write", name)
            else:
                op = _Op(gen, "read", name)
            self.pending.append(op)
            if gen.arrival == "poisson":
                self.sleep(rng.expovariate(1.0 / gen.interval), self._issue)
            else:
                self.sleep(gen.interval, self._issue)
            return
        if self.pending:
            self.wait(self.env.all_of(self.pending), self._drained)
        else:
            self.succeed()

    def _drained(self, ops: Event) -> None:
        if ops._ok:
            self.succeed()
        else:
            self.fail(ops._value)


class _Op(Chain):
    """One load-generator op: issue it through the client, then record
    its sample, or count its failure once its retry budget ran out."""

    __slots__ = ("gen", "kind", "name", "shard")

    def __init__(self, gen: ClientLoadGenerator, kind: str, name: str,
                 shard: int = 0):
        super().__init__(gen.client.cluster.env)
        self.gen = gen
        self.kind = kind
        self.name = name
        self.shard = shard
        self.start(self._issue)

    def _issue(self, _arg) -> None:
        client = self.gen.client
        if self.kind == "read":
            op = client.read_object(self.name)
        elif self.kind == "write":
            op = client.write_object(self.name)
        else:
            op = client.write_stripe_unit(self.name, data_shard=self.shard)
        self.wait(op, self._done)

    def _done(self, op: Event) -> None:
        gen = self.gen
        if self.kind == "read":
            stats, budget_spent = gen.stats, ReadFailedError
        else:
            stats, budget_spent = gen.write_stats, WriteFailedError
        if op._ok:
            stats.add(op._value)
        elif isinstance(op._value, budget_spent):
            stats.failures += 1
        else:
            self.fail(op._value)
            return
        self.succeed()
