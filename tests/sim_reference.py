"""Process-based designs the kernel replaced, kept as differential references.

``ServiceCenter`` used to run every job as a kernel process: acquire a
server slot, hold it for a timeout, release it.  Heartbeats, monitor
ticks and iostat sampling each used to run as a generator loop that
sleeps a fixed period between calls.  A fabric transfer (LAN and WAN)
and a recovery helper pull each used to run as a process too.  The
closed-form center in :mod:`repro.sim.resources`,
:meth:`Environment.every` and the transfer and pull chains must
reproduce those designs' event order exactly, same-instant ties
included, so the tests keep copies of them to compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Set, Tuple

from repro.cluster.client import (
    ClientLoadGenerator,
    RadosClient,
    ReadFailedError,
    ReadSample,
    WriteFailedError,
    _ShardResult,
)
from repro.cluster.devices import DiskFailedError
from repro.cluster.network import (
    Fabric,
    NetworkPartitionedError,
    Nic,
    TransferDroppedError,
)
from repro.cluster.osd import (
    OsdDaemon,
    coding_time,
    resolve_subchunk_read,
    sequential_ops,
)
from repro.cluster.pool import PlacementGroup, StoredObject
from repro.cluster.retry import retry_backoff
from repro.geo.wan import WanFabric
from repro.sim import Environment, Event, Resource
from repro.tenancy.mclock import QosClass, QosClassStats, _ClassState


class ProcessServiceCenter:
    """A FIFO service center that spawns one process per job."""

    def __init__(self, env: Environment, servers: int = 1, name: str = ""):
        self.env = env
        self.name = name
        self._slots = Resource(env, servers)
        self.busy_time = 0.0
        self.jobs_served = 0

    @property
    def queue_length(self) -> int:
        return self._slots.queue_length

    def request(self, service_time: float) -> Event:
        if service_time < 0:
            raise ValueError(f"negative service time: {service_time!r}")
        return self.env.process(self._serve(service_time))

    def _serve(self, service_time: float) -> Generator:
        yield self._slots.acquire()
        try:
            yield self.env.timeout(service_time)
        finally:
            self._slots.release()
        self.busy_time += service_time
        self.jobs_served += 1


def periodic_loop(
    env: Environment,
    period: float,
    fn: Callable[[Any], None],
    arg: Any = None,
    delay: Optional[float] = None,
) -> Generator:
    """The generator loop ``Environment.every`` replaces; run it as a process."""
    if delay is None:
        delay = period
    if delay > 0:
        yield env.timeout(delay)
    while True:
        fn(arg)
        yield env.timeout(period)


def process_transfer(fabric: Fabric, src: Nic, dst: Nic, nbytes: int) -> Event:
    """``Fabric.transfer`` as a process per transfer, LAN and WAN alike."""
    fabric.transfers += 1
    run = wan_run if isinstance(fabric, WanFabric) else lan_run
    return fabric.env.process(run(fabric, src, dst, nbytes))


def lan_run(fabric: Fabric, src: Nic, dst: Nic, nbytes: int) -> Generator:
    if src is dst:
        # Loopback: no NIC time, a token cost for the software path.
        yield fabric.env.timeout(src.spec.message_overhead)
        return
    yield from charge_endpoints(fabric, src, dst, nbytes)


def charge_endpoints(
    fabric: Fabric, src: Nic, dst: Nic, nbytes: int, wan_latency: float = 0.0
) -> Generator:
    """Partition check, sender egress, propagation, loss lottery,
    receiver ingress: the one-hop sequence every non-loopback transfer
    pays."""
    if src.partitioned or dst.partitioned:
        fabric.partition_refusals += 1
        yield fabric.env.timeout(src.spec.latency)
        raise NetworkPartitionedError(
            f"transfer {src.name} -> {dst.name} crossed a partition"
        )
    loss = 0.0
    extra_latency = 0.0
    for nic in (src, dst):
        if nic.degradation is not None:
            loss = 1.0 - (1.0 - loss) * (1.0 - nic.degradation.loss)
            extra_latency += nic.degradation.latency
    src.sent_bytes += nbytes
    yield src.egress.request(src.wire_time(nbytes))
    yield fabric.env.timeout(src.spec.latency + extra_latency + wan_latency)
    if loss > 0.0 and fabric.rng.random() < loss:
        fabric.drops += 1
        raise TransferDroppedError(
            f"transfer {src.name} -> {dst.name} dropped "
            f"(loss={loss:.3f})"
        )
    dst.received_bytes += nbytes
    yield dst.ingress.request(dst.wire_time(nbytes))


def wan_run(fabric: WanFabric, src: Nic, dst: Nic, nbytes: int) -> Generator:
    if src is dst:
        yield fabric.env.timeout(src.spec.message_overhead)
        return
    src_region = fabric.region_of_nic(src)
    dst_region = fabric.region_of_nic(dst)
    if src_region == dst_region:
        yield from charge_endpoints(fabric, src, dst, nbytes)
        return
    up = fabric.uplinks[src_region]
    down = fabric.uplinks[dst_region]
    if up.partitioned or down.partitioned:
        fabric.wan_partition_refusals += 1
        yield fabric.env.timeout(src.spec.latency + fabric.spec.latency)
        raise NetworkPartitionedError(
            f"transfer {src.name} -> {dst.name} crossed a severed "
            f"WAN uplink (regions {src_region} -> {dst_region})"
        )
    yield from charge_endpoints(
        fabric, src, dst, nbytes, wan_latency=fabric.spec.latency
    )
    up.egress_bytes += nbytes
    yield up.egress.request(up.egress_time(nbytes))
    down.ingress_bytes += nbytes
    yield down.ingress.request(down.ingress_time(nbytes))
    fabric.ledger.charge(src_region, nbytes)
    fabric.cross_region_transfers += 1
    fabric.cross_region_bytes += nbytes


def process_pull(
    manager, read, old_acting, primary: OsdDaemon, layout, delta: bool
) -> Event:
    """A recovery helper pull as a process per pull."""
    return manager.env.process(
        pull_shard(manager, read, old_acting, primary, layout, delta)
    )


def pull_shard(
    manager, read, old_acting, primary: OsdDaemon, layout, delta: bool
) -> Generator:
    """Read one helper shard and ship it to the primary; never fails:
    a down source, a failed disk or a lost transfer returns False."""
    source = manager.osds[old_acting[read.chunk_index]]
    try:
        if not source.is_up():
            return False
        if read.fraction >= 1.0:
            nbytes = layout.chunk_stored_bytes
            yield source.recovery_read_grant(nbytes)
            yield source.read_chunk(nbytes)
        else:
            nbytes = int(layout.chunk_stored_bytes * read.fraction)
            profile = resolve_subchunk_read(
                source.config, layout.units, layout.stripe_unit,
                read.fraction, read.io_ops,
            )
            yield source.recovery_read_grant(
                profile.disk_bytes, runs=profile.scatter_runs
            )
            yield source.read_subchunks(profile)
            ranges = layout.units * read.io_ops
            yield source.cpu.request(
                ranges * manager.config.subchunk_range_overhead
            )
        if delta:
            manager.stats.delta_bytes_read += nbytes
        else:
            manager.stats.bytes_read += nbytes
        yield manager.topology.fabric.transfer(
            manager.topology.nic_of(source.osd_id),
            manager.topology.nic_of(primary.osd_id),
            nbytes,
        )
        if manager.topology.wan is not None and manager.topology.region_of(
            source.osd_id
        ) != manager.topology.region_of(primary.osd_id):
            manager.stats.cross_region_bytes_read += nbytes
            manager.stats.cross_region_pulls += 1
    except (TransferDroppedError, DiskFailedError):
        return False
    return True


@dataclass
class _QueuedJob:
    """One queued request of :class:`ProcessMClockScheduler`."""

    cost: float
    arrived: float
    seqno: int
    r_tag: float
    l_tag: float
    p_tag: float
    done: Event


class ProcessMClockScheduler:
    """``MClockScheduler`` with its dispatcher as a kernel process."""

    def __init__(self, env: Environment, classes: Tuple[QosClass, ...] = (),
                 name: str = "", client_rate: float = 100e6):
        if client_rate <= 0:
            raise ValueError("client_rate must be positive")
        self.env = env
        self.name = name
        self.client_rate = client_rate
        self._classes: Dict[str, _ClassState] = {}
        for spec in classes:
            if spec.name in self._classes:
                raise ValueError(f"duplicate QoS class {spec.name!r}")
            self._classes[spec.name] = _ClassState(spec=spec)
        self._seqno = 0
        self._arrival: Optional[Event] = None
        self._dispatcher = env.process(self._dispatch())

    @property
    def classes(self) -> Dict[str, QosClassStats]:
        return {name: state.stats for name, state in sorted(self._classes.items())}

    @property
    def pending(self) -> int:
        return sum(len(state.queue) for state in self._classes.values())

    def client_cost(self, nbytes: int) -> float:
        return nbytes / self.client_rate

    def submit(self, class_name: str, service_time: float) -> Event:
        if service_time < 0:
            raise ValueError(f"negative service time: {service_time!r}")
        state = self._classes.get(class_name)
        if state is None:
            state = _ClassState(spec=QosClass(name=class_name))
            self._classes[class_name] = state
        now = self.env.now
        spec = state.spec
        r_tag = (
            max(now, state.r_tag + service_time / spec.reservation)
            if spec.reservation > 0
            else math.inf
        )
        l_tag = (
            max(now, state.l_tag + service_time / spec.limit)
            if spec.limit > 0
            else -math.inf
        )
        p_tag = max(now, state.p_tag + service_time / spec.weight)
        if spec.reservation > 0:
            state.r_tag = r_tag
        if spec.limit > 0:
            state.l_tag = l_tag
        state.p_tag = p_tag
        job = _QueuedJob(
            cost=service_time, arrived=now, seqno=self._seqno, r_tag=r_tag,
            l_tag=l_tag, p_tag=p_tag, done=self.env.event(),
        )
        self._seqno += 1
        state.queue.append(job)
        state.stats.enqueued += 1
        if self._arrival is not None and not self._arrival.triggered:
            self._arrival.succeed()
        return job.done

    def _pick(self, now: float):
        best_r = None  # (r_tag, name, seqno, state, job)
        best_p = None  # (p_tag, name, seqno, state, job)
        wake_at = None
        for name in sorted(self._classes):
            state = self._classes[name]
            if not state.queue:
                continue
            job = state.queue[0]
            if job.r_tag <= now:
                key = (job.r_tag, name, job.seqno)
                if best_r is None or key < best_r[:3]:
                    best_r = (*key, state, job)
            if job.l_tag <= now:
                key = (job.p_tag, name, job.seqno)
                if best_p is None or key < best_p[:3]:
                    best_p = (*key, state, job)
            eligible_at = min(
                job.r_tag if math.isfinite(job.r_tag) else math.inf,
                job.l_tag if job.l_tag > now else now,
            )
            if math.isfinite(eligible_at):
                wake_at = eligible_at if wake_at is None else min(wake_at, eligible_at)
        if best_r is not None:
            return best_r[3], best_r[4], False, None
        if best_p is not None:
            return best_p[3], best_p[4], True, None
        return None, None, False, wake_at

    def _dispatch(self) -> Generator:
        while True:
            state, job, weight_phase, wake_at = self._pick(self.env.now)
            if job is None:
                self._arrival = self.env.event()
                if wake_at is None:
                    yield self._arrival
                else:
                    yield self.env.any_of(
                        [self._arrival, self.env.timeout(wake_at - self.env.now)]
                    )
                self._arrival = None
                continue
            state.queue.popleft()
            if weight_phase and state.spec.reservation > 0:
                credit = job.cost / state.spec.reservation
                for queued in state.queue:
                    queued.r_tag -= credit
                state.r_tag -= credit
            wait = self.env.now - job.arrived
            stats = state.stats
            stats.total_wait += wait
            stats.max_wait = max(stats.max_wait, wait)
            yield self.env.timeout(job.cost)
            stats.served += 1
            stats.busy_time += job.cost
            job.done.succeed()


# -- the client path as processes ------------------------------------------------


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


def process_read_object(client: RadosClient, object_name: str) -> Event:
    """``RadosClient.read_object`` as a process per read."""
    return client.cluster.env.process(read(client, object_name))


def process_write_object(
    client: RadosClient, object_name: str, size: Optional[int] = None
) -> Event:
    """``RadosClient.write_object`` as a process per write."""
    return client.cluster.env.process(
        write(client, object_name, size=size, data_shard=None)
    )


def process_write_stripe_unit(
    client: RadosClient, object_name: str, data_shard: int = 0
) -> Event:
    """``RadosClient.write_stripe_unit`` as a process per write."""
    return client.cluster.env.process(
        write(client, object_name, size=None, data_shard=data_shard)
    )


def process_run_for(gen: ClientLoadGenerator, duration: float) -> Event:
    """``ClientLoadGenerator.run_for`` as a process, with a process per op."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    return gen.client.cluster.env.process(run(gen, duration))


def read(client, object_name: str) -> Generator:
    """Retry loop around read attempts (timeouts, drops, flaps)."""
    env = client.cluster.env
    config = client.cluster.config
    issued_at = env.now
    pg, obj = client._lookup(object_name)
    attempt = 0
    while True:
        result = yield from read_attempt(client, pg, obj, attempt)
        if result.ok:
            client.stats.reads_ok += 1
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
            client.stats.reads_failed += 1
            raise ReadFailedError(
                f"object {object_name!r}: {result.reason} "
                f"(gave up after {attempt} attempts)"
            )
        client.stats.retries += 1
        yield env.timeout(
            retry_backoff(attempt, config.client_retry_base, client._retry_rng)
        )


def read_attempt(client, pg: PlacementGroup, obj, attempt: int = 0) -> Generator:
    env = client.cluster.env
    config = client.cluster.config
    code = client.cluster.pool.code
    layout = obj.layout

    data_shards = list(range(code.k))
    # Stale shards (missed a write while briefly down) hold old
    # content: they never serve reads, exactly like down shards.
    stale = pg.log.stale_shards(obj.name) if pg.log is not None else set()
    up = [
        shard
        for shard in range(code.n)
        if shard not in stale
        and client.cluster.osds[pg.acting[shard]].is_up()
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
        client.stats.redirects += 1
    primary = client.cluster.osds[pg.acting[primary_shard]]
    yield env.timeout(client.request_overhead)
    fetches = [
        env.process(
            fetch_with_hedge(client, pg, shard, primary, layout, spares)
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
            client.stats.timeouts += 1
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
    byz = client.cluster.byzantine
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


def fetch_with_hedge(
    client, pg: PlacementGroup, shard: int, primary, layout, spares: List[int]
) -> Generator:
    """One shard fetch, re-issued to a spare survivor if it straggles.

    The loser of the race is *abandoned*, not interrupted: it keeps
    draining its disk and NIC time (the true cost of hedging) but its
    result is discarded and its bytes counted as hedge waste.
    """
    env = client.cluster.env
    hedge_delay = client.cluster.config.client_hedge_delay
    proc = env.process(guarded_fetch(client, pg, shard, primary, layout))
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
    client.stats.hedges_issued += 1
    hedge = env.process(guarded_fetch(client, pg, spare, primary, layout))
    first = yield env.any_of([proc, hedge])
    if first.ok:
        winner = first
    else:
        # First arrival failed (drop); fall back to the other copy.
        other = hedge if proc.triggered else proc
        winner = yield other
    # Exactly one copy serves the read; the duplicate's bytes are
    # waste whether it already landed or is still in flight.
    client.stats.hedge_wasted_bytes += layout.chunk_stored_bytes
    if winner.ok and winner.shard == spare:
        client.stats.hedges_won += 1
    return winner


def guarded_fetch(client, pg: PlacementGroup, shard: int, primary, layout) -> Generator:
    """Fetch one shard; never fails the process (returns a result).

    Every failure mode — source down (flap), failed disk, dropped or
    partitioned transfer — is caught here and reported by value, so
    abandoned fetches can safely drain without a waiter.
    """
    source = client.cluster.osds[pg.acting[shard]]
    nbytes = layout.chunk_stored_bytes
    try:
        if not source.is_up():
            return _ShardResult(
                ok=False, shard=shard,
                reason=f"shard {shard} source {source.name} is down",
            )
        grant = client._admit(source, nbytes, write=False)
        if grant is not None:
            yield grant
        yield source.disk.submit(
            sequential_ops(source.config, nbytes), nbytes, write=False
        )
        yield client.cluster.topology.fabric.transfer(
            client.cluster.topology.nic_of(source.osd_id),
            client.cluster.topology.nic_of(primary.osd_id),
            nbytes,
        )
    except TransferDroppedError as exc:
        client.stats.drops_seen += 1
        return _ShardResult(ok=False, shard=shard, reason=str(exc))
    except DiskFailedError as exc:
        return _ShardResult(ok=False, shard=shard, reason=str(exc))
    return _ShardResult(ok=True, shard=shard)

# -- write path -------------------------------------------------------------


def write(
    client, object_name: str, size: Optional[int], data_shard: Optional[int]
) -> Generator:
    """Retry loop shared by full-stripe writes and RMWs.

    The write is *staged* on the PG log before any I/O and either
    commits exactly once (assigning the next PG version) or rolls
    back: allocations made for chunks that never existed are undone,
    and in-place pushes that landed before the abort are marked
    divergent so repair re-syncs them — the rollback rule that keeps
    an abandoned op from leaving a torn stripe.
    """
    env = client.cluster.env
    config = client.cluster.config
    pool = client.cluster.pool
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
        gate = client.cluster.monitor.write_gate()
        if gate is not None:
            client.stats.writes_paused += 1
            yield gate
        if rmw:
            result = yield from rmw_attempt(client, 
                pg, obj, data_shard, landed, attempt
            )
        else:
            result = yield from full_write_attempt(client, 
                pg, object_name, layout, kind == "create",
                landed, allocs, attempt,
            )
        if result.ok:
            sample = client._commit_write(
                pg, object_name, kind, size, layout,
                data_shard, landed, allocs, issued_at, attempt + 1,
            )
            client.stats.writes_ok += 1
            return sample
        attempt += 1
        if attempt > config.client_write_retry_max:
            client._abort_write(pg, object_name, kind, layout, landed, allocs)
            client.stats.writes_failed += 1
            raise WriteFailedError(
                f"object {object_name!r}: {result.reason} "
                f"(gave up after {attempt} attempts)"
            )
        client.stats.write_retries += 1
        yield env.timeout(
            retry_backoff(attempt, config.client_retry_base, client._retry_rng)
        )


def full_write_attempt(
    client,
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
    env = client.cluster.env
    code = client.cluster.pool.code
    up = [
        shard for shard in range(code.n)
        if client.cluster.osds[pg.acting[shard]].is_up()
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
        client.stats.redirects += 1
    primary = client.cluster.osds[pg.acting[primary_shard]]
    yield env.timeout(client.request_overhead)
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
            guarded_push(client, 
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


def rmw_attempt(
    client,
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
    env = client.cluster.env
    code = client.cluster.pool.code
    log = pg.log
    layout = obj.layout
    unit = layout.stripe_unit
    stale = log.stale_shards(obj.name)
    clean_up = [
        shard for shard in range(code.n)
        if shard not in stale
        and client.cluster.osds[pg.acting[shard]].is_up()
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
        client.stats.redirects += 1
    primary = client.cluster.osds[pg.acting[primary_shard]]
    yield env.timeout(client.request_overhead)
    if all(s in clean_up for s in touched):
        sources, needs_decode = list(touched), False
    else:
        sources, needs_decode = clean_up[: code.k], True
    fetches = [
        env.process(guarded_unit_io(client, pg, s, primary, unit, write=False))
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
        env.process(guarded_unit_io(client, pg, s, primary, unit, write=True))
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


def guarded_push(
    client,
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
    target = client.cluster.osds[pg.acting[shard]]
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
        integrity = client.cluster.integrity
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
        client.cluster.ledger.credit_chunk(allocated, metadata)
        allocs[shard] = allocation
    try:
        grant = client._admit(target, nbytes, write=True)
        if grant is not None:
            yield grant
        yield client.cluster.topology.fabric.transfer(
            client.cluster.topology.nic_of(primary.osd_id),
            client.cluster.topology.nic_of(target.osd_id),
            nbytes,
        )
        yield target.write_chunk(nbytes)
    except (TransferDroppedError, DiskFailedError) as exc:
        if isinstance(exc, TransferDroppedError):
            client.stats.drops_seen += 1
        if allocate:
            target.remove_chunk(nbytes, layout.units, allocation)
            client.cluster.ledger.debit_chunk(*allocation)
            allocs.pop(shard, None)
        return _ShardResult(ok=False, shard=shard, reason=str(exc))
    return _ShardResult(ok=True, shard=shard)


def guarded_unit_io(
    client, pg: PlacementGroup, shard: int, primary, unit: int, write: bool
) -> Generator:
    """One stripe-unit read or in-place write for an RMW; never fails."""
    osd = client.cluster.osds[pg.acting[shard]]
    try:
        if not osd.is_up():
            return _ShardResult(
                ok=False, shard=shard,
                reason=f"shard {shard} osd {osd.name} is down",
            )
        grant = client._admit(osd, unit, write=write)
        if grant is not None:
            yield grant
        if write:
            yield client.cluster.topology.fabric.transfer(
                client.cluster.topology.nic_of(primary.osd_id),
                client.cluster.topology.nic_of(osd.osd_id),
                unit,
            )
            yield osd.disk.submit(1, unit, write=True)
        else:
            yield osd.disk.submit(1, unit, write=False)
            yield client.cluster.topology.fabric.transfer(
                client.cluster.topology.nic_of(osd.osd_id),
                client.cluster.topology.nic_of(primary.osd_id),
                unit,
            )
    except TransferDroppedError as exc:
        client.stats.drops_seen += 1
        return _ShardResult(ok=False, shard=shard, reason=str(exc))
    except DiskFailedError as exc:
        return _ShardResult(ok=False, shard=shard, reason=str(exc))
    return _ShardResult(ok=True, shard=shard)


def run(gen, duration: float) -> Generator:
    env = gen.client.cluster.env
    names = gen._object_names()
    if not names:
        raise RuntimeError("pool holds no objects to read")
    deadline = env.now + duration
    pending = []
    while env.now < deadline:
        name = gen.rng.choice(names)
        if (
            gen.write_fraction > 0.0
            and gen.rng.random() < gen.write_fraction
        ):
            if (
                gen.rmw_fraction > 0.0
                and gen.rng.random() < gen.rmw_fraction
            ):
                shard = gen.rng.randrange(gen.client.cluster.pool.code.k)
                pending.append(env.process(one_rmw(gen, name, shard)))
            else:
                pending.append(env.process(one_write(gen, name)))
        else:
            pending.append(env.process(one_read(gen, name)))
        if gen.arrival == "poisson":
            yield env.timeout(gen.rng.expovariate(1.0 / gen.interval))
        else:
            yield env.timeout(gen.interval)
    if pending:
        yield env.all_of(pending)


def one_read(gen, name: str) -> Generator:
    try:
        sample = yield gen.client.read_object(name)
    except ReadFailedError:
        gen.stats.failures += 1
        return
    gen.stats.add(sample)


def one_write(gen, name: str) -> Generator:
    try:
        sample = yield gen.client.write_object(name)
    except WriteFailedError:
        gen.write_stats.failures += 1
        return
    gen.write_stats.add(sample)


def one_rmw(gen, name: str, shard: int) -> Generator:
    try:
        sample = yield gen.client.write_stripe_unit(name, data_shard=shard)
    except WriteFailedError:
        gen.write_stats.failures += 1
        return
    gen.write_stats.add(sample)
