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

from typing import Any, Callable, Generator, Optional

from repro.cluster.devices import DiskFailedError
from repro.cluster.network import (
    Fabric,
    NetworkPartitionedError,
    Nic,
    TransferDroppedError,
)
from repro.cluster.osd import OsdDaemon, resolve_subchunk_read
from repro.geo.wan import WanFabric
from repro.sim import Environment, Event, Resource


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
