"""Storage device performance and capacity model.

Disks are modelled as FIFO service centers fed by *aggregate* I/O
requests: an (operation count, byte count) pair whose service time is the
max of the IOPS-limited and bandwidth-limited completion times plus a
fixed submission latency.  Aggregation keeps the discrete-event simulation
tractable at paper scale (millions of 4 KB extents) while preserving the
two regimes that drive Figure 2c: small stripe units are IOPS-bound,
large ones bandwidth-bound.

The default spec approximates the paper's testbed volumes (AWS General
Purpose SSD attached to m5.xlarge hosts).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim import Environment, Event, ServiceCenter

__all__ = ["DiskSpec", "GP_SSD", "Disk", "DiskFailedError"]


@dataclass(frozen=True)
class DiskSpec:
    """Static performance/capacity envelope of one device."""

    name: str
    capacity_bytes: int
    read_bandwidth: float  # bytes/second, sequential
    write_bandwidth: float  # bytes/second, sequential
    read_iops: float
    write_iops: float
    latency: float  # seconds, per aggregate request submission

    def __post_init__(self):
        if self.capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        for attr in ("read_bandwidth", "write_bandwidth", "read_iops", "write_iops"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive")

    def service_time(self, ops: int, nbytes: float, write: bool) -> float:
        """Completion time of an aggregate request on an idle, healthy device.

        The submission latency plus the slower of the bandwidth-bound and
        the IOPS-bound transfer.  :class:`Disk` scales it by its slow
        factor; the analytical twin evaluates it as is.
        """
        if ops < 1:
            raise ValueError(f"ops must be >= 1, got {ops}")
        if nbytes < 0:
            raise ValueError("negative byte count")
        bandwidth = self.write_bandwidth if write else self.read_bandwidth
        iops = self.write_iops if write else self.read_iops
        return self.latency + max(nbytes / bandwidth, ops / iops)


#: The paper's 100 GB General Purpose SSD (NVMe) volumes: gp-class volumes
#: deliver ~250 MB/s streaming and ~3000 IOPS with sub-millisecond latency.
GP_SSD = DiskSpec(
    name="gp-ssd-100g",
    capacity_bytes=100 * 1024**3,
    read_bandwidth=250e6,
    write_bandwidth=220e6,
    read_iops=3000.0,
    write_iops=3000.0,
    latency=0.0006,
)

#: A nearline HDD for the Table-1 ``device class = hdd`` option: similar
#: streaming bandwidth but two orders of magnitude fewer IOPS and
#: millisecond seeks — the class where small-I/O recovery patterns hurt.
NEARLINE_HDD = DiskSpec(
    name="nearline-hdd-4t",
    capacity_bytes=4 * 1024**4,
    read_bandwidth=180e6,
    write_bandwidth=160e6,
    read_iops=180.0,
    write_iops=160.0,
    latency=0.008,
)


class DiskFailedError(RuntimeError):
    """I/O submitted to a failed (removed) device."""


class Disk:
    """A live disk: a service center plus usage/failure state.

    ``used_bytes`` tracks allocations (data + padding + metadata) for the
    write-amplification measurements; ``written_bytes``/``read_bytes``
    accumulate I/O volume for the iostat-style collectors.
    """

    def __init__(self, env: Environment, spec: DiskSpec, name: str = "",
                 queue_depth: int = 4):
        self.env = env
        self.spec = spec
        self.name = name or spec.name
        self.center = ServiceCenter(env, servers=queue_depth, name=self.name)
        self.failed = False
        #: Gray-failure state: a limping disk serves every request xN
        #: slower than its spec without ever failing I/O (slow_device
        #: fault level).  1.0 means healthy.
        self.slow_factor = 1.0
        self.used_bytes = 0
        self.read_bytes = 0
        self.written_bytes = 0
        self.read_ops = 0
        self.write_ops = 0

    def set_slow_factor(self, factor: float) -> None:
        """Inflate (or restore, factor=1.0) this disk's service times."""
        if factor < 1.0:
            raise ValueError(f"slow factor must be >= 1.0, got {factor}")
        self.slow_factor = factor

    def service_time(self, ops: int, nbytes: int, write: bool) -> float:
        """Completion time of an aggregate request on this idle device."""
        return self.spec.service_time(ops, nbytes, write) * self.slow_factor

    def submit(self, ops: int, nbytes: int, write: bool) -> Event:
        """Queue an aggregate I/O; the event fires on completion."""
        if self.failed:
            raise DiskFailedError(f"I/O to failed disk {self.name}")
        if write:
            self.write_ops += ops
            self.written_bytes += nbytes
        else:
            self.read_ops += ops
            self.read_bytes += nbytes
        return self.center.request(self.service_time(ops, nbytes, write))

    @property
    def usage_ratio(self) -> float:
        """Fraction of capacity allocated — the backpressure input.

        The nearfull/backfillfull/full thresholds in
        :class:`~repro.cluster.osd.CephConfig` are compared against this
        ratio by the monitor and by recovery's backfill target selection.
        """
        return self.used_bytes / self.spec.capacity_bytes

    def headroom_bytes(self) -> int:
        """Unallocated capacity left on the device."""
        return self.spec.capacity_bytes - self.used_bytes

    def allocate(self, nbytes: int) -> None:
        """Account ``nbytes`` of durable allocation (WA measurement)."""
        if nbytes < 0:
            raise ValueError("negative allocation")
        if self.used_bytes + nbytes > self.spec.capacity_bytes:
            raise RuntimeError(
                f"disk {self.name} full: {self.used_bytes + nbytes} "
                f"> {self.spec.capacity_bytes}"
            )
        self.used_bytes += nbytes

    def free(self, nbytes: int) -> None:
        """Release a durable allocation."""
        if nbytes < 0 or nbytes > self.used_bytes:
            raise ValueError(f"invalid free of {nbytes} (used {self.used_bytes})")
        self.used_bytes -= nbytes

    def fail(self) -> None:
        """Mark the device failed; subsequent I/O raises DiskFailedError."""
        self.failed = True

    def restore(self) -> None:
        self.failed = False
