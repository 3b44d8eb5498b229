"""OSD daemon model: chunk storage, liveness, and recovery throttles.

Each OSD binds a virtual NVMe device (see :mod:`repro.cluster.nvme`) to a
BlueStore backend and exposes the throttled I/O entry points the recovery
state machine uses.  Liveness is derived, not stored: an OSD is *up* iff
its host is running and its device still answers — exactly how the two
fault levels of the paper (node shutdown, device removal) become visible
to the cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..sim import Environment, Event, Resource, ServiceCenter
from .bluestore import BlueStore, CacheConfig
from .devices import Disk
from .topology import OsdDevice

__all__ = [
    "CephConfig",
    "OsdDaemon",
    "SubchunkReadProfile",
    "sequential_ops",
    "resolve_subchunk_read",
    "recovery_read_time",
    "recovery_write_time",
    "coding_time",
]


@dataclass(frozen=True)
class CephConfig:
    """The daemon/monitor tunables relevant to the paper's timeline.

    Defaults are Ceph Quincy defaults; ``mon_osd_down_out_interval`` (600 s)
    is the dominant term of the paper's System Checking Period.
    """

    osd_heartbeat_interval: float = 6.0
    osd_heartbeat_grace: float = 20.0
    mon_osd_down_out_interval: float = 600.0
    mon_tick_interval: float = 5.0
    osd_recovery_max_active: int = 3
    osd_max_backfills: int = 1
    osd_recovery_sleep: float = 0.0
    #: Peering cost: fixed per-PG latency plus a per-object census scan.
    peering_base: float = 0.5
    peering_per_object: float = 0.0015
    #: Recovery QoS: the share of device throughput the scheduler grants
    #: recovery I/O per OSD (Quincy's mClock profiles cap recovery well
    #: below raw device speed so client I/O keeps priority).
    recovery_read_rate: float = 40e6
    recovery_write_rate: float = 22e6
    #: Fixed messaging/commit cost per object recovery op (pull + push
    #: round trips through the op queue).
    recovery_op_overhead: float = 0.03
    #: CPU cost of one metadata (onode/extent) fetch that misses cache.
    metadata_op_cost: float = 0.0004
    #: Decode throughput of one OSD worker (bytes/second of output data)
    #: and the fixed CPU cost per (encoding unit x plane) fragment, which
    #: is what punishes sub-packetised codes at small stripe units.
    decode_bandwidth: float = 1.2e9
    decode_fragment_overhead: float = 90e-6
    #: Software cost per scattered sub-chunk range read on the OSD.
    subchunk_range_overhead: float = 4e-6
    #: Scheduler-side cost per contiguous sub-chunk run: scattered reads
    #: get a worse effective rate than sequential ones, which is why
    #: Clay's fractional reads do not translate 1:1 into time savings.
    recovery_range_cost: float = 0.006
    #: Disk transfer size for sequential recovery I/O.
    max_io_bytes: int = 131072
    #: Smallest disk read; sub-chunk reads below this are rounded up.
    min_io_bytes: int = 4096
    #: Per-OSD BlueStore cache (autotuned or ratio-split per profile).
    osd_cache_bytes: float = 2.5e9
    #: Flap dampening (Ceph's ``osd_max_markdown_*``): an OSD marked
    #: down more than ``count`` times within ``period`` seconds is
    #: *pinned* down for ``pin`` seconds — the monitor stops believing
    #: its heartbeats instead of thrashing osdmap epochs.
    mon_osd_markdown_count: int = 5
    mon_osd_markdown_period: float = 600.0
    mon_osd_markdown_pin: float = 120.0
    #: Client-side defenses: per-op timeout (0 disables), bounded
    #: exponential-backoff retries, and the hedge delay after which a
    #: straggling shard fetch is re-issued to another survivor
    #: (0 disables hedging).
    client_op_timeout: float = 0.0
    client_retry_max: int = 5
    client_retry_base: float = 0.25
    client_hedge_delay: float = 0.0
    #: Recovery-side retry budget for transient gray windows
    #: (dropped transfers, flapped helper sources).
    recovery_retry_max: int = 6
    recovery_retry_base: float = 0.5
    #: PG write log bound (Ceph's ``osd_min_pg_log_entries`` family):
    #: the log trims to ``osd_pg_log_max_entries`` but never past the
    #: oldest entry a stale shard still needs for delta recovery —
    #: unless it would exceed the hard limit, at which point the shard
    #: is marked backfill-required and delta falls back to backfill.
    osd_pg_log_max_entries: int = 3000
    osd_pg_log_hard_limit: int = 6000
    #: Client write retry budget (mirrors the read-side defenses; the
    #: write path shares client_op_timeout and client_retry_base).
    client_write_retry_max: int = 5
    #: Stretch clusters: steer repair reads toward helpers in the
    #: primary's region (and round-robin the rest across surviving
    #: hosts) whenever the code accepts the substitution at equal cost.
    #: No effect on single-region topologies.  Disable to measure the
    #: naive helper choice (the geo benchmark's baseline).
    recovery_locality_aware: bool = True
    #: Capacity backpressure thresholds (Ceph's ``mon_osd_*_ratio``
    #: family) on each OSD's allocated fraction: nearfull warns,
    #: backfillfull stops new backfill targets landing on the OSD, full
    #: pauses cluster-wide client writes until usage drops back below.
    mon_osd_nearfull_ratio: float = 0.85
    mon_osd_backfillfull_ratio: float = 0.90
    mon_osd_full_ratio: float = 0.95
    #: PG recovery servicing order: ``fifo`` keeps the historical
    #: pool-iteration order (byte-identical to the pre-cascade model);
    #: ``risk`` admits PGs through a priority queue ordered by
    #: redundancy margin (fewest surviving parity shards first), ties
    #: broken by bytes-at-risk, degraded-object count, then pg id.
    osd_recovery_priority: str = "fifo"
    #: Track per-PG time spent at minimum redundancy (margin zero — one
    #: more loss is data loss) into ``RecoveryStats``.  Off by default
    #: so pre-cascade digests stay byte-identical; cascade campaigns,
    #: the cascade CLI, and the cascade benchmark turn it on.
    osd_track_risk_exposure: bool = False

    def __post_init__(self):
        if self.osd_heartbeat_interval <= 0 or self.osd_heartbeat_grace <= 0:
            raise ValueError("heartbeat settings must be positive")
        if self.mon_osd_down_out_interval < 0:
            raise ValueError("down/out interval must be non-negative")
        if self.osd_recovery_max_active < 1 or self.osd_max_backfills < 1:
            raise ValueError("recovery throttles must be >= 1")
        if self.mon_osd_markdown_count < 1:
            raise ValueError("markdown count must be >= 1")
        if self.mon_osd_markdown_period <= 0 or self.mon_osd_markdown_pin <= 0:
            raise ValueError("markdown period/pin must be positive")
        if self.client_op_timeout < 0 or self.client_hedge_delay < 0:
            raise ValueError("client timeout/hedge delay must be non-negative")
        if self.client_retry_max < 0 or self.recovery_retry_max < 0:
            raise ValueError("retry budgets must be non-negative")
        if self.client_retry_base <= 0 or self.recovery_retry_base <= 0:
            raise ValueError("retry backoff bases must be positive")
        if self.osd_pg_log_max_entries < 1:
            raise ValueError("pg log max entries must be >= 1")
        if self.osd_pg_log_hard_limit < self.osd_pg_log_max_entries:
            raise ValueError("pg log hard limit must be >= max entries")
        if self.client_write_retry_max < 0:
            raise ValueError("retry budgets must be non-negative")
        if not (
            0.0
            < self.mon_osd_nearfull_ratio
            <= self.mon_osd_backfillfull_ratio
            <= self.mon_osd_full_ratio
            <= 1.0
        ):
            raise ValueError(
                "capacity ratios must satisfy "
                "0 < nearfull <= backfillfull <= full <= 1"
            )
        if self.osd_recovery_priority not in ("fifo", "risk"):
            raise ValueError(
                f"unknown recovery priority {self.osd_recovery_priority!r}"
            )

    def capacity_tier(self, usage_ratio: float) -> str:
        """The capacity tier of an OSD whose disk is ``usage_ratio`` full.

        One of ``ok``, ``nearfull``, ``backfillfull`` and ``full``: the
        highest ``mon_osd_*_ratio`` reached.  The ratios are ordered, so
        a ``full`` OSD is also past backfillfull.
        """
        if usage_ratio >= self.mon_osd_full_ratio:
            return "full"
        if usage_ratio >= self.mon_osd_backfillfull_ratio:
            return "backfillfull"
        if usage_ratio >= self.mon_osd_nearfull_ratio:
            return "nearfull"
        return "ok"


@dataclass(frozen=True)
class SubchunkReadProfile:
    """Resolved geometry of one fractional helper read.

    ``disk_bytes``/``disk_ops`` is what the device sees; ``scatter_runs``
    feeds the recovery scheduler's per-run penalty (zero when the read
    degenerated to sequential full extents).
    """

    disk_bytes: int
    disk_ops: int
    scatter_runs: int
    degenerate: bool


def sequential_ops(config: CephConfig, nbytes: int) -> int:
    """Disk operations for a sequential transfer of ``nbytes``."""
    return max(1, -(-nbytes // config.max_io_bytes))


def resolve_subchunk_read(
    config: CephConfig,
    units: int,
    unit_bytes: int,
    fraction: float,
    runs_per_unit: int,
) -> SubchunkReadProfile:
    """Resolve a fractional (sub-packetised) read against min-IO.

    Every stripe-unit extent contributes ``unit_bytes * fraction`` wanted
    bytes spread over ``runs_per_unit`` contiguous runs.  A run reads at
    least ``min_io_bytes``; when the runs would cover the whole extent
    anyway, the read *degenerates* to a full sequential extent read —
    Clay's bandwidth saving evaporates at small stripe units, which is
    the §4.2 "subpacketization overhead" effect.

    Pure function of the config so the analytical twin
    (:mod:`repro.twin`) resolves sub-chunk geometry with the identical
    rule the simulator charges to devices.
    """
    if units < 1 or unit_bytes <= 0 or not 0.0 < fraction <= 1.0:
        raise ValueError("invalid sub-chunk read geometry")
    wanted_per_unit = unit_bytes * fraction
    run_len = wanted_per_unit / max(1, runs_per_unit)
    effective_run = max(run_len, float(config.min_io_bytes))
    per_unit_bytes = runs_per_unit * effective_run
    if fraction >= 0.5:
        # Dense request: readahead makes one sequential full-extent
        # read cheaper than dozens of scattered ranges.
        per_unit_bytes = float(unit_bytes)
    if per_unit_bytes >= unit_bytes:
        return SubchunkReadProfile(
            disk_bytes=units * unit_bytes,
            disk_ops=units * sequential_ops(config, unit_bytes),
            scatter_runs=0,
            degenerate=True,
        )
    return SubchunkReadProfile(
        disk_bytes=int(units * per_unit_bytes),
        disk_ops=units * runs_per_unit,
        scatter_runs=units * runs_per_unit,
        degenerate=False,
    )


def recovery_read_time(
    config: CephConfig, nbytes: float, meta_ops: float, runs: int
) -> float:
    """Service time of one recovery-read grant.

    The QoS-rate transfer time, plus the CPU-side cost of ``meta_ops``
    metadata misses (onode/csum/extent fetches) — where the cache-scheme
    sensitivity of Figure 2a enters the read path — plus a per-run
    penalty for ``runs`` scattered sub-chunk reads.
    """
    return (
        nbytes / config.recovery_read_rate
        + meta_ops * config.metadata_op_cost
        + runs * config.recovery_range_cost
    )


def recovery_write_time(
    config: CephConfig, nbytes: float, coalescing: float
) -> float:
    """Service time of one recovery-write grant for a rebuilt chunk.

    Deferred-write ``coalescing`` (data-cache dependent) stretches or
    shrinks the QoS-rate write cost — the write-side Figure 2a mechanism.
    """
    return nbytes / config.recovery_write_rate * coalescing


def coding_time(
    config: CephConfig,
    nbytes: float,
    work: float,
    fragments: float,
    cpu_cost_factor: float,
) -> float:
    """CPU time to encode or decode ``nbytes`` of output.

    Encoding and decoding run the same GF(256) kernels: the output bytes
    times the plan's ``work`` (1.0 for an encode) through the decode
    bandwidth, plus the per-(unit x plane) ``fragments`` overhead that
    punishes sub-packetised codes at small stripe units — 1 fragment per
    unit for scalar codes, alpha per unit for sub-packetised ones.
    """
    byte_time = nbytes * work * cpu_cost_factor / config.decode_bandwidth
    return byte_time + fragments * config.decode_fragment_overhead


class OsdDaemon:
    """One ceph-osd: device + backend + recovery reservations."""

    def __init__(
        self,
        env: Environment,
        device: OsdDevice,
        cache_config: CacheConfig,
        config: CephConfig,
    ):
        self.env = env
        self.device = device
        #: The device's disk, fixed for the daemon's life.
        self.disk: Disk = device.disk
        self.config = config
        self.backend = BlueStore(cache_config, cache_bytes=config.osd_cache_bytes)
        self.host_running = True
        #: Gray-failure state: a flapping daemon oscillates this flag
        #: while its host and device stay healthy (flap fault level).
        self.daemon_up = True
        #: Throttles mirroring Ceph's: concurrent recovery ops and the
        #: per-OSD backfill reservation that caps simultaneous PGs.
        self.recovery_ops = Resource(env, config.osd_recovery_max_active)
        self.backfill_slots = Resource(env, config.osd_max_backfills)
        #: CPU worker pool for decode and sub-chunk range processing.
        self.cpu = ServiceCenter(env, servers=2, name=f"{device.name}.cpu")
        #: Recovery QoS limiters: the scheduler grants recovery a bounded
        #: share of this OSD's read/write throughput (mClock-style).
        self.recovery_reads = ServiceCenter(
            env, servers=1, name=f"{device.name}.rec-rd"
        )
        self.recovery_writes = ServiceCenter(
            env, servers=1, name=f"{device.name}.rec-wr"
        )
        #: Optional mClock QoS schedulers, attached externally by the
        #: tenancy layer (``repro.tenancy.install_qos``).  When attached,
        #: the grant methods below route admission through them instead
        #: of the plain per-purpose service centers, so client, recovery
        #: and scrub I/O compete under reservation/limit/weight tags.
        #: ``None`` (the default) keeps the pre-tenancy model
        #: byte-identical.
        self.qos_reads = None
        self.qos_writes = None

    @property
    def osd_id(self) -> int:
        return self.device.osd_id

    @property
    def name(self) -> str:
        return self.device.name

    def is_up(self) -> bool:
        """Daemon answers heartbeats: host running, daemon alive, device healthy."""
        return self.host_running and self.daemon_up and not self.disk.failed

    # -- durable state ---------------------------------------------------------

    def store_chunk(
        self, stored_bytes: int, units: int, allocation: Tuple[int, int]
    ) -> int:
        """Account a chunk landing on this OSD; returns bytes consumed.

        ``allocation`` is the chunk's
        :meth:`~repro.cluster.bluestore.BlueStore.chunk_allocation`.
        """
        consumed = self.backend.store_chunk(stored_bytes, units, allocation)
        self.disk.allocate(consumed)
        return consumed

    def remove_chunk(
        self, stored_bytes: int, units: int, allocation: Tuple[int, int]
    ) -> int:
        """Account a chunk leaving this OSD; returns bytes released."""
        released = self.backend.remove_chunk(stored_bytes, units, allocation)
        self.disk.free(released)
        return released

    @property
    def used_bytes(self) -> int:
        """OSD-level storage usage (the paper's WA measurement point)."""
        return self.backend.used_bytes

    # -- recovery I/O ------------------------------------------------------------

    def read_chunk(self, nbytes: int) -> Event:
        """Sequential recovery read of a full chunk, plus metadata misses."""
        ops = sequential_ops(self.config, nbytes) + self.backend.read_overhead_ops(nbytes)
        return self.disk.submit(max(1, round(ops)), nbytes, write=False)

    def read_subchunks(self, profile: SubchunkReadProfile) -> Event:
        """Scattered sub-chunk recovery read (Clay single-failure repair).

        ``profile`` is the read's geometry from
        :func:`resolve_subchunk_read`, which the caller resolved for the
        read's QoS grant.
        """
        ops = profile.disk_ops + self.backend.read_overhead_ops(
            profile.disk_bytes, profile.scatter_runs
        )
        return self.disk.submit(max(1, round(ops)), profile.disk_bytes, write=False)

    def write_chunk(self, nbytes: int) -> Event:
        """Recovery write of a rebuilt chunk, after deferred coalescing."""
        ops = sequential_ops(self.config, nbytes) * self.backend.write_coalescing()
        return self.disk.submit(max(1, round(ops)), nbytes, write=True)

    # -- recovery QoS (the binding constraint on recovery speed) ------------------

    def recovery_read_grant(self, nbytes: int, runs: int = 0) -> Event:
        """Wait for the recovery scheduler to admit a helper read.

        Its service time is :func:`recovery_read_time`.
        """
        service = recovery_read_time(
            self.config, nbytes, self.backend.read_overhead_ops(nbytes, runs),
            runs,
        )
        if self.qos_reads is not None:
            return self.qos_reads.submit("recovery", service)
        return self.recovery_reads.request(service)

    def scrub_read_grant(self, nbytes: int, rate: float) -> Event:
        """Wait for the recovery scheduler to admit a deep-scrub read.

        Scrub shares the recovery-read QoS centre with crash repair — on a
        degraded cluster the two visibly compete for the same bounded
        repair-read bandwidth (the scarce resource of Rashmi et al.'s
        Facebook study), which is exactly the interaction the scrub axis
        benchmark measures.
        """
        if self.qos_reads is not None:
            return self.qos_reads.submit("scrub", nbytes / rate)
        return self.recovery_reads.request(nbytes / rate)

    def recovery_write_grant(self, nbytes: int) -> Event:
        """Wait for the recovery scheduler to admit a rebuilt-chunk write.

        Its service time is :func:`recovery_write_time`.
        """
        service = recovery_write_time(
            self.config, nbytes, self.backend.write_coalescing()
        )
        if self.qos_writes is not None:
            return self.qos_writes.submit("recovery", service)
        return self.recovery_writes.request(service)
