"""The Coordinator — orchestration of one EC experiment (§3).

"Coordinator orchestrates all the activities in the target DSS including
workloads execution, fault injection, and log collection."
:meth:`Coordinator.run` is the one implementation of that cycle: ingest
the workload, warm up, inject the faults, then either *hold* them (the
paper's cycle: wait for mark-out, re-replication and scrub repair) or
*restore* them after a fault window and settle, and finally collect the
logs and build the timelines.  :func:`~repro.core.experiment.
run_experiment` builds the cluster and calls it; every preset calls
that, and :class:`ExperimentOutcome` is the one outcome type.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional, Sequence

from ..cluster.ceph import CephCluster
from ..cluster.client import WRITE_STAT_KEYS, ClientOpStats, ReadStats, WriteStats
from ..cluster.health import SETTLE_POLL, check_health, converged
from ..cluster.recovery import (
    CASCADE_STAT_KEYS,
    DELTA_STAT_KEYS,
    GEO_STAT_KEYS,
    RecoveryStats,
)
from ..cluster.scrub import ScrubStats
from ..sim.rng import SeedSequence
from ..workload.generator import Workload
from ..workload.iostat import IostatCollector
from .digest import canonical_json, prune_zero
from .fault_injector import CRASH_LEVELS, GEO_LEVELS, FaultInjector, FaultSpec
from .logbus import LogBus
from .logger import LogCollector, NodeLogger
from .timeline import (
    FlapTimeline,
    RecoveryTimeline,
    ScrubTimeline,
    TimelineError,
    build_flap_timeline,
    build_scrub_timeline,
    build_timeline,
)
from .wa import WaReport, measure_wa

if TYPE_CHECKING:
    from ..tenancy import TenantFleet, TenantFleetSpec, TenantReport, TenantRuntime

__all__ = ["ExperimentOutcome", "ExperimentTimeout", "Coordinator"]


class ExperimentTimeout(RuntimeError):
    """Recovery did not complete within the experiment's time budget."""


@dataclass
class ExperimentOutcome:
    """Everything one experiment cycle produced."""

    timeline: Optional[RecoveryTimeline]
    scrub_timeline: Optional[ScrubTimeline]
    recovery_stats: RecoveryStats
    scrub_stats: ScrubStats
    wa: WaReport
    #: Every OSD a fault landed on, sorted.
    injected_osds: List[int]
    #: OSDs whose devices were merely slowed (never counted as damage).
    slowed_osds: List[int]
    workload_bytes: int
    finished_at: float
    health: str
    #: Whether a restore's settle converged; None when the faults were held.
    converged: Optional[bool]
    #: Monitor-side dampening counters over the whole run.
    markdowns: int
    pins: int
    collector: LogCollector
    iostat: IostatCollector
    cluster: CephCluster
    #: None when the cycle ran without client load.
    fleet_spec: Optional["TenantFleetSpec"] = None
    fleet: Optional["TenantFleet"] = None
    reports: List["TenantReport"] = field(default_factory=list)

    @property
    def total_recovery_time(self) -> float:
        """The headline metric: detection -> recovery finished."""
        if self.timeline is None:
            raise RuntimeError("experiment produced no recovery timeline")
        return self.timeline.total_recovery

    def _sole_tenant(self) -> "TenantRuntime":
        if self.fleet is None or len(self.fleet.tenants) != 1:
            raise ValueError("single-client stats need a one-tenant fleet")
        return next(iter(self.fleet.tenants.values()))

    @property
    def read_stats(self) -> ReadStats:
        """The sole tenant's read samples (gray experiments)."""
        return self._sole_tenant().load.stats

    @property
    def write_stats(self) -> WriteStats:
        """The sole tenant's write samples (gray experiments)."""
        return self._sole_tenant().load.write_stats

    @property
    def client_stats(self) -> ClientOpStats:
        """The sole tenant's defense counters (gray experiments)."""
        return self._sole_tenant().client.stats

    def flap_timeline(self) -> Optional[FlapTimeline]:
        """The flap-dampening story of the run, or None if nothing flapped."""
        try:
            return build_flap_timeline(self.collector)
        except TimelineError:
            return None

    def digest(self) -> Dict[str, Any]:
        """Canonical JSON-serialisable snapshot (the determinism contract).

        A legacy-equivalent fleet reports its single client's counters
        and samples; a real fleet a per-tenant map and, under QoS, the
        scheduler totals.  Counters of unexercised subsystems are pruned
        at zero.
        """
        payload: Dict[str, Any] = {
            "finished_at": self.finished_at,
            "health": str(self.health),
            "converged": self.converged,
            "injected_osds": list(self.injected_osds),
            "slowed_osds": list(self.slowed_osds),
            "markdowns": self.markdowns,
            "pins": self.pins,
            "recovery": prune_zero(
                asdict(self.recovery_stats),
                DELTA_STAT_KEYS + GEO_STAT_KEYS + CASCADE_STAT_KEYS,
            ),
        }
        if self.fleet is None:
            return payload
        if self.fleet_spec.is_legacy_equivalent():
            payload.update(_client_sections(self._sole_tenant()))
            return payload
        tenants = payload["tenants"] = {}
        for runtime in self.fleet.tenants.values():
            section = tenants[runtime.spec.name] = _client_sections(runtime)
            if runtime.load.write_stats.samples:
                section["stored_write_bytes"] = runtime.load.write_stats.stored_bytes
        if self.fleet_spec.qos_enabled:
            payload["qos"] = self.fleet.qos_class_totals()
        return payload

    def digest_json(self) -> str:
        """The digest as canonical JSON — byte-comparable across runs."""
        return canonical_json(self.digest())


def _client_sections(runtime: "TenantRuntime") -> Dict[str, Any]:
    """One client's counters and samples (writes only when it wrote)."""
    return {
        "client": prune_zero(asdict(runtime.client.stats), WRITE_STAT_KEYS),
        **runtime.load.digest_sections(),
    }


class Coordinator:
    """Drives one experiment cycle on an assembled cluster."""

    #: Poll period of the hold timing's waits on monitor and scrub state.
    POLL = 5.0

    def __init__(
        self,
        cluster: CephCluster,
        injector: FaultInjector,
        bus: Optional[LogBus] = None,
        seeds: Optional[SeedSequence] = None,
    ):
        self.cluster = cluster
        self.injector = injector
        self.bus = bus or LogBus()
        self.seeds = seeds or SeedSequence(0)
        self.loggers = [
            NodeLogger(node_log, self.bus) for node_log in cluster.all_logs()
        ]
        self.collector = LogCollector(self.bus)
        self._ran = False

    def run(
        self,
        workload: Workload,
        faults: Sequence[FaultSpec] = (),
        fleet_spec: Optional["TenantFleetSpec"] = None,
        warmup: float = 60.0,
        fault_duration: Optional[float] = None,
        settle_time: float = 200_000.0,
    ) -> ExperimentOutcome:
        """Execute the full cycle and return its outcome (blocking).

        ``fault_duration=None`` holds the faults: poll every ``POLL``
        seconds until the crash victims are marked out, wait for every
        queued PG to recover, then poll until scrub has repaired any
        injected corruption; each poll loop raises
        :class:`ExperimentTimeout` once it passes ``settle_time``.  A
        positive ``fault_duration`` runs the tenant fleet (if any) that
        long, restores every fault, drains the fleet, and settles: check
        :func:`~repro.cluster.health.converged` first, then every
        ``SETTLE_POLL`` seconds for up to ``settle_time`` seconds.

        The cycle is one simulation process, not a loop of
        ``env.run(until=...)`` calls.  A timeout it yields was scheduled
        before the monitor tick due at the same instant, so the kernel's
        insertion-order tie-break runs its poll ahead of that tick; the
        pinned outcomes, ``finished_at`` included, depend on that order.

        The cycle mutates the cluster, so it runs once: a second call
        raises ``RuntimeError``.
        """
        if self._ran:
            raise RuntimeError(
                "this cluster already ran an experiment; build a fresh Controller"
            )
        self.check_timing(warmup, fault_duration, settle_time)
        if fault_duration is None:
            self._check_holdable(faults, fleet_spec)
        self._ran = True
        env = self.cluster.env
        disks = {osd.name: osd.disk for osd in self.cluster.osds.values()}
        iostat = IostatCollector(env, disks)
        driver = env.process(self._drive(
            workload, faults, fleet_spec, warmup, fault_duration, settle_time,
            iostat,
        ))
        return env.run_until_process(driver)

    def ingest_workload(self, workload: Workload) -> int:
        """Run the workload phase: place every write, return client bytes.

        Shared by the experiment cycle and the chaos harness, which
        drives the rest of a campaign step-by-step itself.
        """
        workload_bytes = 0
        for write in workload.writes(self.seeds):
            self.cluster.ingest_object(write.name, write.size)
            workload_bytes += write.size
        return workload_bytes

    @staticmethod
    def check_timing(
        warmup: float, fault_duration: Optional[float], settle_time: float
    ) -> None:
        """Reject a timing :meth:`run` cannot run with ``ValueError``."""
        if warmup < 0:
            raise ValueError("warmup must be >= 0")
        if settle_time < 0:
            raise ValueError("settle_time must be >= 0")
        if fault_duration is not None and fault_duration <= 0:
            raise ValueError("fault_duration must be positive")

    def _check_holdable(
        self, faults: Sequence[FaultSpec], fleet_spec: Optional["TenantFleetSpec"]
    ) -> None:
        """Reject, before anything runs, what the hold timing cannot serve."""
        if fleet_spec is not None:
            raise ValueError("a tenant fleet needs a fault window: set fault_duration")
        for spec in faults:
            if spec.level in GEO_LEVELS:
                raise ValueError(
                    f"{spec.level} faults mark no OSD out, so holding them "
                    "waits for nothing: restore them (set fault_duration)"
                )
        if (
            any(spec.level == "corrupt" for spec in faults)
            and not self.cluster.scrub.config.enabled
        ):
            raise ValueError(
                "corrupt faults need scrubbing but scrubbing is disabled; "
                "nothing would ever detect them (set a scrub interval)"
            )

    # -- the experiment cycle as a simulation process --------------------------------

    def _drive(
        self,
        workload: Workload,
        faults: Sequence[FaultSpec],
        fleet_spec: Optional["TenantFleetSpec"],
        warmup: float,
        fault_duration: Optional[float],
        settle_time: float,
        iostat: IostatCollector,
    ) -> Generator:
        env = self.cluster.env
        cluster = self.cluster
        # Phase 1: workload execution (state ingestion; see CephCluster).
        workload_bytes = self.ingest_workload(workload)
        wa = measure_wa(cluster, workload_bytes)
        fleet = None
        if fleet_spec is not None:
            # The tenancy package imports the core stack: resolve it here.
            from ..tenancy import TenantFleet, fleet_reports

            fleet = TenantFleet(cluster, fleet_spec, seeds=self.seeds)

        # Phase 2: warmup — heartbeats establish steady state.
        yield env.timeout(warmup)

        # Phase 3: fault injection.  Crash faults (node, device and
        # correlated domain crashes) take the victims down and are
        # tracked through the monitor; corrupt faults leave every
        # daemon up — only deep scrub will find them.  Gray faults
        # degrade without a guaranteed mark-out (a flapping or
        # partitioned OSD may never *stay* out), so no wait blocks on them.
        injected: List[int] = []
        crash_victims: List[int] = []
        has_corrupt = False
        for spec in faults:
            affected = self.injector.inject(spec)
            injected.extend(affected)
            if spec.level == "corrupt":
                has_corrupt = True
            elif spec.level in CRASH_LEVELS:
                crash_victims.extend(affected)
        slowed = sorted(self.injector.slowed_osds)

        # Phase 4: hold or restore.
        held = fault_duration is None
        if held:
            settled = None
            yield from self._hold(crash_victims, has_corrupt, settle_time)
        else:
            settled = yield from self._restore(fleet, fault_duration, settle_time)

        # Phase 5: log collection and analysis.
        for logger in self.loggers:
            logger.flush()
        self.collector.collect()
        stats = cluster.recovery.stats
        timeline = scrub_timeline = None
        if crash_victims and stats.pgs_queued:
            timeline = self._timeline(build_timeline, held)
        if has_corrupt:
            scrub_timeline = self._timeline(build_scrub_timeline, held)
        return ExperimentOutcome(
            timeline=timeline,
            scrub_timeline=scrub_timeline,
            recovery_stats=stats,
            scrub_stats=cluster.scrub.stats,
            wa=wa,
            injected_osds=sorted(injected),
            slowed_osds=slowed,
            workload_bytes=workload_bytes,
            finished_at=env.now,
            health=str(check_health(cluster).status),
            converged=settled,
            markdowns=cluster.monitor.markdowns_total,
            pins=cluster.monitor.pins_total,
            collector=self.collector,
            iostat=iostat,
            cluster=cluster,
            fleet_spec=fleet_spec,
            fleet=fleet,
            reports=fleet_reports(fleet) if fleet is not None else [],
        )

    def _timeline(self, build, held: bool):
        """Build one timeline; a missing phase is an error only when held.

        A hold waits for every cycle it times to finish.  A restore may
        end one early (the victims return before mark-out, or the settle
        runs out of budget), so its timeline is kept only when complete.
        """
        try:
            return build(self.collector)
        except TimelineError:
            if held:
                raise
            return None

    def _hold(
        self, crash_victims: List[int], has_corrupt: bool, budget: float
    ) -> Generator:
        env = self.cluster.env
        if crash_victims:
            deadline = env.now + budget
            while not all(self.cluster.monitor.is_out(o) for o in crash_victims):
                if env.now > deadline:
                    raise ExperimentTimeout(
                        f"victims not marked out by t={env.now:.0f}s"
                    )
                yield env.timeout(self.POLL)
            yield self.cluster.recovery.wait_all_recovered()
        if has_corrupt:
            deadline = env.now + budget
            while not self.cluster.scrub.quiescent():
                if env.now > deadline:
                    raise ExperimentTimeout(
                        f"scrub repair incomplete by t={env.now:.0f}s"
                    )
                yield env.timeout(self.POLL)

    def _restore(
        self, fleet: Optional["TenantFleet"], fault_duration: float, budget: float
    ) -> Generator:
        env = self.cluster.env
        fleet_done = fleet.run_for(fault_duration) if fleet is not None else None
        yield env.timeout(fault_duration)
        self.injector.restore_all()
        if fleet_done is not None:
            # Drain every tenant's in-flight ops (retries may outlive the window).
            yield fleet_done
        deadline = env.now + budget
        settled = converged(self.cluster)
        while not settled and env.now < deadline:
            yield env.timeout(min(SETTLE_POLL, deadline - env.now))
            settled = converged(self.cluster)
        return settled
