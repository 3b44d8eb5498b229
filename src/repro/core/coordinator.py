"""The Coordinator — orchestration of one EC experiment (§3).

"Coordinator orchestrates all the activities in the target DSS including
workloads execution, fault injection, and log collection."  Concretely,
one experiment cycle is:

1. ingest the workload into the erasure-coded pool;
2. let the cluster settle (heartbeats flowing, cache warm);
3. apply the fault specs through the Fault Injector;
4. wait for the monitor to mark the victims out and for every affected
   PG to finish recovery;
5. flush the per-node Loggers, drain the log bus, and hand the merged
   record stream to the timeline analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

from ..cluster.ceph import CephCluster
from ..cluster.recovery import RecoveryStats
from ..cluster.scrub import ScrubStats
from ..sim.rng import SeedSequence
from ..workload.generator import Workload
from ..workload.iostat import IostatCollector
from .fault_injector import CRASH_LEVELS, FaultInjector, FaultSpec
from .logbus import LogBus
from .logger import LogCollector, NodeLogger
from .timeline import (
    RecoveryTimeline,
    ScrubTimeline,
    build_scrub_timeline,
    build_timeline,
)
from .wa import WaReport, measure_wa

__all__ = ["ExperimentOutcome", "ExperimentTimeout", "Coordinator"]


class ExperimentTimeout(RuntimeError):
    """Recovery did not complete within the experiment's time budget."""


@dataclass
class ExperimentOutcome:
    """Everything one experiment produced."""

    timeline: Optional[RecoveryTimeline]
    recovery_stats: RecoveryStats
    wa: WaReport
    injected_osds: List[int]
    collector: LogCollector
    iostat: Optional[IostatCollector]
    workload_bytes: int
    finished_at: float
    scrub_timeline: Optional[ScrubTimeline] = None
    scrub_stats: Optional[ScrubStats] = None

    @property
    def total_recovery_time(self) -> float:
        """The headline metric: detection -> recovery finished."""
        if self.timeline is None:
            raise RuntimeError("experiment produced no recovery timeline")
        return self.timeline.total_recovery


class Coordinator:
    """Drives one experiment cycle on an assembled cluster."""

    #: Poll period while waiting for monitor state transitions.
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

    def run(
        self,
        workload: Workload,
        faults: List[FaultSpec],
        settle_time: float = 60.0,
        max_sim_time: float = 200_000.0,
        iostat_interval: float = 10.0,
    ) -> ExperimentOutcome:
        """Execute the full cycle and return its outcome (blocking)."""
        env = self.cluster.env
        disks = {
            osd.name: osd.disk for osd in self.cluster.osds.values()
        }
        iostat = IostatCollector(env, disks, interval=iostat_interval)
        driver = env.process(
            self._drive(workload, faults, settle_time, max_sim_time)
        )
        env.run_until_process(driver)
        outcome: ExperimentOutcome = driver.value
        outcome.iostat = iostat
        return outcome

    def ingest_workload(self, workload: Workload) -> int:
        """Run the workload phase: place every write, return client bytes.

        Shared by the standard experiment cycle and the chaos harness,
        which drives the rest of a campaign step-by-step itself.
        """
        workload_bytes = 0
        for write in workload.writes(self.seeds):
            self.cluster.ingest_object(write.name, write.size)
            workload_bytes += write.size
        return workload_bytes

    # -- the experiment cycle as a simulation process --------------------------------

    def _drive(
        self,
        workload: Workload,
        faults: List[FaultSpec],
        settle_time: float,
        max_sim_time: float,
    ) -> Generator:
        env = self.cluster.env
        # Phase 1: workload execution (state ingestion; see CephCluster).
        workload_bytes = self.ingest_workload(workload)
        wa = measure_wa(self.cluster, workload_bytes)

        # Phase 2: settle — heartbeats establish steady state.
        yield env.timeout(settle_time)

        # Phase 3: fault injection.  Crash faults (node, device and
        # correlated domain crashes) take the victims down and are
        # tracked through the monitor; corrupt faults leave every
        # daemon up — only deep scrub will find them.
        # Gray faults degrade without a guaranteed mark-out (a flapping
        # or partitioned OSD may never *stay* out), so the cycle does not
        # block on them.
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
        if has_corrupt and not self.cluster.scrub.config.enabled:
            raise ValueError(
                "corrupt faults were injected but scrubbing is disabled; "
                "nothing would ever detect them (set a scrub interval)"
            )

        timeline = None
        stats = self.cluster.recovery.stats
        if crash_victims:
            # Phase 4a: wait until the monitor marks every victim out.
            deadline = env.now + max_sim_time
            while not all(self.cluster.monitor.is_out(o) for o in crash_victims):
                if env.now > deadline:
                    raise ExperimentTimeout(
                        f"victims not marked out by t={env.now:.0f}s"
                    )
                yield env.timeout(self.POLL)
            # Phase 4b: wait for every queued PG to recover.
            yield self.cluster.recovery.wait_all_recovered()
        if has_corrupt:
            # Phase 4c: wait for scrub to find and repair every corruption.
            deadline = env.now + max_sim_time
            while not self.cluster.scrub.quiescent():
                if env.now > deadline:
                    raise ExperimentTimeout(
                        f"scrub repair incomplete by t={env.now:.0f}s"
                    )
                yield env.timeout(self.POLL)

        # Phase 5: log collection and analysis.
        for logger in self.loggers:
            logger.flush()
        self.collector.collect()
        if crash_victims and stats.pgs_queued:
            timeline = build_timeline(self.collector)
        scrub_timeline = None
        if has_corrupt:
            scrub_timeline = build_scrub_timeline(self.collector)

        return ExperimentOutcome(
            timeline=timeline,
            recovery_stats=stats,
            wa=wa,
            injected_osds=injected,
            collector=self.collector,
            iostat=None,  # attached by run()
            workload_bytes=workload_bytes,
            finished_at=env.now,
            scrub_timeline=scrub_timeline,
            scrub_stats=self.cluster.scrub.stats,
        )
