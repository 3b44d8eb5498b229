"""The experiment cycle: faults + an optional tenant fleet, one outcome.

:func:`run_tenant_experiment` is the one implementation of the cycle
every fault experiment with a restore runs: ingest, warm up, inject the
faults, run every tenant's stream through the fault window, restore,
drain the load, settle until :func:`~repro.cluster.health.converged`,
then collect the logs and fold each tenant's samples into a
:class:`~repro.tenancy.accounting.TenantReport`.  The presets build on
it: :func:`repro.core.gray.run_gray_experiment` is a legacy-equivalent
fleet, and :func:`repro.geo.run_stretch_experiment`'s restore mode runs
the cycle with no fleet at all.

The outcome digest honours the seed-stability contract: a
legacy-equivalent fleet (one default tenant, uniform arrivals, QoS off)
reports the single-client sections the pre-tenancy model did.  Any real
fleet instead reports a ``tenants`` section (per-tenant samples and
counters) plus, when QoS is on, the per-class scheduler totals.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..cluster.ceph import CephCluster
from ..cluster.client import WRITE_STAT_KEYS, ClientOpStats, ReadStats, WriteStats
from ..cluster.health import SETTLE_POLL, check_health, converged
from ..cluster.recovery import (
    CASCADE_STAT_KEYS,
    DELTA_STAT_KEYS,
    GEO_STAT_KEYS,
    RecoveryStats,
)
from ..core.controller import Controller
from ..core.digest import canonical_json, prune_zero
from ..core.fault_injector import FaultSpec
from ..core.logger import LogCollector
from ..core.profile import ExperimentProfile
from ..core.timeline import (
    FlapTimeline,
    TenantSloTimeline,
    TimelineError,
    build_flap_timeline,
    build_tenant_slo_timeline,
)
from ..workload.generator import Workload
from .accounting import TenantReport, fleet_reports
from .fleet import TenantFleet, TenantRuntime
from .spec import TenantFleetSpec

__all__ = ["TenantOutcome", "run_tenant_experiment"]


@dataclass
class TenantOutcome:
    """Everything one experiment cycle produced."""

    #: None when the cycle ran without client load.
    fleet_spec: Optional[TenantFleetSpec]
    fleet: Optional[TenantFleet]
    reports: List[TenantReport]
    recovery_stats: RecoveryStats
    injected_osds: List[int]
    #: OSDs whose devices were merely slowed (never counted as damage).
    slowed_osds: List[int]
    #: Monitor-side dampening counters over the whole run.
    markdowns: int
    pins: int
    health: str
    converged: bool
    finished_at: float
    collector: LogCollector
    cluster: CephCluster
    #: First injection to the end of settle (None when no fault was
    #: injected) — the attribution window SLO violations are judged
    #: against.
    fault_window: Optional[Tuple[float, float]] = None

    def _sole_tenant(self) -> TenantRuntime:
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

    def slo_timeline(self) -> TenantSloTimeline:
        """The per-tenant SLO-violation band (Figure-3 style)."""
        return build_tenant_slo_timeline(
            [(report.name, list(report.slo_violations)) for report in self.reports],
            started_at=self.fleet.started_at or 0.0,
            duration=self.fleet.duration,
            fault_window=self.fault_window,
        )

    def digest(self) -> Dict[str, Any]:
        """Canonical JSON-serialisable snapshot (the determinism contract).

        Legacy-equivalent fleets report the single client's counters and
        samples; real fleets replace them with a per-tenant map and
        (under QoS) the scheduler totals.  Counters of subsystems a run
        never exercised are pruned at zero.
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
        payload["tenants"] = {
            runtime.spec.name: _tenant_section(runtime)
            for runtime in self.fleet.tenants.values()
        }
        if self.fleet_spec.qos_enabled:
            payload["qos"] = self.fleet.qos_class_totals()
        return payload

    def digest_json(self) -> str:
        """The digest as canonical JSON — byte-comparable across runs."""
        return canonical_json(self.digest())


def _client_sections(runtime: TenantRuntime) -> Dict[str, Any]:
    """One client's counters and samples (writes only when it wrote)."""
    return {
        "client": prune_zero(asdict(runtime.client.stats), WRITE_STAT_KEYS),
        **runtime.load.digest_sections(),
    }


def _tenant_section(runtime: TenantRuntime) -> Dict[str, Any]:
    """One tenant's digest entry (client counters + raw samples)."""
    section = _client_sections(runtime)
    writes = runtime.load.write_stats
    if writes.samples:
        section["stored_write_bytes"] = writes.stored_bytes
    return section


def run_tenant_experiment(
    profile: ExperimentProfile,
    workload: Workload,
    fleet_spec: Optional[TenantFleetSpec] = None,
    faults: Sequence[FaultSpec] = (),
    seed: int = 0,
    warmup: float = 50.0,
    fault_duration: float = 600.0,
    settle_time: float = 20_000.0,
) -> TenantOutcome:
    """Run one cycle and return its outcome.

    After ``warmup`` seconds the faults are injected and the fleet runs
    open-loop for ``fault_duration`` seconds while they are active.
    Then every fault is restored, the fleet's in-flight ops drain, and
    the cluster gets up to ``settle_time`` seconds to converge.  With no
    ``faults`` the fleet simply runs against a healthy cluster (the
    QoS-off/on baseline comparisons); with no ``fleet_spec`` the cycle
    runs without client load.
    """
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    if settle_time < 0:
        raise ValueError("settle_time must be >= 0")
    if fault_duration <= 0:
        raise ValueError("fault_duration must be positive")
    controller = Controller(profile, seed=seed)
    env = controller.env
    cluster = controller.cluster
    coordinator = controller.coordinator

    coordinator.ingest_workload(workload)
    fleet = (
        TenantFleet(cluster, fleet_spec, seeds=controller.seeds)
        if fleet_spec is not None
        else None
    )

    env.run(until=env.now + warmup)
    injected: List[int] = []
    fault_start = env.now if faults else None
    for spec in faults:
        injected.extend(controller.fault_injector.inject(spec))
    slowed = sorted(controller.fault_injector.slowed_osds)

    fleet_proc = fleet.run_for(fault_duration) if fleet is not None else None
    env.run(until=env.now + fault_duration)
    controller.fault_injector.restore_all()
    if fleet_proc is not None:
        # Drain every tenant's in-flight ops (retries may outlive the window).
        env.run_until_process(fleet_proc)

    deadline = env.now + settle_time
    settled = converged(cluster)
    while not settled and env.now < deadline:
        env.run(until=min(env.now + SETTLE_POLL, deadline))
        settled = converged(cluster)

    for logger in coordinator.loggers:
        logger.flush()
    coordinator.collector.collect()

    return TenantOutcome(
        fleet_spec=fleet_spec,
        fleet=fleet,
        reports=fleet_reports(fleet) if fleet is not None else [],
        recovery_stats=cluster.recovery.stats,
        injected_osds=sorted(injected),
        slowed_osds=slowed,
        markdowns=cluster.monitor.markdowns_total,
        pins=cluster.monitor.pins_total,
        health=str(check_health(cluster).status),
        converged=settled,
        finished_at=env.now,
        collector=coordinator.collector,
        cluster=cluster,
        fault_window=(fault_start, env.now) if fault_start is not None else None,
    )
