"""The restore-timing preset of the experiment cycle, with a tenant fleet.

:func:`run_tenant_experiment` runs :meth:`~repro.core.coordinator.
Coordinator.run` with a restore: the fleet's streams run through the
fault window, and each tenant's samples fold into a
:class:`~repro.tenancy.accounting.TenantReport`.  A legacy-equivalent
fleet digests as the pre-tenancy single client did; a real fleet adds a
per-tenant section and, under QoS, the per-class scheduler totals.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.controller import Controller
from ..core.coordinator import Coordinator, ExperimentOutcome
from ..core.fault_injector import FaultSpec
from ..core.profile import ExperimentProfile
from ..workload.generator import Workload
from .spec import TenantFleetSpec

__all__ = ["run_tenant_experiment"]


def run_tenant_experiment(
    profile: ExperimentProfile,
    workload: Workload,
    fleet_spec: Optional[TenantFleetSpec] = None,
    faults: Sequence[FaultSpec] = (),
    seed: int = 0,
    warmup: float = 50.0,
    fault_duration: float = 600.0,
    settle_time: float = 20_000.0,
) -> ExperimentOutcome:
    """Run one cycle and return its outcome.

    After ``warmup`` seconds the faults are injected and the fleet runs
    open-loop for ``fault_duration`` seconds while they are active.
    Then every fault is restored, the fleet's in-flight ops drain, and
    the cluster gets up to ``settle_time`` seconds to converge.  With no
    ``faults`` the fleet simply runs against a healthy cluster (the
    QoS-off/on baseline comparisons); with no ``fleet_spec`` the cycle
    runs without client load.  A bad timing is rejected before any
    cluster is built.
    """
    Coordinator.check_timing(warmup, fault_duration, settle_time)
    return Controller(profile, seed=seed).coordinator.run(
        workload, faults, fleet_spec, warmup=warmup,
        fault_duration=fault_duration, settle_time=settle_time,
    )
