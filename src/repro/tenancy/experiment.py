"""The restore-timing preset of the experiment cycle, with a tenant fleet.

:func:`run_tenant_experiment` runs :func:`~repro.core.experiment.
run_experiment` with a restore: the fleet's streams run through the
fault window, and each tenant's samples fold into a
:class:`~repro.tenancy.accounting.TenantReport`.  A legacy-equivalent
fleet digests as the pre-tenancy single client did; a real fleet adds a
per-tenant section and, under QoS, the per-class scheduler totals.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.coordinator import ExperimentOutcome
from ..core.experiment import run_experiment
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

    A gray-failure experiment passes ``TenantFleetSpec.legacy(interval,
    write_fraction, rmw_fraction)``: one open-loop client stream whose
    defenses (``client_op_timeout``, ``client_hedge_delay``, the retry
    knobs) are set through ``profile.ceph`` and default off.
    """
    return run_experiment(
        profile, workload, faults, seed=seed, fleet_spec=fleet_spec,
        warmup=warmup, fault_duration=fault_duration, settle_time=settle_time,
    )
