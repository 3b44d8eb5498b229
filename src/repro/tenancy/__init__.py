"""Multi-tenant client fleets with mClock QoS and per-tenant SLO accounting.

The tenancy subsystem replaces the single anonymous client stream with a
seeded fleet of tenants — each with its own arrival process, op mix, QoS
tags (mClock reservation/weight/limit) and declared SLO — and bills each
one separately: latency tails, throughput, write-amplification
attribution, and the windows where its SLO was violated.

Layering: ``repro.cluster`` knows nothing about tenants (OSDs expose
``qos_reads``/``qos_writes`` attach points that default to ``None``);
``repro.chaos`` imports tenancy for the fairness invariant; tenancy
never imports chaos.
"""

from .accounting import (
    TenantReport,
    build_tenant_report,
    fleet_reports,
    merge_windows,
    slo_violation_windows,
)
from .experiment import run_tenant_experiment
from .fleet import TenantFleet, TenantRuntime, install_qos
from .mclock import MClockScheduler, QosClass, QosClassStats
from .spec import (
    ARRIVAL_KINDS,
    LEGACY_TENANT_NAME,
    SloSpec,
    TenantFleetSpec,
    TenantSpec,
    tenant_class_name,
)

__all__ = [
    "ARRIVAL_KINDS",
    "LEGACY_TENANT_NAME",
    "MClockScheduler",
    "QosClass",
    "QosClassStats",
    "SloSpec",
    "TenantFleet",
    "TenantFleetSpec",
    "TenantReport",
    "TenantRuntime",
    "TenantSpec",
    "build_tenant_report",
    "fleet_reports",
    "install_qos",
    "merge_windows",
    "run_tenant_experiment",
    "slo_violation_windows",
    "tenant_class_name",
]
