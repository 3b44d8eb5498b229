"""The tenant fleet: seeded per-tenant load streams over one cluster.

Runs one :class:`~repro.cluster.client.ClientLoadGenerator` per tenant,
each drawing from its own derived RNG substream
(``seeds.derive("tenant-<name>")``) so adding, removing or re-ordering
tenants never perturbs another tenant's op sequence.  The
*legacy-equivalent* fleet (one default tenant, uniform arrivals, QoS
off) instead consumes the root seed's ``client-load``/``client-retry``
streams directly: it is the single client stream of gray experiments
and ``--writes`` chaos campaigns.

:func:`install_qos` attaches one read-side and one write-side
:class:`~repro.tenancy.mclock.MClockScheduler` to every OSD; from then
on the OSD grant methods and the tagged clients route admission through
mClock instead of the dedicated per-purpose service centers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..cluster.ceph import CephCluster
from ..cluster.client import ClientLoadGenerator, RadosClient
from ..sim import Event
from ..sim.rng import SeedSequence
from .mclock import MClockScheduler, QosClassStats
from .spec import TenantFleetSpec, TenantSpec, tenant_class_name

__all__ = ["TenantRuntime", "TenantFleet", "install_qos"]


def install_qos(cluster: CephCluster, spec: TenantFleetSpec) -> None:
    """Attach mClock schedulers for this fleet to every OSD.

    Two schedulers per OSD — read-side (recovery + scrub + tenant
    fetches) and write-side (recovery pushes + tenant writes) — mirror
    the two dedicated service centers they replace, so the QoS-off and
    QoS-on models give the background classes the same raw capacity.
    """
    for osd_id in sorted(cluster.osds):
        osd = cluster.osds[osd_id]
        osd.qos_reads = MClockScheduler(
            cluster.env,
            classes=spec.read_classes(),
            name=f"{osd.name}.qos-rd",
            client_rate=spec.client_rate,
        )
        osd.qos_writes = MClockScheduler(
            cluster.env,
            classes=spec.write_classes(),
            name=f"{osd.name}.qos-wr",
            client_rate=spec.client_rate,
        )


@dataclass
class TenantRuntime:
    """One tenant's live pieces: spec, client, load stream."""

    spec: TenantSpec
    client: RadosClient
    load: ClientLoadGenerator


class TenantFleet:
    """All tenants of one experiment, bound to one cluster.

    Building the fleet attaches QoS schedulers when the spec enables
    them and constructs one seeded client + load generator per tenant.
    ``run_for`` starts every tenant's stream; the returned event fires
    once all of them (including trailing retries) have drained.
    """

    def __init__(
        self,
        cluster: CephCluster,
        spec: TenantFleetSpec,
        seeds: Optional[SeedSequence] = None,
    ):
        self.cluster = cluster
        self.spec = spec
        seeds = seeds or SeedSequence(0)
        if spec.qos_enabled:
            install_qos(cluster, spec)
        legacy = spec.is_legacy_equivalent()
        self.tenants: Dict[str, TenantRuntime] = {}
        for tenant in spec.tenants:
            tenant_seeds = (
                seeds if legacy else seeds.derive(f"tenant-{tenant.name}")
            )
            client = RadosClient(
                cluster,
                name="client.0" if legacy else f"client.{tenant.name}",
                seeds=tenant_seeds,
                qos_class=(
                    tenant_class_name(tenant.name) if spec.qos_enabled else None
                ),
            )
            load = ClientLoadGenerator(
                client,
                interval=tenant.interval,
                seeds=tenant_seeds,
                write_fraction=tenant.write_fraction,
                rmw_fraction=tenant.rmw_fraction,
                arrival=tenant.arrival,
            )
            self.tenants[tenant.name] = TenantRuntime(
                spec=tenant, client=client, load=load
            )
        #: Set by run_for — the accounting window's origin.
        self.started_at: Optional[float] = None
        self.duration: float = 0.0

    def run_for(self, duration: float) -> Event:
        """Start every tenant's stream; fires when all have drained."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        self.started_at = self.cluster.env.now
        self.duration = duration
        return self.cluster.env.all_of(
            [runtime.load.run_for(duration) for runtime in self.tenants.values()]
        )

    # -- QoS introspection (the fairness invariant's raw material) -------------

    def qos_class_totals(self) -> Dict[str, Dict[str, float]]:
        """Per-class counters summed over every OSD scheduler.

        Keys are class names; values carry ``enqueued``, ``served``,
        ``busy_time`` and the fleet-wide ``max_wait``.  Empty when QoS
        is off.
        """
        totals: Dict[str, Dict[str, float]] = {}
        for stats_by_class in self._all_scheduler_stats():
            for name, stats in stats_by_class.items():
                bucket = totals.setdefault(
                    name,
                    {"enqueued": 0, "served": 0, "busy_time": 0.0, "max_wait": 0.0},
                )
                bucket["enqueued"] += stats.enqueued
                bucket["served"] += stats.served
                bucket["busy_time"] += stats.busy_time
                bucket["max_wait"] = max(bucket["max_wait"], stats.max_wait)
        return totals

    def qos_pending(self) -> int:
        """Requests still queued in any scheduler (0 once drained)."""
        pending = 0
        for osd_id in sorted(self.cluster.osds):
            osd = self.cluster.osds[osd_id]
            for sched in (osd.qos_reads, osd.qos_writes):
                if sched is not None:
                    pending += sched.pending
        return pending

    def _all_scheduler_stats(self) -> List[Dict[str, QosClassStats]]:
        out: List[Dict[str, QosClassStats]] = []
        for osd_id in sorted(self.cluster.osds):
            osd = self.cluster.osds[osd_id]
            for sched in (osd.qos_reads, osd.qos_writes):
                if sched is not None:
                    out.append(sched.classes)
        return out
