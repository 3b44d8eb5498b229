"""Cluster health reporting (a ``ceph status``-style summary).

Derives a HEALTH_OK / HEALTH_WARN / HEALTH_ERR verdict from the live
cluster state: down/out OSDs, degraded and undersized PGs, near-full
devices.  The Coordinator does not depend on this — recovery completion
is tracked from logs, as in the paper — but operators (and the examples)
get the at-a-glance view a real cluster would print.

:func:`converged` is the one settle predicate every experiment driver
polls after its faults are restored: every fault healed, every
background repair drained, and health back to HEALTH_OK.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .ceph import CephCluster
from .scrub import ScrubPhase

__all__ = [
    "HealthStatus",
    "HealthReport",
    "SETTLE_POLL",
    "check_health",
    "convergence_blockers",
    "converged",
]

#: Sim-seconds between settle-phase polls of :func:`converged`.
SETTLE_POLL = 25.0


class HealthStatus:
    """The three Ceph health levels."""

    OK = "HEALTH_OK"
    WARN = "HEALTH_WARN"
    ERR = "HEALTH_ERR"


@dataclass(frozen=True)
class HealthReport:
    """One point-in-time health summary."""

    status: str
    osds_total: int
    osds_up: int
    osds_out: int
    pgs_total: int
    pgs_active_clean: int
    pgs_degraded: int
    pgs_undersized: int
    nearfull_osds: tuple
    full_osds: tuple
    checks: tuple
    pgs_inconsistent: int = 0
    pgs_repairing: int = 0
    #: OSDs past the backfillfull ratio: still serving I/O but no longer
    #: eligible as backfill targets (capacity backpressure tier 2).
    backfillfull_osds: tuple = ()
    #: PGs whose pg_log still records stale shards (writes that missed a
    #: replica and have not been delta-repaired yet).
    pgs_dirty_log: int = 0

    def summary(self) -> str:
        lines = [self.status]
        for check in self.checks:
            lines.append(f"  {check}")
        lines.append(
            f"  osd: {self.osds_total} osds: {self.osds_up} up, "
            f"{self.osds_total - self.osds_out} in"
        )
        lines.append(
            f"  pgs: {self.pgs_active_clean} active+clean, "
            f"{self.pgs_degraded} degraded, {self.pgs_undersized} undersized"
        )
        if self.pgs_inconsistent or self.pgs_repairing:
            lines.append(
                f"  scrub: {self.pgs_inconsistent} inconsistent, "
                f"{self.pgs_repairing} repairing"
            )
        return "\n".join(lines)


def check_health(cluster: CephCluster) -> HealthReport:
    """Compute the cluster's current health from live state.

    A PG is *degraded* when any acting-set OSD is down; *undersized*
    when fewer than ``min_size = k + 1`` of its shards are on up OSDs
    (the point where Ceph blocks client I/O).  Any undersized PG, full
    OSD, or scrub-detected *inconsistent* PG raises HEALTH_ERR; degraded
    PGs, down OSDs, nearfull devices, or PGs under scrub repair raise
    HEALTH_WARN.
    """
    osds_up = [osd_id for osd_id, osd in cluster.osds.items() if osd.is_up()]
    down = set(cluster.osds) - set(osds_up)
    out = set(cluster.monitor.out_osds)

    min_size = cluster.pool.code.k + 1
    degraded = 0
    undersized = 0
    clean = 0
    dirty_log = 0
    for pg in cluster.pool.pgs.values():
        if pg.log is not None and pg.log.dirty_shards():
            dirty_log += 1
        up_shards = sum(
            1 for osd_id in pg.acting if cluster.osds[osd_id].is_up()
        )
        if up_shards == len(pg.acting):
            clean += 1
            continue
        degraded += 1
        if up_shards < min_size:
            undersized += 1

    tiers: Dict[str, List[str]] = {
        "ok": [], "nearfull": [], "backfillfull": [], "full": []
    }
    for osd_id, osd in sorted(cluster.osds.items()):
        tier = cluster.config.capacity_tier(osd.disk.usage_ratio)
        tiers[tier].append(osd.name)
    nearfull = tiers["nearfull"]
    backfillfull = tiers["backfillfull"]
    full = tiers["full"]

    inconsistent = cluster.scrub.pgs_in(ScrubPhase.INCONSISTENT)
    repairing = cluster.scrub.pgs_in(ScrubPhase.REPAIRING)

    checks: List[str] = []
    if down:
        checks.append(f"{len(down)} osds down")
    if out:
        checks.append(f"{len(out)} osds out")
    if degraded:
        checks.append(f"{degraded} pgs degraded")
    if undersized:
        checks.append(f"{undersized} pgs undersized (below min_size)")
    if nearfull:
        checks.append(f"{len(nearfull)} nearfull osd(s)")
    if backfillfull:
        checks.append(f"{len(backfillfull)} backfillfull osd(s)")
    if full:
        checks.append(f"{len(full)} full osd(s)")
    if getattr(cluster.monitor, "write_paused", False):
        checks.append("client writes paused (osd(s) at full ratio)")
    if inconsistent:
        checks.append(f"{inconsistent} pgs inconsistent (scrub errors)")
    if repairing:
        checks.append(f"{repairing} pgs repairing (scrub auto-repair)")
    if dirty_log:
        checks.append(f"{dirty_log} pgs have unrepaired writes (pg_log dirty)")

    if undersized or full or inconsistent:
        status = HealthStatus.ERR
    elif checks:
        status = HealthStatus.WARN
    else:
        status = HealthStatus.OK

    return HealthReport(
        status=status,
        osds_total=len(cluster.osds),
        osds_up=len(osds_up),
        osds_out=len(out),
        pgs_total=len(cluster.pool.pgs),
        pgs_active_clean=clean,
        pgs_degraded=degraded,
        pgs_undersized=undersized,
        nearfull_osds=tuple(nearfull),
        full_osds=tuple(full),
        checks=tuple(checks),
        backfillfull_osds=tuple(backfillfull),
        pgs_inconsistent=inconsistent,
        pgs_repairing=repairing,
        pgs_dirty_log=dirty_log,
    )


def convergence_blockers(cluster: CephCluster) -> List[str]:
    """Why the cluster has not settled yet; empty once it has.

    The liveness, recovery, scrub and pin conditions that
    :func:`converged` and the chaos ``check_converged`` invariant share,
    one reason per failed condition.  A pure read: it neither kicks
    stale recovery nor judges the health verdict.
    """
    reasons: List[str] = []
    down = [osd.name for osd in cluster.osds.values() if not osd.is_up()]
    if down:
        reasons.append(f"OSDs still down after settle: {down}")
    # Liveness as the monitor sees it, not only the daemons: a restored
    # OSD stays marked down until its next heartbeat reaches the monitor.
    if cluster.monitor.down_since:
        reasons.append(
            f"OSDs still marked down after settle: "
            f"{sorted(cluster.monitor.down_since)}"
        )
    if cluster.monitor.out_osds:
        reasons.append(
            f"OSDs still out after settle: {sorted(cluster.monitor.out_osds)}"
        )
    if not cluster.recovery.idle:
        reasons.append("recovery still in flight after settle")
    if cluster.scrub.config.enabled and not cluster.scrub.quiescent():
        reasons.append(
            f"scrub not quiescent after settle "
            f"({cluster.integrity.corrupted_chunk_count()} corrupt chunks left)"
        )
    # A flap-dampening pin holds its OSD monitor-down even though the
    # daemon itself is healthy again; converged means the pin expired
    # and the OSD was marked back up.
    pins = sorted(cluster.monitor.active_pins())
    if pins:
        reasons.append(
            f"flap-dampening pins still active after settle: "
            f"{[f'osd.{osd_id}' for osd_id in pins]}"
        )
    return reasons


def converged(cluster: CephCluster) -> bool:
    """Every fault healed and health back to HEALTH_OK.

    Not a pure predicate: once :func:`convergence_blockers` is empty it
    calls ``cluster.recovery.kick_stale()``, which can queue delta
    recovery for dirty pg_logs and requeue toofull PGs, before judging
    health.  Calling it one more time (or one poll earlier) can
    therefore change a run's outcome, so each settle loop's check/poll
    order is part of its replay contract.
    """
    if convergence_blockers(cluster):
        return False
    # Byzantine lies outstanding (a stale-map gossip not yet rejected,
    # or a data-plane lie scrub has not exposed) mean the run has not
    # converged — keep settling until every lie is detected.
    byz = cluster.byzantine
    if byz is not None and not byz.quiescent():
        return False
    # Staleness with no down->up trigger (an OSD back within heartbeat
    # grace never looked down to the monitor) is caught here: kick delta
    # recovery for any dirty pg_log before judging health.
    if cluster.recovery.kick_stale():
        return False
    return check_health(cluster).status == HealthStatus.OK
