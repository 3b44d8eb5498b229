"""Global invariant oracles checked after every campaign step.

Each checker inspects live cluster state and returns a list of
:class:`InvariantViolation` (empty when the invariant holds).  The
checkers are deliberately *redundant* with the mechanisms they watch —
durability re-derives decodability from the code itself, byte
conservation re-adds the ledger against the OSD backends — so a bug in
either side trips the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..cluster.ceph import CephCluster
from ..cluster.health import HealthStatus, check_health, convergence_blockers
from ..core.timeline import first_nonmonotone
from ..tenancy.accounting import fleet_reports
from ..tenancy.fleet import TenantFleet

__all__ = [
    "InvariantViolation",
    "check_durability",
    "check_wa_conservation",
    "check_log_monotonicity",
    "check_log_bounded_repair",
    "check_converged",
    "check_version_convergence",
    "check_cross_region_accounting",
    "check_byzantine_containment",
    "check_priority_soundness",
    "check_no_avoidable_loss",
    "check_tenant_fairness",
    "InvariantSuite",
]


@dataclass(frozen=True)
class InvariantViolation:
    """One invariant failure, with enough context to debug and replay."""

    invariant: str
    detail: str
    at_time: float
    step: int = -1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "invariant": self.invariant,
            "detail": self.detail,
            "at_time": self.at_time,
            "step": self.step,
        }


def check_durability(cluster: CephCluster) -> List[InvariantViolation]:
    """No acked write may become undecodable within guaranteed tolerance.

    For every stored object: its damaged shards
    (:meth:`~repro.cluster.ceph.CephCluster.damaged_shards`: down,
    stale, silently corrupt or falsely acked) must stay within the
    code's guaranteed fault tolerance, *and* the code itself must
    produce a repair plan for exactly that loss pattern — the
    decodability oracle is the erasure code, not the injector's
    bookkeeping.
    """
    violations: List[InvariantViolation] = []
    code = cluster.pool.code
    tolerance = code.fault_tolerance()
    now = cluster.env.now
    for pg in cluster.pool.pgs.values():
        if not pg.objects:
            continue
        down = cluster.down_shards(pg)
        for obj in pg.objects:
            damaged = cluster.damaged_shards(pg, obj, down)
            if not damaged:
                continue
            if len(damaged) > tolerance:
                violations.append(
                    InvariantViolation(
                        "durability",
                        f"object {pg.pgid}/{obj.name} has {len(damaged)} damaged "
                        f"shards {sorted(damaged)} > guaranteed tolerance "
                        f"{tolerance} of {code.plugin_name}({code.n},{code.k})",
                        at_time=now,
                    )
                )
                continue
            alive = [s for s in range(code.n) if s not in damaged]
            try:
                code.repair_plan(sorted(damaged), alive)
            except Exception as exc:  # noqa: BLE001 - any failure is the finding
                violations.append(
                    InvariantViolation(
                        "durability",
                        f"object {pg.pgid}/{obj.name} undecodable with damage "
                        f"{sorted(damaged)} (within tolerance {tolerance}): {exc}",
                        at_time=now,
                    )
                )
    return violations


def check_wa_conservation(cluster: CephCluster) -> List[InvariantViolation]:
    """WA accounting conserves bytes, exactly.

    client + parity/padding + metadata + repair must equal the summed
    OSD-level usage — the two sides are maintained by independent code
    paths (the ledger at the write sites, the BlueStore counters inside
    the backends), so any drift between them is an accounting bug.
    """
    ledger = cluster.ledger
    used = cluster.used_bytes_total()
    if ledger.device_bytes == used:
        return []
    return [
        InvariantViolation(
            "wa-conservation",
            f"ledger says {ledger.device_bytes} B "
            f"(client={ledger.client_bytes} parity+padding="
            f"{ledger.parity_padding_bytes} metadata={ledger.metadata_bytes} "
            f"repair={ledger.repair_bytes}) but OSDs account {used} B "
            f"(drift {used - ledger.device_bytes:+d})",
            at_time=cluster.env.now,
        )
    ]


def check_log_monotonicity(cluster: CephCluster) -> List[InvariantViolation]:
    """Every node's log must be time-monotone (append-only, clock-forward)."""
    violations: List[InvariantViolation] = []
    for log in cluster.all_logs():
        index = first_nonmonotone(log.records)
        if index is not None:
            violations.append(
                InvariantViolation(
                    "timeline-monotone",
                    f"log of {log.node} runs backwards at record {index}: "
                    f"{log.records[index]}",
                    at_time=cluster.env.now,
                )
            )
    return violations


def check_log_bounded_repair(cluster: CephCluster) -> List[InvariantViolation]:
    """Delta recovery never moves more bytes than its accrued allowance.

    Every delta attempt credits its planned pull+push bytes to
    ``delta_budget_bytes`` *before* the I/O runs, and the budget only
    grows with objects actually dirtied during an outage (plus
    gray-fault retries).  Spent bytes overtaking the budget means delta
    recovery is doing work the log never justified — e.g. silently
    degenerating into a full sweep while still counting as "delta".
    """
    stats = cluster.recovery.stats
    spent = stats.delta_bytes_read + stats.delta_bytes_written
    if spent <= stats.delta_budget_bytes:
        return []
    return [
        InvariantViolation(
            "log-bounded-repair",
            f"delta recovery moved {spent} B "
            f"(read={stats.delta_bytes_read} written={stats.delta_bytes_written}) "
            f"> accrued dirty-object allowance {stats.delta_budget_bytes} B",
            at_time=cluster.env.now,
        )
    ]


def check_version_convergence(cluster: CephCluster) -> List[InvariantViolation]:
    """After settle, every live shard agrees on each object's version.

    The pg_log tracks the last version each shard applied.  Once all
    faults are restored and repair has drained, a shard on an up OSD
    still behind the committed object version means a write was lost:
    neither the write path (refresh on overwrite), delta recovery, nor
    backfill brought it current.
    """
    violations: List[InvariantViolation] = []
    now = cluster.env.now
    for pg in cluster.pool.pgs.values():
        log = pg.log
        if log is None:
            continue
        for name, version in log.object_version.items():
            for shard, shard_version in enumerate(log.shard_versions[name]):
                if not cluster.osds[pg.acting[shard]].is_up():
                    continue
                if shard_version != version:
                    violations.append(
                        InvariantViolation(
                            "version-convergence",
                            f"object {pg.pgid}/{name} shard {shard} applied "
                            f"version {shard_version} != committed {version} "
                            f"after settle",
                            at_time=now,
                        )
                    )
    return violations


def check_cross_region_accounting(cluster: CephCluster) -> List[InvariantViolation]:
    """Recovery's cross-region byte counters match the WAN fabric's, exactly.

    Two independent bookkeepers watch the same traffic: the recovery
    manager counts every helper pull and shard push whose endpoints sit
    in different regions, and the WAN fabric counts every payload byte
    delivered across an uplink.  On a read-only stretch campaign with
    scrubbing off, recovery is the *only* subsystem moving bytes between
    regions — so the two totals must agree to the byte.  Any drift means
    either a repair transfer dodged the WAN model or the locality
    accounting misclassified an endpoint.

    Vacuous (returns ``[]``) on single-region clusters and skipped when
    scrubbing is enabled, since scrub repair pulls ride the same fabric
    outside recovery's ledger.
    """
    wan = cluster.topology.wan
    if wan is None:
        return []
    if cluster.scrub.config.enabled:
        return []
    stats = cluster.recovery.stats
    recovered = stats.cross_region_bytes_read + stats.cross_region_bytes_written
    if recovered == wan.cross_region_bytes:
        return []
    return [
        InvariantViolation(
            "cross-region-accounting",
            f"recovery counted {recovered} cross-region B "
            f"(read={stats.cross_region_bytes_read} "
            f"written={stats.cross_region_bytes_written}) but the WAN "
            f"fabric delivered {wan.cross_region_bytes} B "
            f"(drift {wan.cross_region_bytes - recovered:+d})",
            at_time=cluster.env.now,
        )
    ]


def check_priority_soundness(cluster: CephCluster) -> List[InvariantViolation]:
    """Risk-prioritized recovery admits most-at-risk PGs first.

    Every risk-mode admission snapshots the redundancy margins of the
    PGs still waiting at that instant (:class:`~repro.cluster.recovery.
    AdmissionRecord`); a waiting PG with a strictly smaller margin than
    the one admitted means a stripe closer to data loss was left behind
    a safer one.  Vacuous on FIFO runs — they record no admissions —
    and safe to run step-wise (the log only grows).
    """
    violations: List[InvariantViolation] = []
    for record in cluster.recovery.admission_log:
        behind = [m for m in record.pending_margins if m < record.margin]
        if behind:
            violations.append(
                InvariantViolation(
                    "priority-soundness",
                    f"pg {record.pg_id} (margin {record.margin}) admitted at "
                    f"t={record.at:g} ahead of {len(behind)} pending PG(s) at "
                    f"lower margin {sorted(behind)}",
                    at_time=record.at,
                )
            )
    return violations


def check_no_avoidable_loss(cluster: CephCluster) -> List[InvariantViolation]:
    """Data loss never occurs while a viable alternative placement existed.

    Checked once after settle.  The recovery manager keeps an audit
    trail of every PG it abandoned while a healthy placement with spare
    capacity demonstrably existed (``_abandoned_with_alternative``);
    entries clear when the PG later recovers.  A surviving entry whose
    PG ended the run below k live shards convicts the recovery policy:
    the data was lost even though, at abandon time, the cluster had
    somewhere safe to put it.
    """
    violations: List[InvariantViolation] = []
    recovery = cluster.recovery
    k = cluster.pool.code.k
    now = cluster.env.now
    for pg_id, abandoned_at in sorted(
        recovery._abandoned_with_alternative.items()
    ):
        pg = cluster.pool.pgs[pg_id]
        alive = sum(
            1 for osd_id in pg.acting if cluster.osds[osd_id].is_up()
        )
        if alive < k:
            violations.append(
                InvariantViolation(
                    "no-avoidable-loss",
                    f"pg {pg.pgid} ended with {alive} < k={k} live shards "
                    f"but a healthy placement with spare capacity existed "
                    f"when recovery abandoned it at t={abandoned_at:g}",
                    at_time=now,
                )
            )
    return violations


def check_converged(cluster: CephCluster) -> List[InvariantViolation]:
    """End-of-campaign convergence: restore + recovery + scrub => HEALTH_OK.

    Called once after the settle phase.  Every fault was restored and
    every repair given time to drain, so the cluster must report clean
    health: one violation per :func:`convergence_blockers` reason (no
    down/out OSDs, none marked down by the monitor, recovery idle, scrub
    quiescent, no flap pin in force), and the live health verdict back
    at HEALTH_OK (the ERR -> WARN -> OK arc).
    """
    now = cluster.env.now
    violations = [
        InvariantViolation("health-convergence", reason, at_time=now)
        for reason in convergence_blockers(cluster)
    ]
    report = check_health(cluster)
    if report.status != HealthStatus.OK:
        violations.append(
            InvariantViolation(
                "health-convergence",
                f"health is {report.status} after settle: {list(report.checks)}",
                at_time=now,
            )
        )
    return violations


def check_byzantine_containment(cluster: CephCluster) -> List[InvariantViolation]:
    """Byzantine lies stay contained: no wrong reads, every lie detected.

    Checked once after settle (detection latency is the point — a lie
    *mid-run* is not a violation).  Vacuous on honest runs: clusters
    that never saw a Byzantine fault carry no ``ByzantineState``.

    * **Zero wrong reads** — no client read was ever served from a shard
      that was still lying (undetected forged checksum or false-acked
      write) at read time.  Detection ends the lie; reads after that are
      served from repaired/excluded shards and are fine.
    * **Total detection** — by end of settle every injected lie must
      have been caught by some defense (deep-scrub EC cross-check,
      peering version check, or the monitor's epoch-mismatch rejection)
      with its time-to-detection recorded in the digest.
    """
    byz = cluster.byzantine
    if byz is None:
        return []
    violations: List[InvariantViolation] = []
    now = cluster.env.now
    if byz.wrong_reads_served > 0:
        violations.append(
            InvariantViolation(
                "byzantine-containment",
                f"{byz.wrong_reads_served} client reads served from "
                f"still-lying shards before detection",
                at_time=now,
            )
        )
    for record in byz.records:
        if record.detected_at is None:
            violations.append(
                InvariantViolation(
                    "byzantine-containment",
                    f"{record.level} on osd.{record.osd_id}"
                    + (
                        f" ({record.pgid}/{record.object_name} "
                        f"shard {record.shard})"
                        if record.pgid
                        else ""
                    )
                    + f" injected at t={record.injected_at:g} "
                    f"never detected by end of settle",
                    at_time=now,
                )
            )
    return violations


def check_tenant_fairness(
    cluster: CephCluster,
    fleet: TenantFleet,
    fault_start: Optional[float],
) -> List[InvariantViolation]:
    """QoS kept its promises: no starved reservation, violations attributable.

    Checked once after settle, when the fleet has drained and every
    restored fault has had time to heal:

    * **No starvation** — no request is still queued in any scheduler,
      and every QoS class that enqueued work was fully served.  A class
      holding a nonzero reservation that still has a backlog means
      mClock let other classes eat its guaranteed share.
    * **Attributability** — every tenant SLO-violation window must
      overlap the faulty portion of the run (first injection onward;
      recovery competition legitimately outlives the restore).  A
      violation in the fault-free prefix means QoS alone — with the
      cluster healthy — failed the tenant's declared SLO.
    """
    violations: List[InvariantViolation] = []
    now = cluster.env.now
    pending = fleet.qos_pending()
    if pending:
        violations.append(
            InvariantViolation(
                "qos-starvation",
                f"{pending} requests still queued in QoS schedulers after "
                f"settle",
                at_time=now,
            )
        )
    reservations = {
        qos_class.name: qos_class.reservation
        for qos_class in fleet.spec.read_classes()
    }
    for name, totals in sorted(fleet.qos_class_totals().items()):
        backlog = totals["enqueued"] - totals["served"]
        if backlog > 0:
            violations.append(
                InvariantViolation(
                    "qos-starvation",
                    f"class {name} (reservation "
                    f"{reservations.get(name, 0.0):g}) still has {backlog:g} "
                    f"unserved requests after settle",
                    at_time=now,
                )
            )
    if fleet.started_at is not None:
        for report in fleet_reports(fleet):
            for start, end in report.slo_violations:
                if fault_start is None or end < fault_start:
                    violations.append(
                        InvariantViolation(
                            "slo-attribution",
                            f"tenant {report.name} violated its SLO in "
                            f"[{start:g}, {end:g}] "
                            + (
                                "with no fault ever injected"
                                if fault_start is None
                                else f"before the first fault at {fault_start:g}"
                            ),
                            at_time=now,
                        )
                    )
    return violations


#: The step-wise checkers (convergence checks are end-of-campaign only).
STEP_CHECKS = (
    check_durability,
    check_wa_conservation,
    check_log_monotonicity,
    check_log_bounded_repair,
    check_cross_region_accounting,
    check_priority_soundness,
)


@dataclass
class InvariantSuite:
    """Runs the step-wise checkers and accumulates violations.

    ``extra_checks`` lets tests (and the shrinker's harness) plug in
    additional oracles with the same ``cluster -> [violation]`` shape.
    ``extra_final_checks`` are run only by :meth:`check_final` — for
    oracles that would false-positive mid-run (e.g. tenant fairness,
    which must wait for the fleet and the schedulers to drain).
    """

    cluster: CephCluster
    extra_checks: tuple = ()
    extra_final_checks: tuple = ()
    violations: List[InvariantViolation] = field(default_factory=list)

    def check_step(self, step: int) -> List[InvariantViolation]:
        """Run all step-wise invariants; record and return new violations."""
        found: List[InvariantViolation] = []
        for checker in (*STEP_CHECKS, *self.extra_checks):
            for violation in checker(self.cluster):
                found.append(
                    InvariantViolation(
                        violation.invariant,
                        violation.detail,
                        violation.at_time,
                        step=step,
                    )
                )
        self.violations.extend(found)
        return found

    def check_final(self, step: int) -> List[InvariantViolation]:
        """Run the end-of-campaign convergence checks on top of a step check."""
        found = self.check_step(step)
        for checker in (
            check_converged,
            check_version_convergence,
            check_byzantine_containment,
            check_no_avoidable_loss,
            *self.extra_final_checks,
        ):
            for violation in checker(self.cluster):
                stamped = InvariantViolation(
                    violation.invariant, violation.detail, violation.at_time,
                    step=step,
                )
                found.append(stamped)
                self.violations.append(stamped)
        return found
