"""The campaign engine: run one campaign, check invariants, hash the outcome.

Unlike :meth:`Coordinator.run`, which drives one fixed experiment cycle,
the chaos engine steps a campaign through the simulation *action by
action* — advance the clock to the next scheduled fault, apply it, run
the invariant suite, repeat — then lets the cluster settle and demands
convergence.  Everything observable about the end state is folded into a
SHA-256 *outcome hash*; replaying the same spec must reproduce the same
hash bit-for-bit (asserted by the replay CLI and tests).
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..cluster.ceph import OVERWRITE_LEDGER_KEYS, CephCluster
from ..cluster.client import ClientLoadGenerator
from ..cluster.health import SETTLE_POLL, check_health, converged
from ..cluster.recovery import CASCADE_STAT_KEYS, DELTA_STAT_KEYS, GEO_STAT_KEYS
from ..core.controller import Controller
from ..core.digest import canonical_json, prune_zero
from ..core.fault_injector import FaultInjector, FaultToleranceError
from ..sim.rng import substream_seed
from ..tenancy.accounting import fleet_reports
from ..tenancy.fleet import TenantFleet
from ..tenancy.spec import LEGACY_TENANT_NAME, TenantFleetSpec
from .campaign import CampaignSpec
from .invariants import InvariantSuite, InvariantViolation, check_tenant_fairness
from .sampler import sample_campaign

__all__ = [
    "CampaignInvalid",
    "CampaignResult",
    "ChaosReport",
    "campaign_seed",
    "run_campaign",
    "run_chaos",
]

class CampaignInvalid(RuntimeError):
    """The schedule collided with live cluster state (not a failure).

    The sampler is valid-by-construction for everything it can see, but
    a few constraints depend on runtime state it cannot know — e.g. a
    corruption round landing on a stripe that still carries unrepaired
    damage from an earlier round.  Those campaigns are skipped (and
    counted), never reported as invariant violations.
    """


@dataclass
class CampaignResult:
    """Everything one campaign run produced."""

    spec: CampaignSpec
    outcome_hash: str
    violations: List[InvariantViolation]
    digest: Dict[str, Any]
    finished_at: float
    steps: int

    @property
    def passed(self) -> bool:
        return not self.violations


def run_campaign(
    spec: CampaignSpec, extra_checks: Tuple = ()
) -> CampaignResult:
    """Execute one campaign start-to-finish and return its result.

    Deterministic: the same spec always yields the same outcome hash.
    Raises :class:`CampaignInvalid` when the schedule cannot be applied.
    """
    controller = Controller(spec.to_profile(), seed=spec.seed)
    env = controller.env
    cluster = controller.cluster
    injector = controller.fault_injector
    suite = InvariantSuite(cluster, extra_checks=tuple(extra_checks))

    controller.coordinator.ingest_workload(spec.to_workload())

    # Write-enabled campaigns run a mixed read-write client stream (the
    # legacy-equivalent fleet) through the whole fault schedule, so
    # restores race live degraded writes — the arc the pg_log
    # delta-recovery invariants exercise.  Read-only campaigns
    # (write_interval == 0) construct none of this.
    load = fleet = fleet_proc = None
    if spec.write_interval > 0:
        writers = TenantFleet(
            cluster,
            TenantFleetSpec.legacy(
                spec.write_interval, spec.write_fraction, spec.rmw_fraction
            ),
            seeds=controller.seeds,
        )
        load = writers.tenants[LEGACY_TENANT_NAME].load
        fleet_proc = writers.run_for(spec.write_duration)

    # Tenant campaigns replace the single stream with a QoS-arbitrated
    # fleet and arm the fairness oracle: after settle, no reservation may
    # be starved and every SLO violation must be attributable to the
    # faulty portion of the run.
    if spec.tenant_fleet is not None:
        fleet = TenantFleet(cluster, spec.tenant_fleet, seeds=controller.seeds)
        fleet_proc = fleet.run_for(spec.tenant_duration)
        first_inject = next(
            (action.at for action in spec.actions if action.kind == "inject"),
            None,
        )
        suite.extra_final_checks = (
            lambda c: check_tenant_fairness(c, fleet, first_inject),
        )

    step = 0
    suite.check_step(step)

    for action in spec.actions:
        if action.at > env.now:
            env.run(until=action.at)
        if action.kind == "inject":
            try:
                injector.inject(action.fault_spec())
            except (FaultToleranceError, ValueError) as exc:
                raise CampaignInvalid(
                    f"action at t={action.at:g} not applicable: {exc}"
                ) from exc
        else:
            injector.restore_all()
        step += 1
        suite.check_step(step)

    if fleet_proc is not None:
        # Drain the client load (retries may outlive the fault window)
        # before judging convergence.
        env.run_until_process(fleet_proc)

    # Settle: poll until the cluster converges (or provably cannot, or
    # the budget runs out - the final check then reports the stall).
    deadline = env.now + spec.settle_time
    while env.now < deadline:
        # A flap-dampening pin holds its OSD down past the restore; its
        # expiry is a known, bounded future event, so the settle clock
        # restarts there instead of charging the pin against the budget.
        pins = cluster.monitor.active_pins()
        if pins:
            deadline = max(deadline, max(pins.values()) + spec.settle_time)
        env.run(until=min(env.now + SETTLE_POLL, deadline))
        step += 1
        suite.check_step(step)
        if converged(cluster):
            break
        if _stalled(cluster, injector):
            break

    step += 1
    suite.check_final(step)

    digest = outcome_digest(cluster, load=load, fleet=fleet)
    return CampaignResult(
        spec=spec,
        outcome_hash=hash_digest({k: v for k, v in digest.items() if k != "sim_steps"}),
        violations=list(suite.violations),
        digest=digest,
        finished_at=env.now,
        steps=step,
    )


def _stalled(cluster: CephCluster, injector: FaultInjector) -> bool:
    """Nothing further can change: un-restored faults fully processed.

    A shrunk schedule may legitimately end with faults still injected
    (ddmin dropped the restore); once every victim is marked out,
    recovery has drained and scrub is quiet, polling further only burns
    the settle budget - bail out and let the final check report it.
    """
    injected = injector.injected_osds
    if not injected:
        return False
    if not all(cluster.monitor.is_out(osd_id) for osd_id in injected):
        return False
    if not cluster.recovery.idle:
        return False
    if cluster.scrub.config.enabled and not cluster.scrub.quiescent():
        return False
    return True


# -- the outcome hash (the replay contract) -----------------------------------


def outcome_digest(
    cluster: CephCluster,
    load: Optional[ClientLoadGenerator] = None,
    fleet: Optional[TenantFleet] = None,
) -> Dict[str, Any]:
    """Canonical, JSON-serialisable snapshot of everything observable."""
    health = check_health(cluster)
    digest = {
        "sim_now": cluster.env.now,
        "sim_steps": cluster.env.steps,
        "health": {"status": health.status, "checks": list(health.checks)},
        "osds": {
            osd.name: {
                "up": osd.is_up(),
                "used_bytes": osd.used_bytes,
                "num_chunks": osd.backend.num_chunks,
            }
            for osd in cluster.osds.values()
        },
        "recovery": prune_zero(
            asdict(cluster.recovery.stats),
            DELTA_STAT_KEYS + GEO_STAT_KEYS + CASCADE_STAT_KEYS,
        ),
        "scrub": asdict(cluster.scrub.stats),
        "monitor": {
            "markdowns": cluster.monitor.markdowns_total,
            "pins": cluster.monitor.pins_total,
            "active_pins": sorted(cluster.monitor.active_pins()),
        },
        "ledger": prune_zero(asdict(cluster.ledger), OVERWRITE_LEDGER_KEYS),
        "corrupt_chunks": cluster.integrity.corrupted_chunk_count(),
        "logs": [
            [
                record.time,
                record.node,
                record.subsystem,
                record.message,
                [[key, value] for key, value in record.fields],
            ]
            for log in cluster.all_logs()
            for record in log.records
        ],
    }
    if cluster.byzantine is not None:
        # Present only when a Byzantine fault was actually injected, so
        # every pre-existing (honest) digest stays byte-identical.
        digest["byzantine"] = cluster.byzantine.digest_section()
    wan = cluster.topology.wan
    if wan is not None:
        # Only stretch clusters carry this section: single-region runs
        # never construct a WanFabric, so their digests are untouched.
        digest["wan"] = {
            "cross_region_transfers": wan.cross_region_transfers,
            "cross_region_bytes": wan.cross_region_bytes,
            "wan_partition_refusals": wan.wan_partition_refusals,
            "uplinks": [
                [up.egress_bytes, up.ingress_bytes] for up in wan.uplinks
            ],
            "egress_bytes_by_region": list(
                wan.ledger.egress_bytes_by_region
            ),
            "egress_cost": wan.ledger.total_cost,
        }
    if load is not None:
        writes = load.write_stats
        digest["writes"] = {
            "ok": len(writes.samples),
            "failed": writes.failures,
            "degraded": writes.degraded_count,
            "logical_bytes": writes.logical_bytes,
            "samples": writes.rows(),
        }
    if fleet is not None:
        tenants: Dict[str, Any] = {}
        for name in sorted(fleet.tenants):
            stream = fleet.tenants[name].load
            tenants[name] = {
                "reads_ok": len(stream.stats.samples),
                **stream.digest_sections(),
            }
        for report in fleet_reports(fleet):
            tenants[report.name]["slo_violations"] = [
                list(window) for window in report.slo_violations
            ]
        digest["tenants"] = tenants
        digest["qos"] = fleet.qos_class_totals()
    return digest


def hash_digest(digest: Dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON form of an outcome digest."""
    return hashlib.sha256(canonical_json(digest).encode("utf-8")).hexdigest()


# -- bulk campaigns ------------------------------------------------------------


def campaign_seed(root_seed: int, index: int) -> int:
    """Per-campaign seed: an independent substream of the root seed."""
    return substream_seed(root_seed, f"campaign-{index}")


@dataclass
class ChaosReport:
    """Summary of one bulk chaos run."""

    root_seed: int
    campaigns: int = 0
    passed: int = 0
    invalid: int = 0
    failures: List[CampaignResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_chaos(
    root_seed: int,
    campaigns: int,
    extra_checks: Tuple = (),
    on_campaign=None,
    stop_on_failure: bool = False,
    levels: Optional[Tuple[str, ...]] = None,
    writes: bool = False,
    tenants: bool = False,
    geo: bool = False,
    byzantine: bool = False,
    cascade: bool = False,
) -> ChaosReport:
    """Sample and run ``campaigns`` campaigns derived from ``root_seed``.

    ``on_campaign(index, spec, result_or_none, error_or_none)`` is called
    after each campaign (result is None for invalid ones) — the CLI uses
    it for progress output, tests for introspection.  ``levels``
    restricts which fault levels the sampler may draw (the CI gray-chaos
    job sweeps only the gray ones).  ``writes=True`` makes the sampler
    add a mixed read-write client load to every campaign, exercising the
    degraded write path and pg_log delta recovery.  ``tenants=True``
    instead drives every campaign with a sampled QoS-enabled tenant
    fleet and arms the fairness invariant (exclusive with ``writes``).
    ``geo=True`` re-shapes every campaign into a three-region stretch
    cluster with a region-aware fault schedule, arming the
    cross-region-byte accounting invariant (exclusive with both).
    ``byzantine=True`` replaces every schedule with lying-OSD faults
    (forged checksums, stale osdmap gossip, false write acks) and arms
    the byzantine-containment invariant (exclusive with all three).
    ``cascade=True`` samples correlated-failure campaigns — a whole
    rack (or host bucket) lost in one event plus aftershock device
    failures during the recovery window, under risk-prioritized
    recovery with exposure tracking — arming the priority-soundness
    and no-avoidable-loss invariants (exclusive with all four).
    """
    report = ChaosReport(root_seed=root_seed)
    for index in range(campaigns):
        spec = sample_campaign(
            campaign_seed(root_seed, index),
            levels=levels,
            writes=writes,
            tenants=tenants,
            geo=geo,
            byzantine=byzantine,
            cascade=cascade,
        )
        report.campaigns += 1
        try:
            result: Optional[CampaignResult] = run_campaign(spec, extra_checks)
        except CampaignInvalid as exc:
            report.invalid += 1
            if on_campaign is not None:
                on_campaign(index, spec, None, exc)
            continue
        if result.passed:
            report.passed += 1
        else:
            report.failures.append(result)
        if on_campaign is not None:
            on_campaign(index, spec, result, None)
        if report.failures and stop_on_failure:
            break
    return report
