"""Campaign specifications: one point in the config x workload x fault space.

A :class:`CampaignSpec` is a *complete, self-contained* description of one
chaos campaign: the sampled cluster configuration, the workload, and a
timed schedule of fault actions.  Everything the engine needs is in the
spec — nothing is re-sampled at run time — which is what makes a campaign
replayable byte-for-byte from its JSON form (the repro-artifact contract).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

from ..cluster.osd import CephConfig
from ..core.fault_injector import (
    BYZ_LEVELS,
    CASCADE_LEVELS,
    GEO_LEVELS,
    FaultSpec,
)
from ..core.profile import ExperimentProfile
from ..geo.wan import DEFAULT_WAN
from ..tenancy.spec import TenantFleetSpec
from ..workload.generator import Workload

__all__ = ["ScheduledAction", "CampaignSpec"]

#: Action kinds a schedule may contain.
ACTION_KINDS = ("inject", "restore")


@dataclass(frozen=True)
class ScheduledAction:
    """One timed step of a campaign.

    ``at`` is absolute simulation time (seconds).  ``kind`` is ``inject``
    (apply the embedded fault spec) or ``restore`` (undo every injected
    crash fault; silent corruption stays until a scrub repairs it).
    """

    at: float
    kind: str = "inject"
    level: str = "node"
    count: int = 1
    colocation: str = "any"
    corruption: str = "bit_rot"
    # -- gray-fault parameters (only read for the matching level) -------------
    factor: float = 4.0
    loss: float = 0.0
    latency: float = 0.0
    bandwidth_penalty: float = 1.0
    partition: bool = False
    flap_interval: float = 60.0
    # -- correlated-crash parameter (only read for that level) ----------------
    domain: str = "host"

    def __post_init__(self):
        if self.at < 0:
            raise ValueError(f"action time must be >= 0, got {self.at}")
        if self.kind not in ACTION_KINDS:
            raise ValueError(
                f"unknown action kind {self.kind!r}; allowed: {ACTION_KINDS}"
            )
        if self.kind == "inject":
            # Fail at spec-build time, not mid-campaign.
            self.fault_spec()

    def fault_spec(self) -> FaultSpec:
        """The FaultSpec an inject action applies (validates fields)."""
        return FaultSpec(
            level=self.level,
            count=self.count,
            colocation=self.colocation,
            corruption=self.corruption,
            factor=self.factor,
            loss=self.loss,
            latency=self.latency,
            bandwidth_penalty=self.bandwidth_penalty,
            partition=self.partition,
            flap_interval=self.flap_interval,
            domain=self.domain,
        )

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScheduledAction":
        return cls(**data)


@dataclass(frozen=True)
class CampaignSpec:
    """One sampled campaign: seed, configuration, workload, schedule."""

    seed: int
    # -- cluster configuration (the sampled Table-1 row) ---------------------
    ec_plugin: str = "jerasure"
    ec_params: Tuple[Tuple[str, int], ...] = (("k", 4), ("m", 2))
    pg_num: int = 8
    stripe_unit: int = 262144
    cache_scheme: str = "autotune"
    failure_domain: str = "host"
    num_hosts: int = 8
    osds_per_host: int = 2
    #: Racks the hosts are dealt across (round-robin).  1 (the default)
    #: keeps the classic rack-less cluster: byte-identical digests.
    num_racks: int = 1
    scrub_interval: float = 0.0
    scrub_pgs_per_batch: int = 2
    # -- stretch-cluster shape ------------------------------------------------
    #: Regions the hosts are dealt across.  1 (the default) keeps the
    #: classic single-site cluster: no WAN fabric, byte-identical digests.
    num_regions: int = 1
    wan_egress_bandwidth: float = DEFAULT_WAN.egress_bandwidth
    wan_ingress_bandwidth: float = DEFAULT_WAN.ingress_bandwidth
    wan_latency: float = DEFAULT_WAN.latency
    wan_egress_cost_per_gib: float = DEFAULT_WAN.egress_cost_per_gib
    # -- daemon tunables kept fast enough for bulk campaigns -----------------
    mon_osd_down_out_interval: float = 60.0
    # -- cascade resilience ---------------------------------------------------
    #: PG recovery servicing order: "fifo" (the legacy order, default —
    #: byte-identical digests) or "risk" (redundancy-margin priority).
    recovery_priority: str = "fifo"
    #: Track per-PG time-at-minimum-redundancy in RecoveryStats.  Off by
    #: default: the extra float stays pruned-at-zero either way, but the
    #: accounting is only meaningful for cascade campaigns.
    track_risk_exposure: bool = False
    # -- workload -------------------------------------------------------------
    num_objects: int = 20
    object_size: int = 1048576
    size_jitter: float = 0.0
    # -- client write load ----------------------------------------------------
    #: Mean seconds between client ops while the mixed load runs.  0.0
    #: (the default) means no client load: the campaign is read-only and
    #: byte-identical to the pre-write-path model.
    write_interval: float = 0.0
    #: Fraction of client ops that are writes (rest are reads).
    write_fraction: float = 0.5
    #: Fraction of writes that are partial-stripe RMWs (rest full).
    rmw_fraction: float = 0.5
    #: How long (sim-seconds, from campaign start) the mixed load runs.
    write_duration: float = 0.0
    # -- tenant fleet ---------------------------------------------------------
    #: Optional multi-tenant client fleet (with per-tenant QoS tags and
    #: SLOs) driving the load instead of the single anonymous stream.
    #: Exclusive with ``write_interval > 0`` — the fleet *replaces* the
    #: legacy client, it does not run beside it.
    tenant_fleet: Optional[TenantFleetSpec] = None
    #: How long (sim-seconds, from campaign start) the fleet runs.
    tenant_duration: float = 0.0
    # -- fault schedule -------------------------------------------------------
    actions: Tuple[ScheduledAction, ...] = field(default_factory=tuple)
    #: Sim-time budget for the final settle phase (recovery + scrub drain).
    settle_time: float = 50_000.0

    def __post_init__(self):
        if self.settle_time <= 0:
            raise ValueError("settle_time must be positive")
        if self.write_interval < 0:
            raise ValueError("write_interval must be >= 0")
        for name in ("write_fraction", "rmw_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value}")
        if self.write_interval > 0 and self.write_duration <= 0:
            raise ValueError(
                "a write-enabled campaign (write_interval > 0) needs "
                "write_duration > 0"
            )
        if self.tenant_fleet is not None:
            if self.tenant_duration <= 0:
                raise ValueError(
                    "a tenant campaign (tenant_fleet set) needs "
                    "tenant_duration > 0"
                )
            if self.write_interval > 0:
                raise ValueError(
                    "tenant_fleet and write_interval are exclusive: the "
                    "fleet replaces the single client stream"
                )
        times = [action.at for action in self.actions]
        if times != sorted(times):
            raise ValueError("schedule actions must be time-ordered")
        if self.num_regions < 1:
            raise ValueError("num_regions must be >= 1")
        if self.num_regions > 1:
            # Geo campaigns are read-only with scrubbing off so the
            # cross-region-byte invariant is *exact*: recovery is then
            # the only subsystem moving bytes over the fabric, and its
            # counters must equal the WAN fabric's delivered total.
            if self.scrub_interval > 0:
                raise ValueError(
                    "geo campaigns (num_regions > 1) require scrubbing "
                    "disabled (scrub_interval == 0)"
                )
            if self.write_interval > 0 or self.tenant_fleet is not None:
                raise ValueError(
                    "geo campaigns (num_regions > 1) are exclusive with "
                    "client write load and tenant fleets"
                )
        elif any(
            action.kind == "inject" and action.level in GEO_LEVELS
            for action in self.actions
        ):
            raise ValueError(
                "region-level fault actions require a stretch cluster "
                "(num_regions > 1)"
            )
        if self.scrub_interval <= 0 and any(
            action.kind == "inject"
            and action.level in ("corrupt", "byz_corrupt_data", "byz_false_ack")
            for action in self.actions
        ):
            raise ValueError(
                "corrupt/byz data-plane actions need scrubbing enabled "
                "(scrub_interval > 0); nothing would ever detect or repair "
                "the damage"
            )
        if self.num_racks < 1:
            raise ValueError("num_racks must be >= 1")
        if self.recovery_priority not in ("fifo", "risk"):
            raise ValueError(
                f"recovery_priority must be 'fifo' or 'risk', "
                f"got {self.recovery_priority!r}"
            )
        for action in self.actions:
            if action.kind != "inject" or action.level not in CASCADE_LEVELS:
                continue
            if action.domain == "rack" and self.num_racks <= 1:
                raise ValueError(
                    "rack-level correlated_crash actions require a "
                    "racked cluster (num_racks > 1)"
                )
            if action.domain == "region" and self.num_regions <= 1:
                raise ValueError(
                    "region-level correlated_crash actions require a "
                    "stretch cluster (num_regions > 1)"
                )
        if any(
            action.kind == "inject" and action.level in BYZ_LEVELS
            for action in self.actions
        ):
            # Byzantine campaigns are read-only and single-region so the
            # containment invariant is *provable*: with no client ever
            # constructed there are zero reads to serve wrongly, and the
            # single-site detection paths (scrub, peering, heartbeat
            # epoch checks) are the only moving parts under test.
            if self.write_interval > 0 or self.tenant_fleet is not None:
                raise ValueError(
                    "byzantine fault actions are exclusive with client "
                    "write load and tenant fleets (containment must be "
                    "judged without racing writers)"
                )
            if self.num_regions > 1:
                raise ValueError(
                    "byzantine fault actions require a single-region "
                    "cluster (num_regions == 1)"
                )

    # -- factories ------------------------------------------------------------

    def to_profile(self) -> ExperimentProfile:
        """The ExperimentProfile this campaign deploys (validated)."""
        return ExperimentProfile(
            name=f"chaos-{self.seed}",
            ec_plugin=self.ec_plugin,
            ec_params=dict(self.ec_params),
            pg_num=self.pg_num,
            stripe_unit=self.stripe_unit,
            cache_scheme=self.cache_scheme,
            failure_domain=self.failure_domain,
            num_hosts=self.num_hosts,
            osds_per_host=self.osds_per_host,
            num_racks=self.num_racks,
            scrub_interval=self.scrub_interval,
            scrub_pgs_per_batch=self.scrub_pgs_per_batch,
            num_regions=self.num_regions,
            wan_egress_bandwidth=self.wan_egress_bandwidth,
            wan_ingress_bandwidth=self.wan_ingress_bandwidth,
            wan_latency=self.wan_latency,
            wan_egress_cost_per_gib=self.wan_egress_cost_per_gib,
            ceph=CephConfig(
                mon_osd_down_out_interval=self.mon_osd_down_out_interval,
                osd_recovery_priority=self.recovery_priority,
                osd_track_risk_exposure=self.track_risk_exposure,
            ),
        )

    def to_workload(self) -> Workload:
        return Workload(
            num_objects=self.num_objects,
            object_size=self.object_size,
            size_jitter=self.size_jitter,
        )

    def with_actions(self, actions) -> "CampaignSpec":
        """A copy of the spec with a different (shrunk) schedule."""
        return replace(self, actions=tuple(actions))

    # -- JSON round-trip (the replay contract) --------------------------------

    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data["ec_params"] = {key: value for key, value in self.ec_params}
        data["actions"] = [action.to_dict() for action in self.actions]
        data["tenant_fleet"] = (
            self.tenant_fleet.to_dict() if self.tenant_fleet is not None else None
        )
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        payload = dict(data)
        payload["ec_params"] = tuple(
            sorted((str(k), int(v)) for k, v in payload["ec_params"].items())
        )
        payload["actions"] = tuple(
            ScheduledAction.from_dict(action) for action in payload["actions"]
        )
        fleet = payload.get("tenant_fleet")
        payload["tenant_fleet"] = (
            TenantFleetSpec.from_dict(fleet) if fleet else None
        )
        return cls(**payload)
