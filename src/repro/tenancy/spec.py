"""Tenant fleet specification: who drives load, with what guarantees.

A :class:`TenantFleetSpec` is the complete, JSON-round-trippable
description of a multi-tenant client fleet: each :class:`TenantSpec`
declares its own arrival process, read/write/RMW mix, QoS tags
(reservation/weight/limit shares for the per-OSD mClock scheduler) and
optionally an :class:`SloSpec` — the p99 latency bound and throughput
floor the tenant was sold.  The fleet spec also carries the QoS knobs of
the background classes (recovery, scrub) so one document pins the whole
arbitration problem.

The pre-tenancy model — one anonymous read/write client stream — is the
*legacy-equivalent* fleet: exactly one default-named tenant, uniform
arrivals, QoS disabled.  :meth:`TenantFleetSpec.is_legacy_equivalent`
detects it, and the fleet/experiment layers then reuse the legacy RNG
streams and digest shape byte-for-byte (the seed-stability contract).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from ..cluster.client import ARRIVAL_KINDS
from .mclock import QosClass

__all__ = [
    "SloSpec",
    "TenantSpec",
    "TenantFleetSpec",
    "ARRIVAL_KINDS",
    "LEGACY_TENANT_NAME",
    "tenant_class_name",
]

#: The tenant name the legacy-equivalent single stream uses.
LEGACY_TENANT_NAME = "default"


def tenant_class_name(tenant_name: str) -> str:
    """The QoS class a tenant's I/O is tagged with at each OSD."""
    return f"tenant:{tenant_name}"


@dataclass(frozen=True)
class SloSpec:
    """One tenant's declared service-level objective.

    ``p99_latency`` bounds the per-window p99 read latency (seconds);
    ``throughput_floor`` is the minimum completed client bytes/second a
    non-empty window must sustain (0 disables it).  Violations are
    judged over fixed ``window``-second windows, which is what makes
    them *attributable*: a violation window either overlaps a fault
    window or it does not.
    """

    p99_latency: float
    throughput_floor: float = 0.0
    window: float = 60.0

    def __post_init__(self):
        if self.p99_latency <= 0:
            raise ValueError("p99_latency must be positive")
        if self.throughput_floor < 0:
            raise ValueError("throughput_floor must be >= 0")
        if self.window <= 0:
            raise ValueError("window must be positive")

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, blob: Mapping[str, Any]) -> "SloSpec":
        return cls(
            p99_latency=float(blob["p99_latency"]),
            throughput_floor=float(blob.get("throughput_floor", 0.0)),
            window=float(blob.get("window", 60.0)),
        )


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: arrival process, op mix, QoS tags, optional SLO.

    ``interval`` is the mean seconds between ops (exact for ``uniform``
    arrivals, the exponential mean for ``poisson``).  ``reservation``,
    ``weight`` and ``limit`` feed the per-OSD mClock scheduler when the
    fleet enables QoS; with QoS off they are carried but inert.
    """

    name: str
    interval: float = 2.0
    arrival: str = "uniform"
    write_fraction: float = 0.0
    rmw_fraction: float = 0.5
    reservation: float = 0.0
    weight: float = 1.0
    limit: float = 0.0
    slo: Optional[SloSpec] = None

    def __post_init__(self):
        if not self.name or any(c in self.name for c in ":/ \t\n"):
            raise ValueError(
                f"tenant name must be non-empty without ':', '/' or "
                f"whitespace, got {self.name!r}"
            )
        if self.interval <= 0:
            raise ValueError("interval must be positive")
        if self.arrival not in ARRIVAL_KINDS:
            raise ValueError(
                f"unknown arrival {self.arrival!r}; allowed: {ARRIVAL_KINDS}"
            )
        for field_name in ("write_fraction", "rmw_fraction"):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field_name} must be in [0, 1], got {value}")
        # Delegate share validation to the QoS class constructor.
        self.qos_class()

    def qos_class(self) -> QosClass:
        """This tenant's mClock class (reservation/weight/limit)."""
        return QosClass(
            name=tenant_class_name(self.name),
            reservation=self.reservation,
            weight=self.weight,
            limit=self.limit,
        )

    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data["slo"] = self.slo.to_dict() if self.slo is not None else None
        return data

    @classmethod
    def from_dict(cls, blob: Mapping[str, Any]) -> "TenantSpec":
        slo = blob.get("slo")
        return cls(
            name=str(blob["name"]),
            interval=float(blob.get("interval", 2.0)),
            arrival=str(blob.get("arrival", "uniform")),
            write_fraction=float(blob.get("write_fraction", 0.0)),
            rmw_fraction=float(blob.get("rmw_fraction", 0.5)),
            reservation=float(blob.get("reservation", 0.0)),
            weight=float(blob.get("weight", 1.0)),
            limit=float(blob.get("limit", 0.0)),
            slo=SloSpec.from_dict(slo) if slo else None,
        )


@dataclass(frozen=True)
class TenantFleetSpec:
    """A fleet of tenants plus the background classes' QoS knobs.

    ``qos_enabled`` attaches per-OSD mClock schedulers; ``client_rate``
    converts client transfer sizes into admission service time.  The
    recovery/scrub knobs keep background repair competitive: with the
    default ``recovery_reservation`` the recovery stream is guaranteed
    the same device share the dedicated throttles grant it when QoS is
    off, which is what keeps recovery completion time comparable across
    the QoS on/off axis.
    """

    tenants: Tuple[TenantSpec, ...]
    qos_enabled: bool = False
    client_rate: float = 150e6
    recovery_reservation: float = 0.7
    recovery_weight: float = 2.0
    scrub_weight: float = 1.0

    def __post_init__(self):
        if not self.tenants:
            raise ValueError("fleet needs at least one tenant")
        names = [tenant.name for tenant in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {sorted(names)}")
        if self.client_rate <= 0:
            raise ValueError("client_rate must be positive")
        if not 0.0 <= self.recovery_reservation <= 1.0:
            raise ValueError("recovery_reservation must be in [0, 1]")
        if self.recovery_weight <= 0 or self.scrub_weight <= 0:
            raise ValueError("class weights must be positive")
        reserved = self.recovery_reservation + sum(
            tenant.reservation for tenant in self.tenants
        )
        if self.qos_enabled and reserved > 1.0 + 1e-9:
            raise ValueError(
                f"reservations oversubscribe the server: recovery "
                f"{self.recovery_reservation:g} + tenants sum to {reserved:g} > 1"
            )

    def is_legacy_equivalent(self) -> bool:
        """True when this fleet is the pre-tenancy single client stream.

        One tenant named :data:`LEGACY_TENANT_NAME`, uniform arrivals,
        QoS disabled: the fleet then consumes exactly the legacy RNG
        streams and its outcome digests stay byte-identical to the
        :class:`~repro.cluster.client.ClientLoadGenerator` path (the
        seed-stability regression pins this).  An SLO may still be
        declared — accounting draws nothing.
        """
        if self.qos_enabled or len(self.tenants) != 1:
            return False
        tenant = self.tenants[0]
        return tenant.name == LEGACY_TENANT_NAME and tenant.arrival == "uniform"

    def read_classes(self) -> Tuple[QosClass, ...]:
        """mClock classes of the read-side scheduler at each OSD."""
        return (
            QosClass(
                name="recovery",
                reservation=self.recovery_reservation,
                weight=self.recovery_weight,
            ),
            QosClass(name="scrub", weight=self.scrub_weight),
            *(tenant.qos_class() for tenant in self.tenants),
        )

    def write_classes(self) -> Tuple[QosClass, ...]:
        """mClock classes of the write-side scheduler at each OSD."""
        return self.read_classes()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tenants": [tenant.to_dict() for tenant in self.tenants],
            "qos_enabled": self.qos_enabled,
            "client_rate": self.client_rate,
            "recovery_reservation": self.recovery_reservation,
            "recovery_weight": self.recovery_weight,
            "scrub_weight": self.scrub_weight,
        }

    @classmethod
    def from_dict(cls, blob: Mapping[str, Any]) -> "TenantFleetSpec":
        return cls(
            tenants=tuple(
                TenantSpec.from_dict(tenant) for tenant in blob["tenants"]
            ),
            qos_enabled=bool(blob.get("qos_enabled", False)),
            client_rate=float(blob.get("client_rate", 150e6)),
            recovery_reservation=float(blob.get("recovery_reservation", 0.7)),
            recovery_weight=float(blob.get("recovery_weight", 2.0)),
            scrub_weight=float(blob.get("scrub_weight", 1.0)),
        )

    @classmethod
    def legacy(
        cls,
        interval: float = 2.0,
        write_fraction: float = 0.0,
        rmw_fraction: float = 0.5,
        slo: Optional[SloSpec] = None,
    ) -> "TenantFleetSpec":
        """The legacy-equivalent fleet (one default tenant, QoS off)."""
        return cls(
            tenants=(
                TenantSpec(
                    name=LEGACY_TENANT_NAME,
                    interval=interval,
                    write_fraction=write_fraction,
                    rmw_fraction=rmw_fraction,
                    slo=slo,
                ),
            ),
        )
