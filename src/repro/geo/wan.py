"""WAN fabric: per-region uplinks, asymmetric bandwidth, egress costs.

A stretch cluster keeps the intra-region network model untouched — host
NICs into a non-blocking switch — and adds one WAN uplink per region.
A cross-region transfer pays, in order: the ordinary endpoint charge
sequence (sender egress, propagation including the WAN's one-way
latency, loss lottery, receiver ingress), then serialises on the source
region's uplink *egress* and the destination region's uplink *ingress*.
Uplinks are asymmetric — cloud regions commonly sell less egress than
ingress — and every delivered cross-region byte is charged to the
source region's egress-cost ledger, which is how repair traffic becomes
a dollar figure in reports.

Like the LAN fabric, the healthy path draws no RNG and adds no events
beyond the charges above, so stretch-cluster runs are deterministic and
single-region runs (which never construct a :class:`WanFabric`) stay
byte-identical to the pre-geo model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..cluster.network import Fabric, NetworkPartitionedError, Nic, _Transfer
from ..sim import Environment, ServiceCenter

__all__ = [
    "WanSpec",
    "DEFAULT_WAN",
    "WanUplink",
    "EgressLedger",
    "WanFabric",
]

GIB = float(1 << 30)


@dataclass(frozen=True)
class WanSpec:
    """Static envelope of one region's WAN uplink.

    ``egress_bandwidth``/``ingress_bandwidth`` are bytes/second in each
    direction (asymmetric by default), ``latency`` the one-way
    inter-region propagation delay, and ``egress_cost_per_gib`` the
    metered price of every byte leaving a region.
    """

    name: str = "wan-default"
    egress_bandwidth: float = 6.25e8  # ~5 Gb/s metered egress
    ingress_bandwidth: float = 1.25e9  # ~10 Gb/s ingress
    latency: float = 0.03  # 30 ms one-way, inter-continental-ish
    egress_cost_per_gib: float = 0.02  # USD per GiB leaving a region

    def __post_init__(self):
        if self.egress_bandwidth <= 0 or self.ingress_bandwidth <= 0:
            raise ValueError("WAN bandwidth must be positive")
        if self.latency < 0:
            raise ValueError("WAN latency must be non-negative")
        if self.egress_cost_per_gib < 0:
            raise ValueError("egress cost must be non-negative")

    def egress_cost(self, nbytes: int) -> float:
        return nbytes * self.egress_cost_per_gib / GIB


#: The stock stretch-cluster WAN profile used when none is given.
DEFAULT_WAN = WanSpec()


class WanUplink:
    """One region's WAN attachment: independent egress/ingress queues."""

    def __init__(self, env: Environment, spec: WanSpec, region_id: int):
        self.env = env
        self.spec = spec
        self.region_id = region_id
        self.name = f"wan-r{region_id}"
        self.egress = ServiceCenter(env, servers=1, name=f"{self.name}:tx")
        self.ingress = ServiceCenter(env, servers=1, name=f"{self.name}:rx")
        self.egress_bytes = 0
        self.ingress_bytes = 0
        #: Severed by the ``wan_partition`` fault level.
        self.partitioned = False

    def egress_time(self, nbytes: int) -> float:
        return nbytes / self.spec.egress_bandwidth

    def ingress_time(self, nbytes: int) -> float:
        return nbytes / self.spec.ingress_bandwidth

    def sever(self) -> None:
        """Cut this region off from the WAN (intra-region unaffected)."""
        self.partitioned = True

    def restore(self) -> None:
        self.partitioned = False


@dataclass
class EgressLedger:
    """Per-region metered egress: bytes out and their dollar cost."""

    spec: WanSpec
    egress_bytes_by_region: List[int] = field(default_factory=list)

    def charge(self, region_id: int, nbytes: int) -> None:
        while len(self.egress_bytes_by_region) <= region_id:
            self.egress_bytes_by_region.append(0)
        self.egress_bytes_by_region[region_id] += nbytes

    @property
    def total_bytes(self) -> int:
        return sum(self.egress_bytes_by_region)

    @property
    def total_cost(self) -> float:
        return self.spec.egress_cost(self.total_bytes)

    def cost_of(self, region_id: int) -> float:
        if region_id >= len(self.egress_bytes_by_region):
            return 0.0
        return self.spec.egress_cost(self.egress_bytes_by_region[region_id])


class _WanTransfer(_Transfer):
    """A transfer through a :class:`WanFabric`.

    Loopback and intra-region transfers take the LAN chain unchanged.
    A cross-region transfer is refused after a timeout when either
    region's uplink is severed; otherwise it pays the LAN hop with the
    WAN's one-way latency folded into the propagation step, then
    serialises on the source region's uplink egress and the destination
    region's uplink ingress.
    """

    __slots__ = ("src_region", "up", "down")

    def _route(self, arg) -> None:
        fabric, src, dst = self.fabric, self.src, self.dst
        src_region = fabric.region_of_nic(src)
        dst_region = fabric.region_of_nic(dst)
        self.up = None
        if src is dst or src_region == dst_region:
            super()._route(arg)
            return
        up = fabric.uplinks[src_region]
        down = fabric.uplinks[dst_region]
        if up.partitioned or down.partitioned:
            fabric.wan_partition_refusals += 1
            # Senders learn about a severed uplink by timeout: one LAN
            # propagation to the edge plus one WAN round trip's worth.
            self.sleep(
                src.spec.latency + fabric.spec.latency,
                self.fail,
                NetworkPartitionedError(
                    f"transfer {src.name} -> {dst.name} crossed a severed "
                    f"WAN uplink (regions {src_region} -> {dst_region})"
                ),
            )
            return
        self.src_region, self.up, self.down = src_region, up, down
        self._charge_hop(fabric.spec.latency)

    def _received(self, job) -> None:
        if self.up is None:
            super()._received(job)
            return
        up, nbytes = self.up, self.nbytes
        up.egress_bytes += nbytes
        self.wait(up.egress.request(up.egress_time(nbytes)), self._uplinked)

    def _uplinked(self, _job) -> None:
        down, nbytes = self.down, self.nbytes
        down.ingress_bytes += nbytes
        self.wait(down.ingress.request(down.ingress_time(nbytes)), self._crossed)

    def _crossed(self, _job) -> None:
        fabric, nbytes = self.fabric, self.nbytes
        fabric.ledger.charge(self.src_region, nbytes)
        fabric.cross_region_transfers += 1
        fabric.cross_region_bytes += nbytes
        self.succeed()


class WanFabric(Fabric):
    """A region-aware fabric: LAN semantics within, WAN charges across.

    Drop-in replacement for :class:`Fabric` — it *is* one, so the
    controller's RNG reseeding and every existing ``fabric.transfer``
    call site work unchanged.  NICs are registered with their region at
    topology build time; unregistered NICs count as region 0.
    """

    _transfer_type = _WanTransfer

    def __init__(
        self,
        env: Environment,
        spec: WanSpec,
        num_regions: int,
        rng: Optional[random.Random] = None,
    ):
        super().__init__(env, rng)
        if num_regions < 1:
            raise ValueError(f"num_regions must be >= 1, got {num_regions}")
        self.spec = spec
        self.num_regions = num_regions
        self.uplinks = [
            WanUplink(env, spec, region) for region in range(num_regions)
        ]
        self.ledger = EgressLedger(spec)
        self.cross_region_transfers = 0
        #: Payload bytes actually delivered across regions (counted on
        #: success, after the receiver ingress charge — the independent
        #: side of the chaos cross-region-byte invariant).
        self.cross_region_bytes = 0
        self.wan_partition_refusals = 0
        self._region_by_nic: Dict[int, int] = {}

    # -- wiring -------------------------------------------------------

    def register_nic(self, nic: Nic, region_id: int) -> None:
        if not 0 <= region_id < self.num_regions:
            raise ValueError(f"region {region_id} out of range")
        self._region_by_nic[id(nic)] = region_id

    def region_of_nic(self, nic: Nic) -> int:
        return self._region_by_nic.get(id(nic), 0)

    # -- fault surface ------------------------------------------------

    def partition_region(self, region_id: int) -> None:
        """Sever one region's uplink (the ``wan_partition`` fault)."""
        self.uplinks[region_id].sever()

    def restore_region(self, region_id: int) -> None:
        self.uplinks[region_id].restore()

    def partitioned_regions(self) -> List[int]:
        return [u.region_id for u in self.uplinks if u.partitioned]
