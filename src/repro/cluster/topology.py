"""Cluster topology: regions, racks, hosts, and OSD devices.

Mirrors the paper's testbed layout — one MON/MGR host plus N OSD hosts,
each attaching virtual NVMe volumes — and provides the failure-domain
bucketing (``osd`` / ``host`` / ``rack`` / ``region``) that CRUSH
placement and the topology-aware fault injector both consume.

Regions are the stretch-cluster tier above racks: hosts are striped
across regions the same way they are striped across racks, and a
multi-region topology swaps the plain :class:`Fabric` for a
:class:`~repro.geo.wan.WanFabric` so cross-region transfers pay WAN
bandwidth, latency, and egress cost.  Single-region topologies build
exactly the pre-geo object graph — same fabric class, same events — so
existing runs stay byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..geo.wan import DEFAULT_WAN, WanFabric, WanSpec
from ..sim import Environment
from .devices import GP_SSD, Disk, DiskSpec
from .network import M5_NIC, Fabric, Nic, NicSpec

__all__ = ["FailureDomain", "OsdDevice", "Host", "ClusterTopology"]


class FailureDomain:
    """Valid failure-domain levels (Table 1, plus the geo region tier)."""

    OSD = "osd"
    HOST = "host"
    RACK = "rack"
    REGION = "region"
    ALL = (OSD, HOST, RACK, REGION)


@dataclass
class OsdDevice:
    """One OSD: a daemon identity bound to a disk on a host."""

    osd_id: int
    host_id: int
    disk: Disk
    device_class: str = "ssd"
    weight: float = 1.0

    @property
    def name(self) -> str:
        return f"osd.{self.osd_id}"


@dataclass
class Host:
    """One storage server: NIC plus its attached OSDs."""

    host_id: int
    rack_id: int
    nic: Nic
    osd_ids: List[int] = field(default_factory=list)
    #: Stretch-cluster region; 0 for every host in a single-region run.
    region_id: int = 0

    @property
    def name(self) -> str:
        return f"host.{self.host_id}"


class ClusterTopology:
    """The regions/racks/hosts/OSDs tree plus lookup helpers.

    The default shape matches §4.1 of the paper: 30 OSD hosts, two (or
    three, for the failure-mode experiments) OSDs each, one region.
    """

    def __init__(
        self,
        env: Environment,
        num_hosts: int = 30,
        osds_per_host: int = 2,
        num_racks: int = 1,
        disk_spec: DiskSpec = GP_SSD,
        nic_spec: NicSpec = M5_NIC,
        num_regions: int = 1,
        wan_spec: Optional[WanSpec] = None,
    ):
        if num_hosts < 1 or osds_per_host < 1 or num_racks < 1:
            raise ValueError("topology dimensions must be positive")
        if num_racks > num_hosts:
            raise ValueError("more racks than hosts")
        if num_regions < 1:
            raise ValueError("num_regions must be >= 1")
        if num_regions > num_hosts:
            raise ValueError("more regions than hosts")
        self.env = env
        self.disk_spec = disk_spec
        self.nic_spec = nic_spec
        self.num_regions = num_regions
        self.wan_spec = wan_spec if wan_spec is not None else DEFAULT_WAN
        if num_regions > 1:
            self.fabric: Fabric = WanFabric(env, self.wan_spec, num_regions)
        else:
            self.fabric = Fabric(env)
        self.hosts: Dict[int, Host] = {}
        self.osds: Dict[int, OsdDevice] = {}
        osd_id = 0
        for host_id in range(num_hosts):
            nic = Nic(env, nic_spec, name=f"host.{host_id}.nic")
            host = Host(
                host_id=host_id,
                rack_id=host_id % num_racks,
                nic=nic,
                region_id=host_id % num_regions,
            )
            if num_regions > 1:
                self.wan.register_nic(nic, host.region_id)
            for _ in range(osds_per_host):
                disk = Disk(env, disk_spec, name=f"osd.{osd_id}.disk")
                self.osds[osd_id] = OsdDevice(
                    osd_id=osd_id, host_id=host_id, disk=disk
                )
                host.osd_ids.append(osd_id)
                osd_id += 1
            self.hosts[host_id] = host

    @property
    def num_hosts(self) -> int:
        return len(self.hosts)

    @property
    def wan(self) -> Optional[WanFabric]:
        """The WAN fabric, or None on a single-region topology."""
        return self.fabric if isinstance(self.fabric, WanFabric) else None

    def host_of(self, osd_id: int) -> Host:
        return self.hosts[self.osds[osd_id].host_id]

    def nic_of(self, osd_id: int) -> Nic:
        return self.host_of(osd_id).nic

    def region_of(self, osd_id: int) -> int:
        """The region an OSD lives in (0 on single-region topologies)."""
        return self.host_of(osd_id).region_id

    def hosts_in_region(self, region_id: int) -> List[Host]:
        return [
            host
            for host in self.hosts.values()
            if host.region_id == region_id
        ]

    def bucket_of(self, osd_id: int, failure_domain: str) -> int:
        """The failure-domain bucket id an OSD belongs to."""
        if failure_domain == FailureDomain.OSD:
            return osd_id
        if failure_domain == FailureDomain.HOST:
            return self.osds[osd_id].host_id
        if failure_domain == FailureDomain.RACK:
            return self.host_of(osd_id).rack_id
        if failure_domain == FailureDomain.REGION:
            return self.host_of(osd_id).region_id
        raise ValueError(f"unknown failure domain {failure_domain!r}")

    def buckets(self, failure_domain: str) -> List[int]:
        """All bucket ids at the requested level."""
        if failure_domain == FailureDomain.OSD:
            return sorted(self.osds)
        if failure_domain == FailureDomain.HOST:
            return sorted(self.hosts)
        if failure_domain == FailureDomain.RACK:
            return sorted({host.rack_id for host in self.hosts.values()})
        if failure_domain == FailureDomain.REGION:
            return sorted({host.region_id for host in self.hosts.values()})
        raise ValueError(f"unknown failure domain {failure_domain!r}")

    def osds_in_bucket(self, bucket: int, failure_domain: str) -> List[int]:
        """OSD ids inside one failure-domain bucket."""
        if failure_domain == FailureDomain.OSD:
            return [bucket] if bucket in self.osds else []
        if failure_domain == FailureDomain.HOST:
            return list(self.hosts[bucket].osd_ids)
        if failure_domain in (FailureDomain.RACK, FailureDomain.REGION):
            out: List[int] = []
            for host in self.hosts.values():
                bucket_id = (
                    host.rack_id
                    if failure_domain == FailureDomain.RACK
                    else host.region_id
                )
                if bucket_id == bucket:
                    out.extend(host.osd_ids)
            return sorted(out)
        raise ValueError(f"unknown failure domain {failure_domain!r}")
