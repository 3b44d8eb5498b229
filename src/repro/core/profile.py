"""Experiment profiles — the EC Manager of the paper's Controller (§3).

An :class:`ExperimentProfile` captures "all EC-related configurations in
an experimental profile": the EC plugin and its parameters, the basic
encoding unit (``stripe_unit``), pool settings (``pg_num``, failure
domain), and the system features that affect EC operations (backend,
caching scheme, device class) — i.e., one row through Table 1.  Table
1's interface row (RADOS, RGW, RBD, CephFS) is not modelled: the
workload is a stream of RADOS object writes.  Profiles validate against
the option space Table 1 lists and know how to instantiate their
erasure code and cache configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict

from ..cluster.bluestore import CACHE_SCHEMES, CacheConfig
from ..cluster.ceph import CephCluster
from ..cluster.osd import CephConfig
from ..cluster.scrub import IntegrityConfig, ScrubConfig
from ..cluster.topology import FailureDomain
from ..ec.base import ErasureCode, available_plugins, create_plugin
from ..geo.rules import RegionRule
from ..geo.wan import DEFAULT_WAN, WanSpec
from ..sim import Environment

__all__ = ["ExperimentProfile", "PAPER_RS_PROFILE", "PAPER_CLAY_PROFILE"]

_BACKENDS = ("bluestore", "filestore")
_DEVICE_CLASSES = ("ssd", "hdd")

KB = 1024
MB = 1024 * 1024


@dataclass(frozen=True)
class ExperimentProfile:
    """One complete EC experiment configuration (Table 1 coverage).

    ``ec_params`` is passed verbatim to the plugin: RS takes ``k``, ``m``
    and optionally ``technique``; Clay takes ``k``, ``m``, ``d``; LRC
    takes ``k``, ``l``, ``r``; SHEC takes ``k``, ``m``, ``l``.
    """

    name: str = "default"
    # Ceph storage backend + cache (Table 1 rows 1-2).
    backend: str = "bluestore"
    cache_scheme: str = "autotune"
    # Pool configuration (row 4).
    pg_num: int = 256
    # EC plugin / technique / parameters (rows 5, 6, 9).
    ec_plugin: str = "jerasure"
    ec_params: Dict[str, Any] = field(
        default_factory=lambda: {"k": 9, "m": 3}
    )
    #: Default encoding unit.  The paper sweeps 4KB/4MB/64MB in Fig 2c;
    #: its other panels are only mutually consistent with a default in
    #: the megabyte range (Clay at 4KB is 4.26x slower in Fig 2c yet on
    #: par with RS in Figs 2a/2b), so the baseline profile uses 4 MB.
    stripe_unit: int = 4 * MB
    # Failure domain and device class (rows 7-8).
    failure_domain: str = FailureDomain.HOST
    device_class: str = "ssd"
    # Daemon/monitor tunables.
    ceph: CephConfig = field(default_factory=CephConfig)
    # Cluster shape (§4.1: 30 OSD hosts x 2 OSDs; 3 for failure modes).
    num_hosts: int = 30
    osds_per_host: int = 2
    num_racks: int = 1
    # Stretch-cluster shape.  ``num_regions=1`` is the classic single
    # site: no WAN fabric is built and every digest stays byte-identical
    # to pre-geo profiles.  With more regions hosts are dealt round-robin
    # across regions and inter-region transfers ride a WAN uplink.
    num_regions: int = 1
    wan_egress_bandwidth: float = DEFAULT_WAN.egress_bandwidth
    wan_ingress_bandwidth: float = DEFAULT_WAN.ingress_bandwidth
    wan_latency: float = DEFAULT_WAN.latency
    wan_egress_cost_per_gib: float = DEFAULT_WAN.egress_cost_per_gib
    # Scrub & integrity subsystem (the silent-corruption axis).  A zero
    # ``scrub_interval`` disables scrubbing *and* write-time checksums,
    # keeping the baseline experiments byte-for-byte unperturbed.
    scrub_interval: float = 0.0
    scrub_pgs_per_batch: int = 4
    csum_block_size: int = 4096
    integrity_data_plane: bool = False

    def __post_init__(self):
        if self.backend not in _BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; options: {_BACKENDS}")
        if self.device_class not in _DEVICE_CLASSES:
            raise ValueError(f"unknown device class {self.device_class!r}")
        if self.failure_domain not in FailureDomain.ALL:
            raise ValueError(f"unknown failure domain {self.failure_domain!r}")
        if self.failure_domain == FailureDomain.REGION:
            raise ValueError(
                "failure_domain 'region' places no stripe (a region is one "
                "bucket, and a region rule spreads shards over sub-region "
                "buckets): set num_regions with a host, rack or osd domain"
            )
        if self.cache_scheme not in CACHE_SCHEMES:
            raise ValueError(
                f"unknown cache scheme {self.cache_scheme!r}; "
                f"options: {sorted(CACHE_SCHEMES)}"
            )
        if self.ec_plugin not in available_plugins():
            raise ValueError(
                f"unknown EC plugin {self.ec_plugin!r}; "
                f"options: {available_plugins()}"
            )
        if self.pg_num < 1:
            raise ValueError("pg_num must be >= 1")
        if self.stripe_unit <= 0:
            raise ValueError("stripe_unit must be positive")
        if self.num_hosts < 1 or self.osds_per_host < 1:
            raise ValueError("cluster shape must be positive")
        if not 1 <= self.num_racks <= self.num_hosts:
            raise ValueError("num_racks must be in 1..num_hosts")
        if not 1 <= self.num_regions <= self.num_hosts:
            raise ValueError("num_regions must be in 1..num_hosts")
        if self.wan_egress_bandwidth <= 0 or self.wan_ingress_bandwidth <= 0:
            raise ValueError("WAN bandwidths must be positive")
        if self.wan_latency < 0 or self.wan_egress_cost_per_gib < 0:
            raise ValueError("WAN latency and egress cost must be >= 0")
        if self.scrub_interval < 0:
            raise ValueError(
                f"scrub_interval must be >= 0 (0 disables scrubbing), "
                f"got {self.scrub_interval}"
            )
        if self.scrub_pgs_per_batch < 1:
            raise ValueError(
                f"scrub_pgs_per_batch must be >= 1, got {self.scrub_pgs_per_batch}"
            )
        if self.csum_block_size <= 0:
            raise ValueError(
                f"csum_block_size must be positive, got {self.csum_block_size}"
            )
        # Fail early on bad EC parameters rather than at cluster build.
        self.create_code()

    # -- factories ----------------------------------------------------------------

    def create_code(self) -> ErasureCode:
        """Instantiate the profile's erasure code."""
        return create_plugin(self.ec_plugin, **self.ec_params)

    def disk_spec(self):
        """The device model matching the profile's device class."""
        from ..cluster.devices import GP_SSD, NEARLINE_HDD

        return NEARLINE_HDD if self.device_class == "hdd" else GP_SSD

    def cache_config(self) -> CacheConfig:
        """Resolve the cache scheme (FileStore gets no BlueStore cache:
        modelled as a fixed minimal split, documented in DESIGN.md)."""
        if self.backend == "filestore":
            return CacheConfig("filestore-pagecache", 0.10, 0.10, 0.80)
        return CACHE_SCHEMES[self.cache_scheme]

    def integrity_config(self) -> IntegrityConfig:
        """Write-time checksum settings implied by the scrub knobs."""
        return IntegrityConfig(
            enabled=self.scrub_interval > 0 or self.integrity_data_plane,
            data_plane=self.integrity_data_plane,
            csum_block_size=self.csum_block_size,
        )

    def scrub_config(self) -> ScrubConfig:
        """Scrub scheduler settings (disabled at ``scrub_interval=0``)."""
        if self.scrub_interval <= 0:
            return ScrubConfig(enabled=False)
        return ScrubConfig(
            enabled=True,
            interval=self.scrub_interval,
            pgs_per_batch=self.scrub_pgs_per_batch,
        )

    def wan_spec(self) -> "WanSpec | None":
        """The profile's WAN link model (None for single-region runs)."""
        if self.num_regions <= 1:
            return None
        return WanSpec(
            name=f"wan-{self.name}",
            egress_bandwidth=self.wan_egress_bandwidth,
            ingress_bandwidth=self.wan_ingress_bandwidth,
            latency=self.wan_latency,
            egress_cost_per_gib=self.wan_egress_cost_per_gib,
        )

    def region_rule(self) -> "RegionRule | None":
        """Region-spanning placement contract for stretch clusters.

        Every region gets a shard share, capped at ``ceil(n / regions)``
        per region so no single region outage can strand more shards
        than the code's fault tolerance covers (when the EC geometry is
        chosen accordingly — the profile does not enforce that pairing).
        """
        if self.num_regions <= 1:
            return None
        return RegionRule(spread=self.num_regions)

    def build_cluster(self, env: Environment, placement_seed: int) -> CephCluster:
        """The profile's cluster on ``env``, CRUSH seeded by ``placement_seed``.

        The one mapping from a profile to a :class:`CephCluster`: code,
        cache, tunables, shape, device class, checksums, scrub and
        regions.
        """
        return CephCluster(
            env,
            code=self.create_code(),
            cache_config=self.cache_config(),
            config=self.ceph,
            num_hosts=self.num_hosts,
            osds_per_host=self.osds_per_host,
            num_racks=self.num_racks,
            pg_num=self.pg_num,
            stripe_unit=self.stripe_unit,
            failure_domain=self.failure_domain,
            disk_spec=self.disk_spec(),
            placement_seed=placement_seed,
            integrity=self.integrity_config(),
            scrub=self.scrub_config(),
            num_regions=self.num_regions,
            wan_spec=self.wan_spec(),
            region_rule=self.region_rule(),
        )

    def with_overrides(self, **changes) -> "ExperimentProfile":
        """A copy of the profile with the given fields replaced."""
        return replace(self, **changes)

    def describe(self) -> str:
        """Human-readable one-liner used in logs and reports."""
        params = ",".join(f"{k}={v}" for k, v in sorted(self.ec_params.items()))
        return (
            f"{self.name}: {self.ec_plugin}({params}) "
            f"stripe_unit={self.stripe_unit} pg_num={self.pg_num} "
            f"cache={self.cache_scheme} domain={self.failure_domain}"
        )


#: The paper's two §4.1 baselines: RS(12,9) and Clay(12,9,11).
PAPER_RS_PROFILE = ExperimentProfile(
    name="rs-12-9", ec_plugin="jerasure", ec_params={"k": 9, "m": 3}
)
PAPER_CLAY_PROFILE = ExperimentProfile(
    name="clay-12-9-11", ec_plugin="clay", ec_params={"k": 9, "m": 3, "d": 11}
)
