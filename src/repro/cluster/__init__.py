"""Ceph-like distributed storage substrate.

Everything the paper's testbed provides, rebuilt as a deterministic
simulation: topology and devices, NVMe-oF virtual disk provisioning,
CRUSH placement, pools/PGs, the BlueStore backend, MON/MGR failure
detection, and the peering + recovery state machine.
"""

from .autoscale import AutoscaleAdvice, autoscale_advice, recommended_pg_num
from .bluestore import CACHE_SCHEMES, BlueStore, BlueStoreCacheModel, CacheConfig
from .ceph import CephCluster
from .client import (
    ClientLoadGenerator,
    ClientOpStats,
    RadosClient,
    ReadFailedError,
    ReadSample,
    ReadStats,
)
from .crush import CrushMap, PlacementError
from .health import HealthReport, HealthStatus, check_health
from .devices import GP_SSD, NEARLINE_HDD, Disk, DiskFailedError, DiskSpec
from .logs import LogRecord, NodeLog
from .monitor import Monitor
from .network import (
    M5_NIC,
    Fabric,
    NetDegradation,
    NetworkPartitionedError,
    Nic,
    NicSpec,
    TransferDroppedError,
)
from .nvme import NvmeSubsystem, NvmeTarget, SubsystemNotFoundError, default_nqn
from .objectstore import ChunkLayout, block_checksums, blocks_in, crc32c, layout_object
from .osd import CephConfig, OsdDaemon
from .pool import PlacementGroup, Pool, StoredObject
from .recovery import RecoveryManager, RecoveryStats
from .retry import DEFAULT_BACKOFF_CAP, retry_backoff
from .scrub import (
    CorruptionModel,
    IntegrityConfig,
    IntegrityStore,
    ScrubConfig,
    ScrubManager,
    ScrubPhase,
    ScrubRepairError,
    ScrubStats,
)
from .topology import ClusterTopology, FailureDomain, Host, OsdDevice

__all__ = [
    "AutoscaleAdvice",
    "autoscale_advice",
    "recommended_pg_num",
    "CACHE_SCHEMES",
    "BlueStore",
    "BlueStoreCacheModel",
    "CacheConfig",
    "CephCluster",
    "ClientLoadGenerator",
    "ClientOpStats",
    "RadosClient",
    "ReadFailedError",
    "ReadSample",
    "ReadStats",
    "CrushMap",
    "HealthReport",
    "HealthStatus",
    "check_health",
    "PlacementError",
    "GP_SSD",
    "NEARLINE_HDD",
    "Disk",
    "DiskFailedError",
    "DiskSpec",
    "LogRecord",
    "NodeLog",
    "Monitor",
    "M5_NIC",
    "Fabric",
    "NetDegradation",
    "NetworkPartitionedError",
    "Nic",
    "NicSpec",
    "TransferDroppedError",
    "NvmeSubsystem",
    "NvmeTarget",
    "SubsystemNotFoundError",
    "default_nqn",
    "ChunkLayout",
    "layout_object",
    "crc32c",
    "block_checksums",
    "blocks_in",
    "CephConfig",
    "OsdDaemon",
    "PlacementGroup",
    "Pool",
    "StoredObject",
    "RecoveryManager",
    "RecoveryStats",
    "DEFAULT_BACKOFF_CAP",
    "retry_backoff",
    "CorruptionModel",
    "IntegrityConfig",
    "IntegrityStore",
    "ScrubConfig",
    "ScrubManager",
    "ScrubPhase",
    "ScrubRepairError",
    "ScrubStats",
    "ClusterTopology",
    "FailureDomain",
    "Host",
    "OsdDevice",
]
