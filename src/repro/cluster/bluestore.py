"""BlueStore backend model: cache partitions, autotune, and metadata.

Two paper-facing behaviours live here:

* **Cache sensitivity (Fig 2a).**  BlueStore splits its cache between the
  RocksDB block cache (``kv``), the onode cache (``meta``) and the data
  buffer cache (``data``).  During EC recovery the kv partition absorbs
  extent-map lookups on the *read* side and the data partition feeds the
  deferred-write coalescer on the *write* side — and since rebuilt chunks
  funnel into a handful of replacement OSDs, the write side is usually the
  bottleneck.  That asymmetry is what makes ``kv-optimized`` (70/20/10)
  the slowest scheme and ``autotune`` the fastest in the paper.  Hit
  ratios use a saturating ``partition / (partition + working_set)`` law:
  bigger partitions always help, with diminishing returns.

* **Write amplification (Table 3, §4.4).**  Every stored chunk is
  allocated in ``min_alloc_size`` granules and carries onode, extent-map
  and EC-attribute metadata.  :meth:`BlueStore.store_chunk` accounts all
  of it, so the measured "Actual WA Factor" exceeds n/k exactly the way
  the paper observes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = ["CacheConfig", "CACHE_SCHEMES", "BlueStoreCacheModel", "BlueStore"]


@dataclass(frozen=True)
class CacheConfig:
    """BlueStore cache ratios (Table 2 of the paper).

    Ratios are fractions of the OSD cache that go to the RocksDB block
    cache, onode cache and data buffer cache respectively; ``autotune``
    makes BlueStore resize partitions toward the observed miss streams.
    """

    name: str
    kv_ratio: float
    meta_ratio: float
    data_ratio: float
    autotune: bool = False

    def __post_init__(self):
        total = self.kv_ratio + self.meta_ratio + self.data_ratio
        if not 0.999 <= total <= 1.001:
            raise ValueError(f"cache ratios must sum to 1.0, got {total}")
        for ratio in (self.kv_ratio, self.meta_ratio, self.data_ratio):
            if not 0.0 <= ratio <= 1.0:
                raise ValueError("ratios must be within [0, 1]")


#: The paper's three caching configurations (Table 2).
CACHE_SCHEMES: Dict[str, CacheConfig] = {
    "kv-optimized": CacheConfig("kv-optimized", 0.70, 0.20, 0.10),
    "data-optimized": CacheConfig("data-optimized", 0.20, 0.20, 0.60),
    "autotune": CacheConfig("autotune", 0.45, 0.45, 0.10, autotune=True),
}


@dataclass
class WorkingSets:
    """Bytes each cache partition would need for a ~100% hit rate."""

    meta_bytes: float = 0.0
    kv_bytes: float = 0.0
    data_bytes: float = 0.0


class BlueStoreCacheModel:
    """Hit-rate and coalescing model for one OSD's cache."""

    #: Adaptation efficiency of the autotuner: it converges close to, but
    #: not exactly at, the ideal split (resizing lags the miss stream).
    AUTOTUNE_EFFICIENCY = 0.92

    def __init__(self, config: CacheConfig, cache_bytes: float):
        if cache_bytes <= 0:
            raise ValueError("cache_bytes must be positive")
        self.config = config
        self.cache_bytes = float(cache_bytes)

    def partitions(self, working: WorkingSets) -> Tuple[float, float, float]:
        """(kv, meta, data) partition sizes in bytes.

        With autotune enabled, each class is sized as if it could claim
        (nearly) the whole cache — the steady state of BlueStore's
        priority-based resizer when working sets fit in memory: every
        class gets what it asks for while idle classes shrink.  The
        efficiency factor models adaptation lag.  (The three values then
        deliberately over-count the physical cache; they are effective
        sizes for hit-rate purposes, not a memory budget.)
        """
        if not self.config.autotune:
            return (
                self.cache_bytes * self.config.kv_ratio,
                self.cache_bytes * self.config.meta_ratio,
                self.cache_bytes * self.config.data_ratio,
            )
        budget = self.cache_bytes * self.AUTOTUNE_EFFICIENCY
        return (budget, budget, budget)

    @staticmethod
    def _hit(partition: float, working_set: float) -> float:
        if working_set <= 0:
            return 1.0
        return partition / (partition + working_set)

    def hit_rates(self, working: WorkingSets) -> Tuple[float, float, float]:
        """(kv_hit, meta_hit, data_hit) for the given working sets."""
        kv, meta, data = self.partitions(working)
        return (
            self._hit(kv, working.kv_bytes),
            self._hit(meta, working.meta_bytes),
            self._hit(data, working.data_bytes),
        )


class BlueStore:
    """Per-OSD backend: durable layout accounting plus cache-adjusted I/O.

    The owning OSD calls :meth:`store_chunk` as chunks land (workload and
    recovery writes alike) and consults :meth:`read_overhead_ops` /
    :meth:`write_coalescing` when charging recovery I/O to the disk model.
    """

    #: Allocation granule; gp-class NVMe pools run the 4 KiB SSD default.
    min_alloc_size = 4096
    #: Durable metadata footprint per stored chunk (onode key+value).
    onode_bytes = 64
    #: Durable extent-map entry per stripe-unit extent of a chunk.
    extent_entry_bytes = 16
    #: EC shard attributes (hash info, shard id, stripe map) per chunk.
    ec_attr_bytes = 32
    #: Durable crc32c value per checksum block, persisted with the onode.
    #: Charged only when the integrity subsystem registers checksums for a
    #: chunk — the calibrated baseline constants above already absorb the
    #: csum footprint of a stock deployment (see ``csum_bytes_per_data_byte``
    #: in the cache working-set model below).
    csum_value_bytes = 4

    #: In-memory footprints behind the cache working sets.  RocksDB serves
    #: extent lookups in block granules, hence the amplification factor.
    #: A cached onode with its decoded extent map is tens of KiB.
    onode_cache_bytes = 49152
    in_memory_extent_bytes = 256
    kv_block_amplification = 16.0
    #: Per-4KiB-block checksums dominate the RocksDB working set on a
    #: loaded OSD (4 B of csum per 4 KiB of data, block-amplified): this
    #: is what makes the kv partition *bind* at realistic data volumes.
    csum_bytes_per_data_byte = 1.0 / 64.0
    #: Deferred-write buffer demand while recovery writes are in flight.
    recovery_write_buffer_bytes = 512e6
    #: Fraction of write operations the coalescer can merge at 100% data hit.
    max_write_coalescing = 0.6
    #: Onode/extent-map lookups per 4KiB block read, charged against the
    #: meta (onode cache) partition on a miss.
    extent_lookup_rate = 0.05
    #: Csum-block fetches per 4KiB block read, charged against the kv
    #: (RocksDB block cache) partition on a miss.
    csum_lookup_rate = 0.02
    #: Extra extent-map traversals per scattered sub-chunk run.
    run_lookup_ops = 2.0
    #: Disk ops for one onode fetch from RocksDB on a meta miss.
    onode_fetch_ops = 2.0

    def __init__(self, config: CacheConfig, cache_bytes: float = 2.5e9):
        self.cache = BlueStoreCacheModel(config, cache_bytes)
        self.num_chunks = 0
        self.num_extents = 0
        self.data_bytes = 0
        self.alloc_bytes = 0
        self.meta_bytes = 0
        #: Per-chunk crc32c checksum tuples, keyed by the pool-level chunk
        #: key ``(pgid, object_name, shard)`` — the onode-resident csum
        #: array the deep-scrub state machine verifies chunk reads against.
        self.chunk_checksums: Dict[tuple, Tuple[int, ...]] = {}
        #: :meth:`_hit_rates`' memo and the counters it was computed at.
        self._rates_key: Optional[Tuple[float, float, float]] = None
        self._rates: Tuple[float, float, float] = (0.0, 0.0, 0.0)

    # -- durable layout (write amplification) ----------------------------------

    @classmethod
    def chunk_allocation(
        cls, stored_bytes: int, units: int, csum_blocks: int = 0
    ) -> Tuple[int, int]:
        """(allocated_bytes, metadata_bytes) for one stored chunk.

        The same on every OSD, so a caller storing one object's chunks
        computes it once.  ``csum_blocks`` counts the crc32c values
        persisted with the onode (zero when the integrity subsystem is
        disabled — the baseline calibration already absorbs stock csum
        overhead).
        """
        if stored_bytes < 0 or units < 1 or csum_blocks < 0:
            raise ValueError("invalid chunk geometry")
        granule = cls.min_alloc_size
        allocated = -(-stored_bytes // granule) * granule if stored_bytes else 0
        metadata = (
            cls.onode_bytes
            + cls.ec_attr_bytes
            + units * cls.extent_entry_bytes
            + csum_blocks * cls.csum_value_bytes
        )
        return allocated, metadata

    def store_chunk(
        self, stored_bytes: int, units: int, allocation: Tuple[int, int]
    ) -> int:
        """Account one chunk landing on this OSD; returns bytes consumed.

        ``allocation`` is the chunk's :meth:`chunk_allocation`, which
        every caller has already computed for its capacity check or its
        ledger.
        """
        allocated, metadata = allocation
        self.num_chunks += 1
        self.num_extents += units
        self.data_bytes += stored_bytes
        self.alloc_bytes += allocated
        self.meta_bytes += metadata
        return allocated + metadata

    def remove_chunk(
        self, stored_bytes: int, units: int, allocation: Tuple[int, int]
    ) -> int:
        """Account one chunk leaving this OSD; returns bytes released.

        ``allocation`` is the chunk's :meth:`chunk_allocation`, as when
        it was stored.
        """
        allocated, metadata = allocation
        self.num_chunks -= 1
        self.num_extents -= units
        self.data_bytes -= stored_bytes
        self.alloc_bytes -= allocated
        self.meta_bytes -= metadata
        return allocated + metadata

    # -- onode checksum persistence (scrub subsystem) ----------------------------

    def put_chunk_checksums(self, key: tuple, csums: Tuple[int, ...]) -> None:
        """Persist a chunk's per-block crc32c array with its onode."""
        self.chunk_checksums[key] = tuple(csums)

    def get_chunk_checksums(self, key: tuple) -> Optional[Tuple[int, ...]]:
        """The stored csum array for a chunk, or None if never registered."""
        return self.chunk_checksums.get(key)

    @property
    def used_bytes(self) -> int:
        """Total durable usage: allocations plus metadata."""
        return self.alloc_bytes + self.meta_bytes

    # -- cache-adjusted I/O costs ------------------------------------------------

    def working_sets(self) -> WorkingSets:
        return WorkingSets(
            meta_bytes=(
                self.num_chunks * self.onode_cache_bytes
                + self.num_extents * self.in_memory_extent_bytes
            ),
            kv_bytes=(
                self.num_extents * self.extent_entry_bytes
                + self.num_chunks * self.onode_bytes
            )
            * self.kv_block_amplification
            + self.data_bytes * self.csum_bytes_per_data_byte,
            data_bytes=self.recovery_write_buffer_bytes,
        )

    def _hit_rates(self) -> Tuple[float, float, float]:
        """The cache model's hit rates for the current working sets.

        Memoised on the three counters :meth:`working_sets` reads, so a
        run of recovery reads between two stores computes them once.
        Keyed rather than cleared on store and remove: the analytical
        twin's ghost backend assigns the counters directly.
        """
        key = (self.num_chunks, self.num_extents, self.data_bytes)
        if key != self._rates_key:
            self._rates_key = key
            self._rates = self.cache.hit_rates(self.working_sets())
        return self._rates

    def read_overhead_ops(self, nbytes: int, scatter_runs: int = 0) -> float:
        """Extra metadata fetches a recovery read pays for cache misses.

        Onode/extent-map lookups (per 4KiB block touched, plus per
        scattered run) hit the meta partition; csum blocks hit the kv
        partition.  Meta-starved schemes therefore pay on every read and
        sub-packetised reads pay more — the read-side Figure 2a
        mechanism.
        """
        kv_hit, meta_hit, _ = self._hit_rates()
        blocks = nbytes / 4096.0
        meta_cost = (
            self.onode_fetch_ops
            + blocks * self.extent_lookup_rate
            + scatter_runs * self.run_lookup_ops
        ) * (1.0 - meta_hit)
        kv_cost = blocks * self.csum_lookup_rate * (1.0 - kv_hit)
        return meta_cost + kv_cost

    def write_coalescing(self) -> float:
        """Multiplier (<= 1.0) on write ops from deferred-write merging."""
        _, _, data_hit = self._hit_rates()
        return 1.0 - self.max_write_coalescing * data_hit
