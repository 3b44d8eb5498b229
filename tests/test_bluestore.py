"""BlueStore model: cache schemes, autotune, allocation accounting."""

import pytest

from repro.cluster import CACHE_SCHEMES, BlueStore, BlueStoreCacheModel, CacheConfig
from repro.cluster.bluestore import WorkingSets


def test_paper_table2_schemes():
    c1 = CACHE_SCHEMES["kv-optimized"]
    assert (c1.kv_ratio, c1.meta_ratio, c1.data_ratio) == (0.70, 0.20, 0.10)
    c2 = CACHE_SCHEMES["data-optimized"]
    assert (c2.kv_ratio, c2.meta_ratio, c2.data_ratio) == (0.20, 0.20, 0.60)
    c3 = CACHE_SCHEMES["autotune"]
    assert (c3.kv_ratio, c3.meta_ratio, c3.data_ratio) == (0.45, 0.45, 0.10)
    assert c3.autotune and not c1.autotune


def test_ratio_validation():
    with pytest.raises(ValueError):
        CacheConfig("bad", 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        CacheConfig("bad", -0.1, 0.6, 0.5)


def test_fixed_partitions_follow_ratios():
    model = BlueStoreCacheModel(CACHE_SCHEMES["kv-optimized"], cache_bytes=1000.0)
    kv, meta, data = model.partitions(WorkingSets(1, 1, 1))
    assert (kv, meta, data) == (700.0, 200.0, 100.0)


def test_autotune_partitions_near_ideal_per_class():
    """The priority resizer gives every class near-full effective size."""
    model = BlueStoreCacheModel(CACHE_SCHEMES["autotune"], cache_bytes=1000.0)
    ws = WorkingSets(meta_bytes=100.0, kv_bytes=300.0, data_bytes=600.0)
    kv, meta, data = model.partitions(ws)
    assert kv == meta == data == pytest.approx(0.92 * 1000)


def test_autotune_beats_fixed_schemes_on_every_class():
    ws = WorkingSets(meta_bytes=100.0, kv_bytes=300.0, data_bytes=600.0)
    auto = BlueStoreCacheModel(CACHE_SCHEMES["autotune"], 1000.0).hit_rates(ws)
    for name in ("kv-optimized", "data-optimized"):
        fixed = BlueStoreCacheModel(CACHE_SCHEMES[name], 1000.0).hit_rates(ws)
        assert all(a >= f for a, f in zip(auto, fixed))


def test_hit_rates_saturating():
    model = BlueStoreCacheModel(CACHE_SCHEMES["kv-optimized"], cache_bytes=1000.0)
    ws = WorkingSets(meta_bytes=200.0, kv_bytes=700.0, data_bytes=100.0)
    kv, meta, data = model.hit_rates(ws)
    assert kv == pytest.approx(0.5)
    assert meta == pytest.approx(0.5)
    assert data == pytest.approx(0.5)
    # Empty working set -> perfect hit rate.
    assert model.hit_rates(WorkingSets())[0] == 1.0


def test_cache_bytes_validation():
    with pytest.raises(ValueError):
        BlueStoreCacheModel(CACHE_SCHEMES["autotune"], cache_bytes=0)


# -- BlueStore accounting ---------------------------------------------------------


#: The allocation of a 4 MiB chunk in 1,024 stripe units.
CHUNK_4M = BlueStore.chunk_allocation(4 * 1024 * 1024, 1024)


def make_store(scheme="autotune"):
    return BlueStore(CACHE_SCHEMES[scheme], cache_bytes=1e9)


def test_chunk_allocation_min_alloc_rounding():
    store = make_store()
    allocated, metadata = store.chunk_allocation(stored_bytes=5000, units=2)
    assert allocated == 8192  # rounded to two 4 KiB granules
    assert metadata == store.onode_bytes + store.ec_attr_bytes + 2 * store.extent_entry_bytes


def test_chunk_allocation_validation():
    store = make_store()
    with pytest.raises(ValueError):
        store.chunk_allocation(-1, 1)
    with pytest.raises(ValueError):
        store.chunk_allocation(100, 0)


def test_store_and_remove_chunk_roundtrip():
    store = make_store()
    allocation = store.chunk_allocation(4096, 1)
    consumed = store.store_chunk(4096, 1, allocation)
    assert store.num_chunks == 1
    assert store.used_bytes == consumed
    released = store.remove_chunk(4096, 1, allocation)
    assert released == consumed
    assert store.used_bytes == 0
    assert store.num_chunks == 0


def test_used_bytes_exceed_data_bytes():
    """Metadata + min_alloc rounding means usage > logical data (WA)."""
    store = make_store()
    store.store_chunk(5000, 2, store.chunk_allocation(5000, 2))
    assert store.used_bytes > 5000


def test_write_coalescing_ordering():
    """More data cache -> stronger coalescing (smaller multiplier)."""
    stores = {name: make_store(name) for name in CACHE_SCHEMES}
    for store in stores.values():
        for _ in range(1000):
            store.store_chunk(4 * 1024 * 1024, 1024, CHUNK_4M)
    kv_opt = stores["kv-optimized"].write_coalescing()
    data_opt = stores["data-optimized"].write_coalescing()
    assert data_opt < kv_opt  # data-optimized coalesces better
    assert 0.5 <= kv_opt <= 1.0


def test_read_overhead_ordering():
    """kv-starved scheme pays more read-side metadata overhead."""
    stores = {name: make_store(name) for name in ("kv-optimized", "data-optimized")}
    for store in stores.values():
        for _ in range(5000):
            store.store_chunk(4 * 1024 * 1024, 1024, CHUNK_4M)
    assert (
        stores["data-optimized"].read_overhead_ops(8 * 1024 * 1024)
        > stores["kv-optimized"].read_overhead_ops(8 * 1024 * 1024)
    )


def test_read_overhead_scales_with_bytes_and_runs():
    store = make_store("kv-optimized")
    for _ in range(5000):
        store.store_chunk(4 * 1024 * 1024, 1024, CHUNK_4M)
    assert store.read_overhead_ops(8_000_000) > store.read_overhead_ops(64_000)
    assert (
        store.read_overhead_ops(64_000, scatter_runs=50)
        > store.read_overhead_ops(64_000)
    )


# -- the memoised hit rates ------------------------------------------------------


def _fresh(store):
    """A backend with ``store``'s counters and nothing memoised: its
    costs come from a fresh ``cache.hit_rates(working_sets())``."""
    fresh = BlueStore(store.cache.config, store.cache.cache_bytes)
    fresh.num_chunks = store.num_chunks
    fresh.num_extents = store.num_extents
    fresh.data_bytes = store.data_bytes
    return fresh


def _costs(store):
    return (
        store.read_overhead_ops(8_000_000),
        store.read_overhead_ops(64_000, scatter_runs=50),
        store.write_coalescing(),
    )


def test_memoised_costs_match_a_fresh_computation_after_each_store_and_remove():
    store = make_store("kv-optimized")
    chunks = [(4 * 1024 * 1024, 1024), (5000, 2), (1 << 20, 16)] * 40
    seen = {_costs(store)}
    for stored_bytes, units in chunks:
        store.store_chunk(stored_bytes, units,
                          store.chunk_allocation(stored_bytes, units))
        assert _costs(store) == _costs(_fresh(store))
        seen.add(_costs(store))
    for stored_bytes, units in reversed(chunks):
        store.remove_chunk(stored_bytes, units,
                           store.chunk_allocation(stored_bytes, units))
        assert _costs(store) == _costs(_fresh(store))
    assert len(seen) > len(chunks) // 2  # the rates really moved
    assert _costs(store) == _costs(make_store("kv-optimized"))


def test_memoised_costs_follow_directly_assigned_counters():
    """The analytical twin's ghost backend assigns its counters instead
    of storing chunks; a memo refreshed only by store and remove would
    keep serving the empty backend's rates."""
    store = make_store("kv-optimized")
    empty = _costs(store)
    store.num_chunks = 2500.0
    store.num_extents = 2500.0 * 1024
    store.data_bytes = 2500.0 * 4 * 1024 * 1024
    assert _costs(store) == _costs(_fresh(store))
    assert _costs(store) != empty
