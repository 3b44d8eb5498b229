"""CephCluster facade: assembly, ingestion accounting, queries."""

import pytest

from repro.cluster import CACHE_SCHEMES, CephCluster, CephConfig
from repro.ec import ReedSolomon
from repro.sim import Environment


@pytest.fixture
def cluster():
    return CephCluster(
        Environment(),
        ReedSolomon(4, 2),
        CACHE_SCHEMES["autotune"],
        num_hosts=8,
        osds_per_host=2,
        pg_num=8,
        stripe_unit=4096,
    )


def test_assembly_wires_recovery_to_monitor(cluster):
    assert cluster.recovery.on_osds_out in cluster.monitor.on_out


def test_ingest_accounts_chunks_on_acting_osds(cluster):
    cluster.ingest_object("obj", 6 * 4096)
    pg = cluster.pool.pg_of("obj")
    layout = pg.objects[0].layout
    for osd_id in pg.acting:
        osd = cluster.osds[osd_id]
        assert osd.backend.num_chunks == 1
        assert osd.disk.used_bytes > 0
        assert osd.backend.data_bytes == layout.chunk_stored_bytes
    # Non-acting OSDs stay empty.
    others = set(cluster.osds) - set(pg.acting)
    assert all(cluster.osds[o].backend.num_chunks == 0 for o in others)


def test_used_bytes_total_sums_allocations(cluster):
    assert cluster.used_bytes_total() == 0
    cluster.ingest_object("a", 100_000)
    cluster.ingest_object("b", 100_000)
    total = cluster.used_bytes_total()
    assert total >= 2 * 6 * 100_000 / 4  # n chunks x padded size, roughly
    assert total == sum(o.used_bytes for o in cluster.osds.values())


def test_up_osds_reflects_faults(cluster):
    assert all(osd.is_up() for osd in cluster.osds.values())
    cluster.osds[3].disk.fail()
    cluster.osds[5].host_running = False
    up = [i for i, osd in cluster.osds.items() if osd.is_up()]
    assert 3 not in up and 5 not in up
    assert len(up) == 14


def test_osds_with_data(cluster):
    assert cluster.osds_with_data() == []
    cluster.ingest_object("x", 1024)
    with_data = cluster.osds_with_data()
    assert sorted(cluster.pool.pg_of("x").acting) == with_data


def test_all_logs_cover_every_node(cluster):
    logs = cluster.all_logs()
    assert len(logs) == 1 + 8  # MON + one per host
    names = {log.node for log in logs}
    assert "mon.0" in names


def test_custom_config_propagates():
    config = CephConfig(mon_osd_down_out_interval=42.0)
    cluster = CephCluster(
        Environment(), ReedSolomon(4, 2), CACHE_SCHEMES["autotune"],
        config=config, num_hosts=8, pg_num=4,
    )
    assert cluster.monitor.config.mon_osd_down_out_interval == 42.0
    assert all(
        osd.config.mon_osd_down_out_interval == 42.0
        for osd in cluster.osds.values()
    )


def test_placement_seed_changes_layout():
    def acting_sets(seed):
        cluster = CephCluster(
            Environment(), ReedSolomon(4, 2), CACHE_SCHEMES["autotune"],
            num_hosts=10, pg_num=8, placement_seed=seed,
        )
        return [tuple(pg.acting) for pg in cluster.pool.pgs.values()]

    assert acting_sets(1) != acting_sets(2)
    assert acting_sets(1) == acting_sets(1)
