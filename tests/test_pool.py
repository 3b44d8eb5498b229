"""Pools and placement groups: hashing, acting sets, bookkeeping."""

import pytest

from repro.cluster import ClusterTopology, CrushMap, FailureDomain, Pool
from repro.ec import ReedSolomon
from repro.sim import Environment


@pytest.fixture
def pool():
    topo = ClusterTopology(Environment(), num_hosts=15, osds_per_host=2)
    return Pool(
        pool_id=1,
        name="ecpool",
        code=ReedSolomon(9, 3),
        crush=CrushMap(topo, seed=7),
        pg_num=16,
        stripe_unit=4096,
        failure_domain=FailureDomain.HOST,
    )


def test_pg_creation(pool):
    assert len(pool.pgs) == 16
    for pg in pool.pgs.values():
        assert len(pg.acting) == 12
        assert pg.pgid.startswith("1.")


def test_pool_validation():
    topo = ClusterTopology(Environment(), num_hosts=15, osds_per_host=2)
    crush = CrushMap(topo)
    with pytest.raises(ValueError):
        Pool(1, "p", ReedSolomon(9, 3), crush, pg_num=0)
    with pytest.raises(ValueError):
        Pool(1, "p", ReedSolomon(9, 3), crush, pg_num=4, stripe_unit=0)


def test_object_hashing_stable(pool):
    assert pool.pg_of("obj-1") is pool.pg_of("obj-1")


def test_objects_spread_over_pgs(pool):
    pgs = {pool.pg_of(f"obj-{i}").pg_id for i in range(200)}
    assert len(pgs) == 16  # all PGs used at this object count


def test_put_object_records_and_layout(pool):
    pg = pool.put_object("obj-0", 64 * 1024 * 1024)
    assert len(pg.objects) == 1
    obj = pg.objects[0]
    assert obj.layout.k == 9
    assert obj.layout.chunk_stored_bytes % 4096 == 0
    assert obj.size == 64 * 1024 * 1024


def test_shards_on(pool):
    pg = pool.pgs[0]
    osd = pg.acting[5]
    assert pg.shards_on([osd]) == [5]
    assert pg.shards_on([-1]) == []


def test_pgs_using_osd(pool):
    osd = pool.pgs[3].acting[0]
    hits = pool.pgs_using_osd([osd])
    assert pool.pgs[3] in hits
    for pg in hits:
        assert osd in pg.acting


def test_stored_bytes_per_shard(pool):
    pg = pool.put_object("obj-x", 36 * 4096 * 9)
    assert pg.stored_bytes() == 36 * 4096


def test_pg_num_one_uses_single_acting_set():
    topo = ClusterTopology(Environment(), num_hosts=15, osds_per_host=2)
    pool = Pool(1, "p", ReedSolomon(9, 3), CrushMap(topo), pg_num=1)
    for i in range(50):
        pool.put_object(f"o{i}", 1024)
    assert len(pool.pgs[0].objects) == 50
