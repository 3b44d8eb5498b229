"""CRUSH placement: determinism, failure domains, minimal remap."""

import pytest

from repro.cluster import ClusterTopology, CrushMap, FailureDomain, PlacementError
from repro.sim import Environment


@pytest.fixture
def crush():
    topo = ClusterTopology(Environment(), num_hosts=15, osds_per_host=2)
    return CrushMap(topo, seed=42)


def test_placement_is_deterministic(crush):
    a = crush.place_pg(1, 0, 12, FailureDomain.HOST)
    b = crush.place_pg(1, 0, 12, FailureDomain.HOST)
    assert a == b


def test_different_pgs_place_differently(crush):
    sets = {tuple(crush.place_pg(1, pg, 12, FailureDomain.HOST)) for pg in range(16)}
    assert len(sets) > 1


def test_host_domain_spreads_across_hosts(crush):
    acting = crush.place_pg(1, 3, 12, FailureDomain.HOST)
    hosts = {crush.topology.osds[o].host_id for o in acting}
    assert len(hosts) == 12  # one OSD per host


def test_osd_domain_allows_same_host(crush):
    """With enough PGs, osd-level placement co-locates some shards."""
    co_located = False
    for pg in range(64):
        acting = crush.place_pg(1, pg, 12, FailureDomain.OSD)
        hosts = [crush.topology.osds[o].host_id for o in acting]
        if len(set(hosts)) < len(hosts):
            co_located = True
            break
    assert co_located


def test_width_exceeding_buckets_rejected(crush):
    with pytest.raises(PlacementError):
        crush.place_pg(1, 0, 16, FailureDomain.HOST)  # only 15 hosts


def test_unknown_failure_domain(crush):
    with pytest.raises(ValueError):
        crush.place_pg(1, 0, 3, "zone")


def test_no_duplicate_osds(crush):
    for pg in range(32):
        acting = crush.place_pg(1, pg, 12, FailureDomain.OSD)
        assert len(set(acting)) == 12


def test_exclusion_respected(crush):
    base = crush.place_pg(1, 5, 12, FailureDomain.HOST)
    excluded = {base[3]}
    after = crush.place_pg(1, 5, 12, FailureDomain.HOST, excluded_osds=excluded)
    assert base[3] not in after


def test_remap_is_minimal(crush):
    """Only shards on departed OSDs move (straw2 stability)."""
    base = crush.place_pg(1, 7, 12, FailureDomain.HOST)
    out = {base[4]}
    after = crush.place_pg(1, 7, 12, FailureDomain.HOST, excluded_osds=out)
    moved = [shard for shard in range(12) if after[shard] != base[shard]]
    assert moved == [4]


def test_remap_within_host_prefers_sibling_osd(crush):
    """Excluding one OSD of a host can fail over to its sibling."""
    base = crush.place_pg(1, 2, 10, FailureDomain.HOST)
    victim = base[0]
    sibling = [
        o
        for o in crush.topology.hosts[crush.topology.osds[victim].host_id].osd_ids
        if o != victim
    ][0]
    after = crush.place_pg(1, 2, 10, FailureDomain.HOST, excluded_osds={victim})
    assert after[0] == sibling  # same bucket, other device
    assert after[1:] == base[1:]


def test_seed_changes_placement():
    topo = ClusterTopology(Environment(), num_hosts=15, osds_per_host=2)
    a = CrushMap(topo, seed=1).place_pg(1, 0, 12, FailureDomain.HOST)
    b = CrushMap(topo, seed=2).place_pg(1, 0, 12, FailureDomain.HOST)
    assert a != b


def test_placement_roughly_uniform(crush):
    """Primary assignment should touch most hosts over many PGs."""
    primaries = {
        crush.topology.osds[crush.place_pg(1, pg, 12, FailureDomain.HOST)[0]].host_id
        for pg in range(256)
    }
    assert len(primaries) >= 12
