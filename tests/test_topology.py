"""Cluster topology: shape, lookup helpers, failure-domain buckets."""

import pytest

from repro.cluster import ClusterTopology, FailureDomain
from repro.sim import Environment


@pytest.fixture
def topo():
    return ClusterTopology(Environment(), num_hosts=6, osds_per_host=2, num_racks=3)


def test_paper_default_shape():
    topo = ClusterTopology(Environment())
    assert topo.num_hosts == 30
    assert len(topo.osds) == 60


def test_shape_validation():
    env = Environment()
    with pytest.raises(ValueError):
        ClusterTopology(env, num_hosts=0)
    with pytest.raises(ValueError):
        ClusterTopology(env, num_hosts=2, num_racks=3)


def test_osd_to_host_mapping(topo):
    assert topo.host_of(0).host_id == 0
    assert topo.host_of(1).host_id == 0
    assert topo.host_of(2).host_id == 1
    assert topo.hosts[0].osd_ids == [0, 1]


def test_nic_shared_per_host(topo):
    assert topo.nic_of(0) is topo.nic_of(1)
    assert topo.nic_of(0) is not topo.nic_of(2)


def test_rack_assignment_round_robin(topo):
    assert topo.hosts[0].rack_id == 0
    assert topo.hosts[1].rack_id == 1
    assert topo.hosts[3].rack_id == 0


def test_bucket_of_levels(topo):
    assert topo.bucket_of(3, FailureDomain.OSD) == 3
    assert topo.bucket_of(3, FailureDomain.HOST) == 1
    assert topo.bucket_of(3, FailureDomain.RACK) == 1
    with pytest.raises(ValueError):
        topo.bucket_of(3, "datacenter")


def test_buckets_enumeration(topo):
    assert topo.buckets(FailureDomain.OSD) == list(range(12))
    assert topo.buckets(FailureDomain.HOST) == list(range(6))
    assert topo.buckets(FailureDomain.RACK) == [0, 1, 2]


def test_osds_in_bucket(topo):
    assert topo.osds_in_bucket(1, FailureDomain.HOST) == [2, 3]
    assert topo.osds_in_bucket(5, FailureDomain.OSD) == [5]
    rack0 = topo.osds_in_bucket(0, FailureDomain.RACK)
    assert rack0 == [0, 1, 6, 7]  # hosts 0 and 3


def test_device_names(topo):
    assert topo.osds[4].name == "osd.4"
    assert topo.hosts[2].name == "host.2"
