"""MON/MGR: heartbeat-based detection and the down->out interval."""

import pytest

from repro.cluster import CACHE_SCHEMES, CephCluster, CephConfig
from repro.ec import ReedSolomon
from repro.sim import Environment


def make_cluster(**config_overrides):
    env = Environment()
    config = CephConfig(**config_overrides) if config_overrides else CephConfig()
    cluster = CephCluster(
        env,
        ReedSolomon(4, 2),
        CACHE_SCHEMES["autotune"],
        config=config,
        num_hosts=8,
        osds_per_host=2,
        pg_num=8,
    )
    return env, cluster


def fail_host(cluster, host_id):
    for osd_id in cluster.topology.hosts[host_id].osd_ids:
        cluster.osds[osd_id].host_running = False


def markdown_time(cluster, osd_id):
    """When the monitor logged ``osd_id`` down, or None."""
    name = cluster.osds[osd_id].name
    return next((r.time for r in cluster.mon_log
                 if r.message.startswith("no heartbeats")
                 and r.field("osd") == name), None)


def test_healthy_cluster_stays_up():
    env, cluster = make_cluster()
    env.run(until=300)
    assert not cluster.monitor.down_since
    assert not cluster.monitor.out_osds


def test_detection_after_grace():
    env, cluster = make_cluster()
    env.run(until=100)
    fail_host(cluster, 2)
    env.run(until=200)
    detected = {4, 5} & set(cluster.monitor.down_since)
    assert detected == {4, 5}
    for osd_id in (4, 5):
        t = cluster.monitor.down_since[osd_id]
        # Detection happens after the grace window, within a few ticks.
        assert 100 + cluster.config.osd_heartbeat_grace <= t <= 140


def test_down_to_out_interval():
    env, cluster = make_cluster(mon_osd_down_out_interval=120.0)
    cluster.ingest_object("o", 1024)
    env.run(until=50)
    fail_host(cluster, 0)
    env.run(until=400)
    assert cluster.monitor.out_osds == {0, 1}
    detect = markdown_time(cluster, 0)
    out_record = next(
        r for r in cluster.mon_log if "marking osd out" in r.message
    )
    assert out_record.time - detect >= 120.0
    assert out_record.time - detect <= 135.0


def test_detection_time_from_log_after_out():
    env, cluster = make_cluster(mon_osd_down_out_interval=60.0)
    env.run(until=10)
    fail_host(cluster, 1)
    env.run(until=300)
    assert markdown_time(cluster, 2) is not None
    assert markdown_time(cluster, 6) is None  # healthy OSD


def test_recovered_osd_marked_up_again():
    env, cluster = make_cluster(mon_osd_down_out_interval=10_000.0)
    env.run(until=20)
    fail_host(cluster, 3)
    env.run(until=100)
    assert set(cluster.topology.hosts[3].osd_ids) <= set(cluster.monitor.down_since)
    # Bring the host back before the out interval elapses.
    for osd_id in cluster.topology.hosts[3].osd_ids:
        cluster.osds[osd_id].host_running = True
    env.run(until=200)
    assert not cluster.monitor.down_since
    assert not cluster.monitor.out_osds
    assert any("marking up" in r.message for r in cluster.mon_log)


def test_osdmap_epoch_increments():
    env, cluster = make_cluster(mon_osd_down_out_interval=30.0)
    initial = cluster.monitor.osdmap_epoch
    env.run(until=20)
    fail_host(cluster, 0)
    env.run(until=200)
    assert cluster.monitor.osdmap_epoch > initial


def test_device_failure_also_detected():
    env, cluster = make_cluster()
    env.run(until=30)
    cluster.osds[6].disk.fail()
    env.run(until=120)
    assert 6 in cluster.monitor.down_since
    assert 7 not in cluster.monitor.down_since  # same host, other OSD fine
