"""Client read path: normal reads, degraded reads, load generation."""

import pytest

from repro.cluster import CACHE_SCHEMES, CephCluster, CephConfig, RadosClient
from repro.cluster.client import (
    ClientLoadGenerator,
    ObjectNotFoundError,
    ReadFailedError,
    ReadSample,
    ReadStats,
)
from repro.ec import ReedSolomon
from repro.sim import Environment, SeedSequence

MB = 1024 * 1024


def build(num_hosts=10, pg_num=8, down_out=10_000.0):
    env = Environment()
    cluster = CephCluster(
        env,
        ReedSolomon(4, 2),
        CACHE_SCHEMES["autotune"],
        config=CephConfig(mon_osd_down_out_interval=down_out),
        num_hosts=num_hosts,
        pg_num=pg_num,
    )
    for i in range(30):
        cluster.ingest_object(f"obj-{i}", 4 * MB)
    return env, cluster, RadosClient(cluster)


def read(env, client, name):
    process = client.read_object(name)
    return env.run_until_process(process)


def test_normal_read_returns_sample():
    env, cluster, client = build()
    sample = read(env, client, "obj-3")
    assert isinstance(sample, ReadSample)
    assert not sample.degraded
    assert sample.latency > 0
    assert sample.bytes_read == 4 * MB


def test_unknown_object_rejected():
    env, cluster, client = build()
    with pytest.raises(ObjectNotFoundError):
        read(env, client, "ghost")


def test_degraded_read_when_data_shard_down():
    env, cluster, client = build()
    pg = cluster.pool.pg_of("obj-3")
    # Kill a *data* shard's host (shard 0..k-1).
    victim = cluster.topology.osds[pg.acting[0]].host_id
    for osd_id in cluster.topology.hosts[victim].osd_ids:
        cluster.osds[osd_id].host_running = False
    sample = read(env, client, "obj-3")
    assert sample.degraded


def test_parity_shard_loss_does_not_degrade_reads():
    env, cluster, client = build()
    pg = cluster.pool.pg_of("obj-3")
    victim_osd = pg.acting[5]  # parity shard (k=4, shards 4-5 are parity)
    cluster.osds[victim_osd].disk.fail()
    # Ensure the parity host does not share data-shard OSDs.
    data_osds = {pg.acting[s] for s in range(4)}
    if victim_osd not in data_osds:
        sample = read(env, client, "obj-3")
        assert not sample.degraded


def test_degraded_read_slower_than_normal():
    env, cluster, client = build()
    normal = read(env, client, "obj-3")
    pg = cluster.pool.pg_of("obj-3")
    victim = cluster.topology.osds[pg.acting[0]].host_id
    for osd_id in cluster.topology.hosts[victim].osd_ids:
        cluster.osds[osd_id].host_running = False
    degraded = read(env, client, "obj-3")
    assert degraded.latency > normal.latency


def test_read_fails_below_k_shards():
    env, cluster, client = build()
    pg = cluster.pool.pg_of("obj-3")
    # Kill 3 of 6 shards: below k=4 survivors.
    for shard in (0, 1, 2):
        cluster.osds[pg.acting[shard]].disk.fail()
    with pytest.raises(ReadFailedError):
        read(env, client, "obj-3")


def test_load_generator_collects_samples():
    env, cluster, client = build()
    generator = ClientLoadGenerator(client, interval=0.5, seeds=SeedSequence(3))
    done = generator.run_for(20.0)
    env.run_until_process(done)
    stats = generator.stats
    assert stats.count >= 35  # ~40 issued over 20s
    assert stats.degraded_fraction == 0.0
    assert stats.mean_latency() > 0
    assert stats.latency_percentile(99) >= stats.latency_percentile(50)


def test_load_generator_sees_degradation_during_outage():
    env, cluster, client = build(down_out=10_000.0)  # never marked out
    victim = cluster.topology.osds[
        cluster.pool.pg_of("obj-0").acting[0]
    ].host_id
    for osd_id in cluster.topology.hosts[victim].osd_ids:
        cluster.osds[osd_id].host_running = False
    generator = ClientLoadGenerator(client, interval=0.5, seeds=SeedSequence(4))
    env.run_until_process(generator.run_for(30.0))
    stats = generator.stats
    # Some objects map to PGs using the dead host: degraded reads happen.
    assert stats.degraded_count > 0
    assert 0 < stats.degraded_fraction < 1
    degraded = [s.latency for s in stats.samples if s.degraded]
    healthy = [s.latency for s in stats.samples if not s.degraded]
    assert sum(degraded) / len(degraded) > sum(healthy) / len(healthy)


def test_degradation_clears_after_recovery():
    env, cluster, client = build(down_out=30.0)
    victim = cluster.topology.osds[
        cluster.pool.pg_of("obj-0").acting[0]
    ].host_id
    for osd_id in cluster.topology.hosts[victim].osd_ids:
        cluster.osds[osd_id].host_running = False
    done = cluster.recovery.wait_all_recovered()
    env.run(until=2000)
    assert done.triggered
    generator = ClientLoadGenerator(client, interval=0.5, seeds=SeedSequence(5))
    env.run_until_process(generator.run_for(20.0))
    assert generator.stats.degraded_fraction == 0.0


def test_stats_validation():
    stats = ReadStats()
    with pytest.raises(ValueError):
        stats.latency_percentile(0)
    with pytest.raises(ValueError):
        stats.latency_percentile(50)
    with pytest.raises(ValueError):
        stats.mean_latency()


def test_generator_validation():
    env, cluster, client = build()
    with pytest.raises(ValueError):
        ClientLoadGenerator(client, interval=0)
    generator = ClientLoadGenerator(client, interval=1.0)
    with pytest.raises(ValueError):
        generator.run_for(0)
