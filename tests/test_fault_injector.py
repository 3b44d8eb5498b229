"""Fault injector: white-box tolerance guard and topology awareness."""

import pytest

from repro.cluster import (
    CACHE_SCHEMES,
    CephCluster,
    CephConfig,
    IntegrityConfig,
    ScrubConfig,
)
from repro.core import Colocation, FaultSpec, FaultToleranceError
from repro.core.fault_injector import FaultInjector
from repro.core.worker import deploy_workers
from repro.ec import ReedSolomon
from repro.sim import Environment


def build(failure_domain="host", osds_per_host=3, num_hosts=10, code=None,
          integrity=None, scrub=None, objects=40):
    env = Environment()
    cluster = CephCluster(
        env,
        code or ReedSolomon(4, 2),
        CACHE_SCHEMES["autotune"],
        config=CephConfig(),
        num_hosts=num_hosts,
        osds_per_host=osds_per_host,
        pg_num=16,
        failure_domain=failure_domain,
        integrity=integrity,
        scrub=scrub,
    )
    for i in range(objects):
        cluster.ingest_object(f"o{i}", 1024 * 1024)
    workers = deploy_workers(cluster)
    return cluster, FaultInjector(cluster, workers)


def test_fault_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec(level="power")
    with pytest.raises(ValueError):
        FaultSpec(count=0)
    with pytest.raises(ValueError):
        FaultSpec(colocation="same_rack")
    with pytest.raises(ValueError):
        FaultSpec(level="node", colocation=Colocation.SAME_HOST)


def test_fault_spec_errors_name_value_and_allowed_set():
    with pytest.raises(ValueError, match=r"'power'.*allowed levels.*corrupt"):
        FaultSpec(level="power")
    with pytest.raises(ValueError, match=r"got 0"):
        FaultSpec(count=0)
    with pytest.raises(ValueError, match=r"'same_rack'.*allowed colocations"):
        FaultSpec(colocation="same_rack")
    with pytest.raises(ValueError, match=r"'cosmic'.*allowed models.*bit_rot"):
        FaultSpec(level="corrupt", corruption="cosmic")


def test_node_fault_shuts_down_all_host_osds():
    cluster, injector = build()
    affected = injector.inject(FaultSpec(level="node", count=1))
    assert len(affected) == 3  # osds_per_host
    host = cluster.topology.osds[affected[0]].host_id
    for osd_id in affected:
        assert cluster.topology.osds[osd_id].host_id == host
        assert not cluster.osds[osd_id].is_up()


def test_device_fault_removes_single_disk():
    cluster, injector = build(failure_domain="osd")
    affected = injector.inject(FaultSpec(level="device", count=1))
    assert len(affected) == 1
    assert cluster.osds[affected[0]].disk.failed
    # Sibling OSDs on the same host stay up.
    host = cluster.topology.osds[affected[0]].host_id
    siblings = [o for o in cluster.topology.hosts[host].osd_ids if o != affected[0]]
    assert all(cluster.osds[o].is_up() for o in siblings)


def test_same_host_colocation():
    cluster, injector = build(failure_domain="osd")
    affected = injector.inject(
        FaultSpec(level="device", count=2, colocation=Colocation.SAME_HOST)
    )
    hosts = {cluster.topology.osds[o].host_id for o in affected}
    assert len(hosts) == 1


def test_diff_host_colocation():
    cluster, injector = build(failure_domain="osd")
    affected = injector.inject(
        FaultSpec(level="device", count=2, colocation=Colocation.DIFFERENT_HOSTS)
    )
    hosts = {cluster.topology.osds[o].host_id for o in affected}
    assert len(hosts) == 2


def test_tolerance_guard_blocks_excess_faults():
    """Never beyond n - k failures within the failure domain (§3.2)."""
    cluster, injector = build(failure_domain="osd")
    with pytest.raises(FaultToleranceError):
        injector.inject(FaultSpec(level="device", count=3))  # m = 2


def test_tolerance_guard_is_cumulative():
    cluster, injector = build(failure_domain="osd")
    injector.inject(FaultSpec(level="device", count=2))
    with pytest.raises(FaultToleranceError):
        injector.inject(FaultSpec(level="device", count=1))


def test_node_fault_counts_as_one_host_bucket():
    """With failure domain host, one node = one bucket <= m."""
    cluster, injector = build(failure_domain="host")
    injector.inject(FaultSpec(level="node", count=2))  # 2 hosts <= m=2
    with pytest.raises(FaultToleranceError):
        injector.inject(FaultSpec(level="node", count=1))


def test_explicit_targets():
    cluster, injector = build(failure_domain="osd")
    affected = injector.inject(FaultSpec(level="device", count=1, targets=[5]))
    assert affected == [5]


def test_selection_is_deterministic():
    _, injector_a = build()
    _, injector_b = build()
    a = injector_a.inject(FaultSpec(level="node", count=1))
    b = injector_b.inject(FaultSpec(level="node", count=1))
    assert a == b


def test_restore_all_heals_cluster():
    cluster, injector = build(failure_domain="osd")
    affected = injector.inject(FaultSpec(level="device", count=2))
    injector.restore_all()
    assert injector.injected_osds == set()
    for osd_id in affected:
        assert cluster.osds[osd_id].is_up()


# -- corrupt-level faults (silent corruption axis) ------------------------------


def test_corrupt_fault_requires_integrity():
    _, injector = build()
    with pytest.raises(ValueError, match="checksums"):
        injector.inject(FaultSpec(level="corrupt"))


def test_corrupt_fault_marks_chunks_but_keeps_osds_up():
    cluster, injector = build(integrity=IntegrityConfig(enabled=True))
    affected = injector.inject(FaultSpec(level="corrupt", count=2))
    assert cluster.integrity.corrupted_chunk_count() == 2
    # Silent faults: the OSDs stay up and do not consume the crash budget.
    assert injector.injected_osds == set()
    for osd_id in affected:
        assert cluster.osds[osd_id].is_up()


def test_corrupt_fault_respects_tolerance_guard():
    _, injector = build(integrity=IntegrityConfig(enabled=True))
    with pytest.raises(FaultToleranceError):
        injector.inject(FaultSpec(level="corrupt", count=3))  # m = 2


def test_corrupt_fault_stripe_guard_is_cumulative():
    _, injector = build(integrity=IntegrityConfig(enabled=True))
    # Explicit targets always land on the first populated PG's first
    # object, so the second injection hits the same stripe.
    injector.inject(FaultSpec(level="corrupt", count=2, targets=[0, 1]))
    with pytest.raises(FaultToleranceError):
        injector.inject(FaultSpec(level="corrupt", count=1, targets=[2]))


def test_corrupt_fault_is_deterministic():
    _, injector_a = build(integrity=IntegrityConfig(enabled=True))
    _, injector_b = build(integrity=IntegrityConfig(enabled=True))
    a = injector_a.inject(FaultSpec(level="corrupt", count=2))
    b = injector_b.inject(FaultSpec(level="corrupt", count=2))
    assert a == b


def test_restore_all_is_idempotent():
    cluster, injector = build()
    injector.inject(FaultSpec(level="node", count=1))
    injector.inject(FaultSpec(level="device", count=1))
    injector.restore_all()
    assert injector.injected_osds == set()
    assert all(osd.is_up() for osd in cluster.osds.values())
    # A second restore must be a harmless no-op, not a double-restore
    # (re-creating an NVMe subsystem that already exists would raise).
    injector.restore_all()
    assert injector.injected_osds == set()
    assert all(osd.is_up() for osd in cluster.osds.values())


def _partial_device_inject(cluster, injector):
    """Apply a device inject that dies half-way; returns the landed OSD.

    The first explicit target is fresh and lands; the second was already
    removed by an earlier inject, so tearing down its (gone) subsystem
    raises mid-application — after the first fault has taken effect.
    """
    [removed] = injector.inject(FaultSpec(level="device", count=1))
    fresh = next(
        osd_id for osd_id in cluster.osds_with_data()
        if osd_id not in injector.injected_osds
        and cluster.topology.osds[osd_id].host_id
        != cluster.topology.osds[removed].host_id
    )
    with pytest.raises(KeyError):
        injector.inject(
            FaultSpec(level="device", count=2, targets=[fresh, removed])
        )
    return fresh


def test_restore_all_after_partially_applied_inject():
    cluster, injector = build()
    fresh = _partial_device_inject(cluster, injector)
    # The applied half still counts against the tolerance budget...
    assert fresh in injector.injected_osds
    # ...and restore_all rolls back everything that actually landed,
    # idempotently, even after the partial failure.
    injector.restore_all()
    injector.restore_all()
    assert injector.injected_osds == set()
    assert all(osd.is_up() for osd in cluster.osds.values())


def test_partial_inject_still_counts_toward_tolerance():
    cluster, injector = build()
    _partial_device_inject(cluster, injector)
    # m = 2 and two host buckets already hold faults (one from the full
    # inject, one from the partially-applied one): any further bucket
    # must be refused.  Before the fix, the partially-applied fault was
    # never recorded, so this third fault was wrongly authorised.
    assert len(injector.injected_osds) == 2
    with pytest.raises(FaultToleranceError):
        injector.inject(FaultSpec(level="node", count=1))


def test_crash_guard_counts_unrepaired_corruption():
    cluster, injector = build(integrity=IntegrityConfig(enabled=True))
    # RS(6,4): m = 2.  One corrupt chunk outstanding leaves room for only
    # one crash bucket; a second crash could push some stripe to 3 losses.
    injector.inject(FaultSpec(level="corrupt", count=1))
    injector.inject(FaultSpec(level="node", count=1))
    with pytest.raises(FaultToleranceError, match="corrupt"):
        injector.inject(FaultSpec(level="node", count=1))


#: Faults that hold one OSD (by id) or its host (by id) without a crash.
HOLDS = {
    "flap": lambda osd_id, host_id: FaultSpec(level="flap", targets=[osd_id]),
    "net_degrade": lambda osd_id, host_id: FaultSpec(
        level="net_degrade", partition=True, targets=[host_id]
    ),
    "byz_stale_map": lambda osd_id, host_id: FaultSpec(
        level="byz_stale_map", targets=[osd_id]
    ),
}


@pytest.mark.parametrize("hold", sorted(HOLDS))
def test_corrupt_guard_counts_held_osds(hold):
    # RS(6,4): m = 2.  The held OSD may be down at any later instant, so
    # its shard plus two corrupt ones would be 3 damaged shards.
    cluster, injector = build(
        num_hosts=8, osds_per_host=1, objects=16,
        integrity=IntegrityConfig(enabled=True), scrub=ScrubConfig(enabled=True),
    )
    pg = next(pg for pg in cluster.pool.pgs.values() if pg.objects)
    osd_id = pg.acting[0]
    injector.inject(HOLDS[hold](osd_id, cluster.topology.osds[osd_id].host_id))
    with pytest.raises(FaultToleranceError):
        injector.inject(FaultSpec(level="corrupt", count=2, targets=[1, 2]))


# -- Byzantine faults (OSDs that lie) -------------------------------------------


def build_byz(**kwargs):
    kwargs.setdefault("integrity", IntegrityConfig(enabled=True))
    kwargs.setdefault("scrub", ScrubConfig(enabled=True))
    return build(**kwargs)


def test_byz_corrupt_requires_integrity():
    _, injector = build(scrub=ScrubConfig(enabled=True))
    with pytest.raises(ValueError, match="checksums"):
        injector.inject(FaultSpec(level="byz_corrupt_data"))


def test_byz_corrupt_requires_deep_scrub():
    # With checksums but scrubbing disabled, a forged checksum would be
    # *undetectable forever* — the injector refuses to create that.
    _, injector = build(integrity=IntegrityConfig(enabled=True))
    with pytest.raises(ValueError, match="deep scrub"):
        injector.inject(FaultSpec(level="byz_corrupt_data"))


def test_byz_corrupt_marks_state_and_keeps_osds_up():
    cluster, injector = build_byz()
    affected = injector.inject(FaultSpec(level="byz_corrupt_data", count=2))
    assert len(affected) == 2
    # Silent like honest corruption: no crash budget consumed.
    assert injector.injected_osds == set()
    for osd_id in affected:
        assert cluster.osds[osd_id].is_up()
    assert cluster.byzantine is not None
    assert len(cluster.byzantine.records) == 2
    assert not cluster.byzantine.quiescent()


def test_byz_corrupt_respects_stripe_tolerance_guard():
    _, injector = build_byz()
    with pytest.raises(FaultToleranceError, match="Byzantine"):
        injector.inject(FaultSpec(level="byz_corrupt_data", count=3))  # m=2


def test_byz_and_honest_corruption_share_the_stripe_budget():
    _, injector = build_byz()
    # Explicit targets land on the first populated PG's first object for
    # both levels, so they damage the same stripe: m = 2 total.
    injector.inject(FaultSpec(level="corrupt", count=1, targets=[0]))
    injector.inject(FaultSpec(level="byz_corrupt_data", count=1, targets=[1]))
    with pytest.raises(FaultToleranceError):
        injector.inject(FaultSpec(level="byz_corrupt_data", count=1,
                                  targets=[2]))


def test_byz_false_ack_records_undetected_damage():
    cluster, injector = build_byz()
    affected = injector.inject(
        FaultSpec(level="byz_false_ack", count=1, targets=[0])
    )
    assert len(affected) == 1
    byz = cluster.byzantine
    [(pgid, name, shards)] = list(byz.false_ack_items())
    assert shards == {0}
    assert byz.damaged_shards(pgid, name) == {0}


def test_byz_false_ack_counts_in_crash_guard():
    _, injector = build_byz()
    # One undetected false ack is silent stripe damage: with m = 2 it
    # leaves room for one crash bucket, not two.
    injector.inject(FaultSpec(level="byz_false_ack", count=1))
    injector.inject(FaultSpec(level="node", count=1))
    with pytest.raises(FaultToleranceError, match="corrupt"):
        injector.inject(FaultSpec(level="node", count=1))


def test_byz_stale_map_counts_against_crash_budget():
    cluster, injector = build_byz()
    [liar] = injector.inject(FaultSpec(level="byz_stale_map", count=1))
    # A misrouting liar is budgeted like a flapping OSD...
    assert liar in injector.injected_osds
    assert cluster.byzantine.gossiping_stale(liar)
    # ...and the budget is cumulative with real crashes (m = 2): the
    # liar's host is one bucket, so only one *other* host may fail.
    liar_host = cluster.topology.osds[liar].host_id
    others = [h for h in range(cluster.topology.num_hosts) if h != liar_host]
    injector.inject(FaultSpec(level="node", count=1, targets=[others[0]]))
    with pytest.raises(FaultToleranceError):
        injector.inject(FaultSpec(level="node", count=1, targets=[others[1]]))


def test_byz_selection_is_deterministic():
    _, injector_a = build_byz()
    _, injector_b = build_byz()
    a = injector_a.inject(FaultSpec(level="byz_corrupt_data", count=2))
    b = injector_b.inject(FaultSpec(level="byz_corrupt_data", count=2))
    assert a == b


def test_restore_all_ends_stale_map_lies_idempotently():
    cluster, injector = build_byz()
    [liar] = injector.inject(FaultSpec(level="byz_stale_map", count=1))
    injector.restore_all()
    byz = cluster.byzantine
    # The restarted daemon re-fetched the map: lie over, detected via the
    # epoch path, budget released.
    assert not byz.gossiping_stale(liar)
    assert injector.injected_osds == set()
    [record] = byz.records
    assert record.detected and record.detected_by == "epoch"
    assert byz.quiescent()
    # Second restore is a harmless no-op (no double-counted detections).
    injector.restore_all()
    assert byz.detections["epoch"] == 1
    assert byz.epoch_rejections == 1


def test_restore_all_preserves_data_plane_lies():
    cluster, injector = build_byz()
    injector.inject(FaultSpec(level="byz_corrupt_data", count=1, targets=[0]))
    injector.inject(FaultSpec(level="byz_false_ack", count=1, targets=[1]))
    injector.restore_all()
    injector.restore_all()
    # Worker restarts never heal silent damage: forged checksums and
    # false acks persist until scrub/peering detects them.
    byz = cluster.byzantine
    assert not byz.quiescent()
    assert sum(1 for r in byz.records if not r.detected) == 2
    assert all(osd.is_up() for osd in cluster.osds.values())


def test_restore_all_with_mixed_byz_and_crash_faults():
    cluster, injector = build_byz()
    # A data-plane lie plus a real crash, together inside the budget
    # (silent 1 + one bucket = m): restore_all must roll back the crash,
    # end any map lie, and keep data-plane accounting intact — twice.
    injector.inject(FaultSpec(level="byz_corrupt_data", count=1, targets=[0]))
    injector.inject(FaultSpec(level="node", count=1))
    injector.restore_all()
    injector.restore_all()
    assert injector.injected_osds == set()
    assert all(osd.is_up() for osd in cluster.osds.values())
    assert not cluster.byzantine.quiescent()  # the lie survived restore


#: One known and one unknown explicit target per level: host ids for
#: node and net_degrade faults, OSD ids for the device-scoped ones.
UNKNOWN_TARGETS = {
    "node": FaultSpec(level="node", count=2, targets=[0, 99]),
    "net_degrade": FaultSpec(
        level="net_degrade", count=2, loss=0.1, targets=[0, 99]
    ),
    "device": FaultSpec(level="device", count=2, targets=[0, 99]),
    "flap": FaultSpec(level="flap", count=2, targets=[0, 99]),
    "slow_device": FaultSpec(level="slow_device", count=2, targets=[0, 99]),
    "byz_stale_map": FaultSpec(level="byz_stale_map", count=2,
                               targets=[0, 99]),
}


@pytest.mark.parametrize("level", sorted(UNKNOWN_TARGETS))
def test_unknown_explicit_targets_refused_before_any_worker_acts(level):
    cluster, injector = build()
    logged = sum(len(log) for log in cluster.all_logs())
    with pytest.raises(ValueError, match=r"\[99\] unknown"):
        injector.inject(UNKNOWN_TARGETS[level])
    cluster.env.run(until=1.0)
    assert all(osd.is_up() for osd in cluster.osds.values())
    assert sum(len(log) for log in cluster.all_logs()) == logged
    assert injector.injected_osds == set()
    assert injector.slowed_osds == set()


#: Explicit targets naming one id twice, on each scope path: host ids,
#: OSD ids and stripe shard indices.
REPEATED_TARGETS = {
    "node": FaultSpec(level="node", count=2, targets=[3, 3]),
    "device": FaultSpec(level="device", count=2, targets=[5, 5]),
    "corrupt": FaultSpec(level="corrupt", count=2, targets=[1, 1]),
}


@pytest.mark.parametrize("level", sorted(REPEATED_TARGETS))
def test_repeated_explicit_targets_refused_before_any_worker_acts(level):
    cluster, injector = build(integrity=IntegrityConfig(enabled=True))
    logged = sum(len(log) for log in cluster.all_logs())
    with pytest.raises(ValueError, match=rf"{level} targets repeat \[\d\]"):
        injector.inject(REPEATED_TARGETS[level])
    cluster.env.run(until=1.0)
    assert all(osd.is_up() for osd in cluster.osds.values())
    assert sum(len(log) for log in cluster.all_logs()) == logged
    assert injector.injected_osds == set()
    assert not any(
        cluster.integrity.corrupt_shards(pg.pgid, obj.name)
        for pg in cluster.pool.pgs.values() for obj in pg.objects
    )


@pytest.mark.parametrize("level", ["byz_corrupt_data", "byz_false_ack"])
def test_byzantine_stripe_fault_wider_than_the_code_is_refused(level):
    _, injector = build_byz()
    with pytest.raises(FaultToleranceError,
                       match=rf"7 {level} chunks in a 6-chunk stripe"):
        injector.inject(FaultSpec(level=level, count=7))
