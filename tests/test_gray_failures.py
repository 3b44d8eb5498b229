"""Gray-failure axis: slow disks, flaky networks, flapping OSDs + defenses.

Covers the injector's three gray levels and their white-box budget
rules, the monitor's flap dampening, the client's retry/timeout/hedge
defenses, recovery's retry-under-drops behaviour, the determinism
contract of gray experiments (the cycle with one legacy client stream),
and the chaos sampler's gray rounds.
"""

import random

import pytest
from hypothesis import given, strategies as st

from repro.chaos.engine import run_chaos
from repro.chaos.invariants import check_converged
from repro.chaos.sampler import sample_campaign
from repro.cluster import (
    CACHE_SCHEMES,
    CephCluster,
    CephConfig,
    NetDegradation,
    RadosClient,
    ReadFailedError,
)
from repro.cluster.retry import DEFAULT_BACKOFF_CAP, retry_backoff
from repro.core import GRAY_LEVELS, FaultSpec, FaultToleranceError
from repro.core.fault_injector import FaultInjector
from repro.core.profile import ExperimentProfile
from repro.core.worker import deploy_workers
from repro.ec import ReedSolomon
from repro.sim import Environment
from repro.tenancy import TenantFleetSpec, run_tenant_experiment
from repro.workload.generator import Workload

MB = 1024 * 1024


def build(num_hosts=8, osds_per_host=2, down_out=10_000.0, objects=15,
          **config_overrides):
    env = Environment()
    cluster = CephCluster(
        env,
        ReedSolomon(4, 2),
        CACHE_SCHEMES["autotune"],
        config=CephConfig(
            mon_osd_down_out_interval=down_out, **config_overrides
        ),
        num_hosts=num_hosts,
        osds_per_host=osds_per_host,
        pg_num=8,
    )
    for i in range(objects):
        cluster.ingest_object(f"o{i}", 1 * MB)
    workers = deploy_workers(cluster)
    return env, cluster, FaultInjector(cluster, workers)


# -- FaultSpec validation -------------------------------------------------------


def test_gray_spec_validation():
    with pytest.raises(ValueError, match="factor"):
        FaultSpec(level="slow_device", factor=1.0)
    with pytest.raises(ValueError):
        FaultSpec(level="net_degrade")  # degrades nothing
    with pytest.raises(ValueError):
        FaultSpec(level="net_degrade", loss=1.5)
    with pytest.raises(ValueError):
        FaultSpec(level="net_degrade", loss=0.1, colocation="same_host")
    with pytest.raises(ValueError, match="flap"):
        FaultSpec(level="flap", flap_interval=0.0)
    # Valid specs of each gray level construct fine.
    FaultSpec(level="slow_device", factor=16.0)
    FaultSpec(level="net_degrade", partition=True)
    FaultSpec(level="net_degrade", loss=0.2, latency=0.002)
    FaultSpec(level="flap", flap_interval=30.0)


# -- injector: slow_device ------------------------------------------------------


def test_slow_device_inflates_service_time_and_stays_up():
    env, cluster, injector = build()
    [victim] = injector.inject(FaultSpec(level="slow_device", factor=16.0))
    disk = cluster.osds[victim].disk
    assert disk.slow_factor == 16.0
    assert cluster.osds[victim].is_up()
    assert injector.slowed_osds == {victim}
    # Slow devices consume no crash budget: m = 2 node faults still fit.
    injector.inject(FaultSpec(level="node", count=2))
    with pytest.raises(FaultToleranceError):
        injector.inject(FaultSpec(level="node", count=1))


def test_slow_device_cannot_be_slowed_twice():
    env, cluster, injector = build()
    [victim] = injector.inject(FaultSpec(level="slow_device", factor=4.0))
    with pytest.raises(ValueError, match="already slowed"):
        injector.inject(
            FaultSpec(level="slow_device", factor=8.0, targets=[victim])
        )


def test_slow_device_restore_resets_speed():
    env, cluster, injector = build()
    [victim] = injector.inject(FaultSpec(level="slow_device", factor=16.0))
    injector.restore_all()
    assert cluster.osds[victim].disk.slow_factor == 1.0
    assert injector.slowed_osds == set()


def test_slow_device_never_marked_down():
    env, cluster, injector = build()
    env.run(until=50)
    injector.inject(FaultSpec(level="slow_device", factor=16.0))
    env.run(until=650)
    # A slow disk still heartbeats: the failure detector must stay quiet.
    assert cluster.monitor.markdowns_total == 0
    assert not cluster.monitor.down_since


# -- injector: net_degrade ------------------------------------------------------


def test_net_degrade_counts_against_tolerance():
    env, cluster, injector = build()
    affected = injector.inject(FaultSpec(level="net_degrade", loss=0.2))
    assert len(affected) == 2  # whole host: both its OSDs
    host = cluster.topology.osds[affected[0]].host_id
    assert cluster.topology.hosts[host].nic.degradation is not None
    injector.inject(FaultSpec(level="node", count=1))
    with pytest.raises(FaultToleranceError):
        injector.inject(FaultSpec(level="node", count=1))


def test_net_degrade_partition_detected_by_silence_and_heals():
    env, cluster, injector = build()
    env.run(until=50)
    affected = injector.inject(FaultSpec(level="net_degrade", partition=True))
    env.run(until=200)
    # No heartbeats cross a partition: the monitor marks the host down.
    assert set(affected) <= set(cluster.monitor.down_since)
    injector.restore_all()
    host = cluster.topology.osds[affected[0]].host_id
    assert cluster.topology.hosts[host].nic.degradation is None
    env.run(until=300)
    assert not cluster.monitor.down_since


# -- injector: flap -------------------------------------------------------------


def test_flap_oscillates_daemon_and_restore_stops_it():
    env, cluster, injector = build()
    env.run(until=10)
    [victim] = injector.inject(FaultSpec(level="flap", flap_interval=10.0))
    assert victim in injector.injected_osds  # costs a tolerance slot
    env.run(until=100)
    host = cluster.topology.osds[victim].host_id
    log = cluster.host_logs[host]
    downs = [r for r in log.records if "flapped down" in r.message]
    ups = [r for r in log.records if "flapped up" in r.message]
    assert downs and ups
    injector.restore_all()
    assert cluster.osds[victim].daemon_up
    count = len([r for r in log.records if "flapped" in r.message])
    env.run(until=200)
    after = len([r for r in log.records if "flapped" in r.message])
    assert after == count  # oscillation stopped


def test_same_instant_flap_inject_and_restore_leaves_daemon_up():
    # Regression: the flap loop's first down-phase runs *after* a
    # same-instant restore() already re-raised the daemon (the loop
    # process bootstraps at the current instant, the interrupt lands
    # behind it).  The interrupt handler must re-raise the daemon or
    # the OSD stays down forever with nothing left to restore it.
    env, cluster, injector = build()
    env.run(until=10)
    [victim] = injector.inject(FaultSpec(level="flap", flap_interval=10.0))
    injector.restore_all()  # same sim instant — no env.run in between
    env.run(until=200)
    assert cluster.osds[victim].daemon_up
    assert cluster.osds[victim].is_up()
    assert not cluster.monitor.down_since


def test_flap_dampening_pins_then_converges():
    env, cluster, injector = build(
        down_out=60.0, mon_osd_markdown_count=3, mon_osd_markdown_pin=120.0
    )
    env.run(until=50)
    [victim] = injector.inject(FaultSpec(level="flap", flap_interval=15.0))
    env.run(until=1500)
    assert cluster.monitor.markdowns_total >= 3
    assert cluster.monitor.pins_total >= 1
    injector.restore_all()
    env.run(until=2200)  # pins expire (<= 120 s), heartbeats mark back up
    assert not cluster.monitor.active_pins()
    assert not cluster.monitor.down_since
    assert not cluster.monitor.out_osds


def test_gray_selection_is_deterministic():
    _, _, injector_a = build()
    _, _, injector_b = build()
    for level in ("slow_device", "net_degrade", "flap"):
        spec = (
            FaultSpec(level=level, loss=0.2)
            if level == "net_degrade"
            else FaultSpec(level=level)
        )
        assert injector_a.inject(spec) == injector_b.inject(spec)
        injector_a.restore_all()
        injector_b.restore_all()


# -- monitor: seeded heartbeat phase offsets (regression) -----------------------


def test_heartbeat_phase_offsets_pin_detection_times():
    times = {}
    for attempt in range(2):
        env, cluster, _ = build()
        env.run(until=100)
        for osd_id in cluster.topology.hosts[2].osd_ids:
            cluster.osds[osd_id].host_running = False
        env.run(until=200)
        times[attempt] = dict(cluster.monitor.down_since)
    # Byte-identical across same-seed runs, inside the grace window...
    assert times[0] == times[1]
    assert len(times[0]) == 2
    grace = cluster.config.osd_heartbeat_grace
    for t in times[0].values():
        assert 100 + grace <= t <= 100 + grace + 40
    # ...and the seeded per-OSD phases are distinct and bounded by the
    # interval, so heartbeats never arrive in lockstep (the old bug:
    # every loop started at t=0 and beat in perfect phase).
    phases = cluster.monitor._phase
    assert len(set(phases.values())) == len(phases)
    interval = cluster.config.osd_heartbeat_interval
    assert all(0.0 <= p < interval for p in phases.values())


# -- retry policy (hypothesis) --------------------------------------------------


@given(
    seed=st.integers(0, 2**32 - 1),
    attempts=st.integers(0, 12),
    base=st.floats(0.05, 5.0),
)
def test_retry_schedule_monotone_bounded_deterministic(seed, attempts, base):
    def draw():
        rng = random.Random(seed)
        return [retry_backoff(attempt, base, rng)
                for attempt in range(1, attempts + 1)]

    schedule, again = draw(), draw()
    assert schedule == again  # byte-identical for a fixed seed
    assert all(delay <= DEFAULT_BACKOFF_CAP for delay in schedule)
    assert all(b >= a for a, b in zip(schedule, schedule[1:]))  # monotone


def test_retry_schedule_validation():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        retry_backoff(0, 0.25, rng)
    with pytest.raises(ValueError):
        retry_backoff(3, 0.0, rng)
    with pytest.raises(ValueError):
        retry_backoff(3, 0.25, rng, cap=0.0)


# -- client defenses ------------------------------------------------------------


def test_client_exhausts_retry_budget_against_partitioned_shard():
    env, cluster, _ = build(client_retry_max=3)
    client = RadosClient(cluster)
    pg = cluster.pool.pg_of("o3")
    host = cluster.topology.osds[pg.acting[0]].host_id
    cluster.topology.hosts[host].nic.degrade(NetDegradation(partition=True))
    with pytest.raises(ReadFailedError, match="gave up after 4 attempts"):
        env.run_until_process(client.read_object("o3"))
    assert client.stats.retries == 3
    assert client.stats.reads_failed == 1
    assert client.stats.drops_seen >= 4  # one refused transfer per attempt


def test_hedged_read_rescues_straggler_and_accounts_waste():
    env, cluster, _ = build(client_hedge_delay=0.05)
    client = RadosClient(cluster)
    pg = cluster.pool.pg_of("o3")
    obj = next(o for o in pg.objects if o.name == "o3")
    cluster.osds[pg.acting[0]].disk.set_slow_factor(1000.0)
    ledger_before = cluster.ledger.device_bytes
    sample = env.run_until_process(client.read_object("o3"))
    assert sample.hedged
    assert sample.attempts == 1
    # One hedge for the straggling shard; the spare copy won the race.
    assert client.stats.hedges_issued == 1
    assert client.stats.hedges_won == 1
    # No double counting: the sample carries the object's bytes once and
    # the duplicate fetch lands in hedge waste, not in the WA ledger.
    assert sample.bytes_read == obj.size
    assert client.stats.hedge_wasted_bytes == obj.layout.chunk_stored_bytes
    assert cluster.ledger.device_bytes == ledger_before


def test_unhedged_read_waits_for_straggler():
    env, cluster, _ = build()
    client = RadosClient(cluster)
    pg = cluster.pool.pg_of("o3")
    cluster.osds[pg.acting[0]].disk.set_slow_factor(1000.0)
    sample = env.run_until_process(client.read_object("o3"))
    assert not sample.hedged
    assert client.stats.hedges_issued == 0
    assert sample.latency > 1.0  # stuck behind the x1000 slow disk


def test_healthy_reads_draw_nothing_from_defense_rngs():
    env, cluster, _ = build(
        client_op_timeout=30.0, client_hedge_delay=5.0, client_retry_max=5
    )
    client = RadosClient(cluster)
    for name in ("o1", "o2", "o3"):
        env.run_until_process(client.read_object(name))
    assert client.stats.retries == 0
    assert client.stats.timeouts == 0
    assert client.stats.hedges_issued == 0
    assert client.stats.redirects == 0


# -- recovery under gray faults -------------------------------------------------


def test_recovery_retries_through_lossy_network_and_converges():
    env, cluster, injector = build(down_out=30.0, objects=20)
    env.run(until=20)
    injector.inject(FaultSpec(level="net_degrade", loss=0.4))
    [victim] = injector.inject(FaultSpec(level="device", count=1))
    env.run(until=3000)
    stats = cluster.recovery.stats
    assert cluster.topology.fabric.drops > 0
    # Dropped pulls/pushes cost retries, but the seeded backoff loop
    # pushes recovery through (or abandons cleanly — never wedges).
    assert stats.op_retries > 0 or stats.ops_abandoned > 0
    assert cluster.recovery.idle
    injector.restore_all()
    env.run(until=3400)
    assert all(osd.is_up() for osd in cluster.osds.values())


# -- gray experiments: the cycle with a legacy fleet ----------------------------


def _profile(**ceph_overrides):
    return ExperimentProfile(
        name="gray-test",
        ec_plugin="jerasure",
        ec_params={"k": 4, "m": 2},
        pg_num=8,
        stripe_unit=1 * MB,
        num_hosts=8,
        osds_per_host=2,
        ceph=CephConfig(**ceph_overrides),
    )


def test_gray_experiment_slow_device_converges_without_markdown():
    outcome = run_tenant_experiment(
        _profile(),
        Workload(num_objects=12, object_size=1 * MB),
        TenantFleetSpec.legacy(),
        [FaultSpec(level="slow_device", factor=16.0)],
        seed=3,
        fault_duration=300.0,
    )
    assert outcome.slowed_osds and outcome.markdowns == 0
    assert outcome.converged and outcome.health == "HEALTH_OK"
    assert outcome.read_stats.count > 0 and outcome.read_stats.failures == 0


def test_gray_experiment_flap_produces_timeline_and_digest_is_stable():
    def run():
        return run_tenant_experiment(
            _profile(mon_osd_markdown_count=3),
            Workload(num_objects=12, object_size=1 * MB),
            TenantFleetSpec.legacy(),
            [FaultSpec(level="flap", flap_interval=15.0)],
            seed=5,
            fault_duration=900.0,
        )

    outcome = run()
    assert outcome.pins >= 1 and outcome.converged
    timeline = outcome.flap_timeline()
    assert timeline is not None
    assert timeline.markdowns_before_pin >= 3
    assert timeline.pinned >= timeline.first_markdown
    assert run().digest_json() == outcome.digest_json()


# -- chaos integration ----------------------------------------------------------


def test_sampler_levels_filter_restricts_draws():
    for seed in range(12):
        spec = sample_campaign(seed, levels=GRAY_LEVELS)
        injects = [a for a in spec.actions if a.kind == "inject"]
        assert injects, "gray-only campaigns must still schedule faults"
        assert all(a.level in GRAY_LEVELS for a in injects)
        assert spec.actions[-1].kind == "restore"


def test_sampler_rejects_bad_levels():
    with pytest.raises(ValueError, match="unknown fault levels"):
        sample_campaign(0, levels=("bogus",))
    with pytest.raises(ValueError, match="at least one"):
        sample_campaign(0, levels=())


def test_default_sampler_draws_every_gray_level():
    seen = set()
    for seed in range(60):
        for action in sample_campaign(seed).actions:
            if action.kind == "inject":
                seen.add(action.level)
    assert set(GRAY_LEVELS) <= seen


def test_gray_action_round_trips_through_json():
    spec = sample_campaign(11, levels=GRAY_LEVELS)
    from repro.chaos.campaign import CampaignSpec

    assert CampaignSpec.from_dict(spec.to_dict()) == spec


@pytest.mark.chaos
def test_gray_only_chaos_batch_converges():
    report = run_chaos(5, 3, levels=GRAY_LEVELS)
    assert report.ok
    assert report.passed + report.invalid == 3


def test_converged_check_flags_pin_leak():
    env, cluster, _ = build()
    cluster.monitor.pinned_until[3] = env.now + 500.0
    violations = check_converged(cluster)
    assert any("pins still active" in v.detail for v in violations)
