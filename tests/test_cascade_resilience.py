"""Cascade resilience: correlated faults, risk priority, backpressure.

Covers the four pillars of the cascade subsystem:

- ``correlated_crash`` faults that take a whole failure domain down in
  one event (spec validation, injector selection, white-box guard);
- risk-prioritized recovery admission and the per-PG
  time-at-min-redundancy accounting behind it;
- capacity backpressure: monitor tiers, the cluster-wide write pause,
  backfillfull target exclusion, and the toofull requeue;
- the chaos wiring: cascade sampling, stream exclusivity, the two new
  invariants, and the per-stream pinned outcome hashes that prove the
  pre-existing streams stayed byte-identical.
"""

import json
from types import SimpleNamespace

import pytest

from repro.chaos import (
    CampaignSpec,
    ScheduledAction,
    cascade_scenario,
    run_campaign,
    run_chaos,
    sample_campaign,
)
from repro.chaos.invariants import (
    check_no_avoidable_loss,
    check_priority_soundness,
)
from repro.cluster import CACHE_SCHEMES, CephCluster, CephConfig, check_health
from repro.core.controller import Controller
from repro.core.fault_injector import FaultSpec, FaultToleranceError
from repro.core.profile import ExperimentProfile
from repro.ec import ReedSolomon
from repro.sim import Environment
from repro.workload.generator import Workload

pytestmark = pytest.mark.chaos

KB = 1024
MB = 1024 * 1024


def rack_profile(**overrides):
    """The cascade cluster shape: one host per rack, rack failure domain."""
    defaults = dict(
        name="cascade-test",
        ec_plugin="jerasure",
        ec_params={"k": 4, "m": 2},
        pg_num=8,
        stripe_unit=256 * KB,
        cache_scheme="autotune",
        failure_domain="rack",
        num_hosts=8,
        osds_per_host=2,
        num_racks=8,
    )
    defaults.update(overrides)
    return ExperimentProfile(**defaults)


def rack_controller(seed=0, **overrides):
    controller = Controller(rack_profile(**overrides), seed=seed)
    controller.coordinator.ingest_workload(
        Workload(num_objects=16, object_size=1 * MB)
    )
    controller.env.run(until=10)
    return controller


# -- FaultSpec validation ------------------------------------------------------


def test_correlated_crash_rejects_unknown_domain():
    with pytest.raises(ValueError, match="domain"):
        FaultSpec(level="correlated_crash", domain="datacenter")


@pytest.mark.parametrize("domain", ["host", "rack", "region"])
def test_correlated_crash_accepts_topology_domains(domain):
    spec = FaultSpec(level="correlated_crash", domain=domain)
    assert spec.domain == domain


# -- injector ------------------------------------------------------------------


def test_correlated_crash_fails_a_whole_rack():
    controller = rack_controller(seed=5)
    cluster = controller.cluster
    spec = FaultSpec(level="correlated_crash", domain="rack", count=1)
    affected = controller.fault_injector.inject(spec)
    racks = {
        cluster.topology.bucket_of(osd_id, "rack") for osd_id in affected
    }
    assert len(racks) == 1
    rack = racks.pop()
    rack_osds = sorted(cluster.topology.osds_in_bucket(rack, "rack"))
    assert sorted(affected) == rack_osds
    assert all(not cluster.osds[osd_id].is_up() for osd_id in rack_osds)


def test_correlated_crash_selection_is_deterministic():
    picks = []
    for _ in range(2):
        controller = rack_controller(seed=7)
        spec = FaultSpec(level="correlated_crash", domain="rack", count=1)
        picks.append(sorted(controller.fault_injector.inject(spec)))
    assert picks[0] == picks[1]


def test_correlated_crash_explicit_target_bucket():
    controller = rack_controller(seed=1)
    cluster = controller.cluster
    spec = FaultSpec(
        level="correlated_crash", domain="rack", count=1, targets=(3,)
    )
    affected = controller.fault_injector.inject(spec)
    assert sorted(affected) == sorted(
        cluster.topology.osds_in_bucket(3, "rack")
    )


def test_correlated_crash_rejects_unknown_target_bucket():
    controller = rack_controller(seed=1)
    spec = FaultSpec(
        level="correlated_crash", domain="rack", count=1, targets=(99,)
    )
    with pytest.raises(ValueError):
        controller.fault_injector.inject(spec)


def test_correlated_crash_guard_refuses_overcommit():
    # Three racks down against tolerance m=2: the white-box guard that
    # keeps injected faults below the data-loss line must refuse.
    controller = rack_controller(seed=2)
    spec = FaultSpec(level="correlated_crash", domain="rack", count=3)
    with pytest.raises(FaultToleranceError):
        controller.fault_injector.inject(spec)


def test_correlated_crash_restores_cleanly():
    controller = rack_controller(seed=3)
    cluster = controller.cluster
    spec = FaultSpec(level="correlated_crash", domain="rack", count=1)
    affected = controller.fault_injector.inject(spec)
    controller.fault_injector.restore_all()
    controller.env.run(until=controller.env.now + 1)
    assert all(cluster.osds[osd_id].is_up() for osd_id in affected)


# -- campaign spec rules -------------------------------------------------------


def test_campaign_rejects_rack_cascade_without_racks():
    with pytest.raises(ValueError, match="rack"):
        CampaignSpec(
            seed=1,
            ec_plugin="jerasure",
            ec_params=(("k", 3), ("m", 2)),
            pg_num=4,
            stripe_unit=256 * KB,
            num_hosts=8,
            osds_per_host=1,
            num_objects=4,
            object_size=512 * KB,
            actions=(
                ScheduledAction(
                    at=100.0, kind="inject", level="correlated_crash",
                    domain="rack",
                ),
                ScheduledAction(at=200.0, kind="restore"),
            ),
        )


def test_campaign_rejects_unknown_recovery_priority():
    with pytest.raises(ValueError, match="priority"):
        cascade_scenario(1, recovery_priority="psychic")


def test_cascade_spec_round_trips_through_json():
    spec = cascade_scenario(42, recovery_priority="risk")
    rebuilt = CampaignSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert rebuilt == spec


def test_old_campaign_json_still_loads_with_defaults():
    spec = sample_campaign(77)
    payload = spec.to_dict()
    for key in ("num_racks", "recovery_priority", "track_risk_exposure"):
        payload.pop(key, None)
    rebuilt = CampaignSpec.from_dict(payload)
    assert rebuilt.num_racks == 1
    assert rebuilt.recovery_priority == "fifo"
    assert rebuilt.track_risk_exposure is False


# -- sampler -------------------------------------------------------------------


def test_cascade_sampling_is_deterministic():
    assert sample_campaign(31, cascade=True) == sample_campaign(
        31, cascade=True
    )


def test_cascade_off_flag_is_byte_identical_to_baseline():
    assert sample_campaign(31) == sample_campaign(31, cascade=False)


def test_cascade_campaign_shape():
    for seed in range(8):
        spec = sample_campaign(seed, cascade=True)
        assert spec.failure_domain == "rack"
        assert spec.num_racks > 1
        assert spec.track_risk_exposure is True
        assert spec.recovery_priority in ("fifo", "risk")
        levels = [
            action.level for action in spec.actions
            if action.kind == "inject"
        ]
        assert "correlated_crash" in levels


@pytest.mark.parametrize("other", ["writes", "tenants", "geo", "byzantine"])
def test_cascade_is_exclusive_with_other_streams(other):
    with pytest.raises(ValueError, match="exclusive"):
        sample_campaign(1, cascade=True, **{other: True})


# -- risk priority vs FIFO -----------------------------------------------------


def test_risk_priority_beats_fifo_on_time_at_min_redundancy():
    fifo = run_campaign(cascade_scenario(7, recovery_priority="fifo"))
    risk = run_campaign(cascade_scenario(7, recovery_priority="risk"))
    assert fifo.passed and risk.passed
    fifo_t = fifo.digest["recovery"]["time_at_min_redundancy"]
    risk_t = risk.digest["recovery"]["time_at_min_redundancy"]
    assert risk_t < fifo_t
    assert risk.digest["recovery"]["pgs_recovered"] == (
        fifo.digest["recovery"]["pgs_recovered"]
    )


def test_cascade_scenario_is_deterministic():
    first = run_campaign(cascade_scenario(7, recovery_priority="risk"))
    second = run_campaign(cascade_scenario(7, recovery_priority="risk"))
    assert first.outcome_hash == second.outcome_hash


# -- time-at-min-redundancy accounting ----------------------------------------


def build_cluster(**config_overrides):
    env = Environment()
    config_overrides.setdefault("mon_osd_down_out_interval", 30.0)
    config = CephConfig(**config_overrides)
    cluster = CephCluster(
        env,
        ReedSolomon(4, 2),
        CACHE_SCHEMES["autotune"],
        config=config,
        num_hosts=10,
        pg_num=8,
    )
    for i in range(24):
        cluster.ingest_object(f"o{i}", 2 * MB)
    env.run(until=10)
    return env, cluster


def fail_shards_of_one_pg(cluster, shards):
    pg = next(pg for pg in cluster.pool.pgs.values() if pg.objects)
    hosts = {
        cluster.topology.osds[pg.acting[shard]].host_id for shard in shards
    }
    for host_id in hosts:
        for osd_id in cluster.topology.hosts[host_id].osd_ids:
            cluster.osds[osd_id].host_running = False
    return pg


def test_risk_exposure_clocks_record_time_at_min():
    env, cluster = build_cluster(osd_track_risk_exposure=True)
    fail_shards_of_one_pg(cluster, shards=(0, 1))
    done = cluster.recovery.wait_all_recovered()
    env.run(until=5000)
    assert done.triggered
    stats = cluster.recovery.stats
    assert stats.pgs_at_min_redundancy >= 1
    assert stats.time_at_min_redundancy > 0.0


def test_risk_exposure_accounting_is_off_by_default():
    env, cluster = build_cluster()
    fail_shards_of_one_pg(cluster, shards=(0, 1))
    done = cluster.recovery.wait_all_recovered()
    env.run(until=5000)
    assert done.triggered
    stats = cluster.recovery.stats
    assert stats.pgs_at_min_redundancy == 0
    assert stats.time_at_min_redundancy == 0.0


def test_pgs_at_tolerance_probe():
    env, cluster = build_cluster(mon_osd_down_out_interval=10_000.0)
    pgs = cluster.pool.pgs.values()
    assert all(cluster.recovery.pg_margin(pg) > 0 for pg in pgs)
    fail_shards_of_one_pg(cluster, shards=(0, 1))
    assert any(cluster.recovery.pg_margin(pg) <= 0 for pg in pgs)


def test_fifo_runs_record_no_admissions():
    env, cluster = build_cluster()
    fail_shards_of_one_pg(cluster, shards=(0,))
    env.run(until=3000)
    assert cluster.recovery.admission_log == []


def test_risk_runs_admit_lowest_margin_first():
    env, cluster = build_cluster(
        osd_recovery_priority="risk", osd_track_risk_exposure=True
    )
    fail_shards_of_one_pg(cluster, shards=(0, 1))
    env.run(until=3000)
    log = cluster.recovery.admission_log
    assert log, "risk runs record every admission"
    for record in log:
        assert all(m >= record.margin for m in record.pending_margins)


# -- invariants ----------------------------------------------------------------


def test_priority_soundness_flags_unsound_admission():
    from repro.cluster.recovery import AdmissionRecord

    cluster = SimpleNamespace(
        recovery=SimpleNamespace(
            admission_log=[
                AdmissionRecord(
                    at=10.0, pg_id=3, margin=1, pending_margins=(0, 2)
                )
            ]
        )
    )
    violations = check_priority_soundness(cluster)
    assert len(violations) == 1
    assert violations[0].invariant == "priority-soundness"
    assert "pg 3" in violations[0].detail


def test_priority_soundness_passes_sound_log_and_empty_log():
    from repro.cluster.recovery import AdmissionRecord

    sound = SimpleNamespace(
        recovery=SimpleNamespace(
            admission_log=[
                AdmissionRecord(
                    at=10.0, pg_id=1, margin=0, pending_margins=(0, 1, 2)
                )
            ]
        )
    )
    assert check_priority_soundness(sound) == []
    vacuous = SimpleNamespace(recovery=SimpleNamespace(admission_log=[]))
    assert check_priority_soundness(vacuous) == []


def test_no_avoidable_loss_convicts_a_lost_audited_pg():
    pg = SimpleNamespace(pgid="1.0", acting=[0, 1, 2, 3, 4, 5])
    osds = {
        osd_id: SimpleNamespace(is_up=lambda up=(osd_id > 2): up)
        for osd_id in range(6)
    }
    cluster = SimpleNamespace(
        recovery=SimpleNamespace(_abandoned_with_alternative={0: 42.0}),
        pool=SimpleNamespace(
            pgs={0: pg}, code=SimpleNamespace(k=4)
        ),
        osds=osds,
        env=SimpleNamespace(now=100.0),
    )
    violations = check_no_avoidable_loss(cluster)
    assert len(violations) == 1
    assert violations[0].invariant == "no-avoidable-loss"
    assert "t=42" in violations[0].detail


def test_no_avoidable_loss_passes_when_pg_survives():
    pg = SimpleNamespace(pgid="1.0", acting=[0, 1, 2, 3, 4, 5])
    osds = {
        osd_id: SimpleNamespace(is_up=lambda: True) for osd_id in range(6)
    }
    cluster = SimpleNamespace(
        recovery=SimpleNamespace(_abandoned_with_alternative={0: 42.0}),
        pool=SimpleNamespace(pgs={0: pg}, code=SimpleNamespace(k=4)),
        osds=osds,
        env=SimpleNamespace(now=100.0),
    )
    assert check_no_avoidable_loss(cluster) == []


# -- capacity backpressure -----------------------------------------------------


def fill_to(osd, ratio):
    target = int(osd.disk.spec.capacity_bytes * ratio)
    osd.disk.allocate(target - osd.disk.used_bytes)


def test_capacity_tier_boundaries_are_inclusive():
    config = CephConfig(mon_osd_nearfull_ratio=0.5,
                        mon_osd_backfillfull_ratio=0.7,
                        mon_osd_full_ratio=0.7)
    assert config.capacity_tier(0.49) == "ok"
    assert config.capacity_tier(0.5) == "nearfull"
    # Equal ratios: the higher tier wins.
    assert config.capacity_tier(0.7) == "full"
    assert config.capacity_tier(1.0) == "full"


def test_monitor_tracks_capacity_tiers():
    env, cluster = build_cluster()
    monitor = cluster.monitor
    osd = cluster.osds[0]
    fill_to(osd, 0.86)
    env.run(until=env.now + 6)
    assert monitor.capacity_state[0] == "nearfull"
    fill_to(osd, 0.91)
    env.run(until=env.now + 6)
    assert monitor.capacity_state[0] == "backfillfull"
    assert osd.name in check_health(cluster).backfillfull_osds
    fill_to(osd, 0.96)
    env.run(until=env.now + 6)
    assert monitor.capacity_state[0] == "full"


def test_full_osd_pauses_writes_and_resume_wakes_the_gate():
    env, cluster = build_cluster()
    monitor = cluster.monitor
    assert monitor.write_gate() is None
    osd = cluster.osds[0]
    fill_to(osd, 0.96)
    env.run(until=env.now + 6)
    assert monitor.write_paused
    assert monitor.write_pauses_total == 1
    gate = monitor.write_gate()
    assert gate is not None and not gate.triggered
    osd.disk.free(int(osd.disk.spec.capacity_bytes * 0.5))
    env.run(until=env.now + 6)
    assert not monitor.write_paused
    assert gate.triggered
    assert monitor.write_gate() is None


def test_write_pause_follows_the_full_osds_liveness():
    # Only up OSDs pause writes: a full OSD going down lifts the pause
    # with its usage unchanged, and coming back up pauses writes again.
    env, cluster = build_cluster()
    monitor = cluster.monitor
    osd = cluster.osds[0]
    fill_to(osd, 0.96)
    env.run(until=env.now + 6)
    assert monitor.write_paused
    osd.host_running = False
    env.run(until=env.now + 6)
    assert not monitor.write_paused
    osd.host_running = True
    env.run(until=env.now + 6)
    assert monitor.write_paused
    assert monitor.write_pauses_total == 2


def test_backfillfull_osds_are_not_backfill_targets():
    env, cluster = build_cluster()
    fill_to(cluster.osds[0], 0.91)
    assert cluster.recovery._backfillfull_osds() == {0}


def test_toofull_backfill_requeues_after_capacity_frees():
    # Regression: a backfill whose push lands on a capacity-starved
    # target must abandon-and-watch, then requeue once space frees —
    # not stay silently degraded forever.
    env, cluster = build_cluster(mon_osd_down_out_interval=20.0)
    pg = next(pg for pg in cluster.pool.pgs.values() if pg.objects)
    acting = set(pg.acting)
    victim_host = cluster.topology.osds[pg.acting[0]].host_id
    victim_osds = set(cluster.topology.hosts[victim_host].osd_ids)
    # Starve every possible replacement target, then kill one shard.
    ballast = {}
    for osd_id, osd in cluster.osds.items():
        if osd_id in acting or osd_id in victim_osds:
            continue
        before = osd.disk.used_bytes
        # Leave less headroom than one rebuilt chunk needs, so every
        # push onto this target hits the toofull wall.
        osd.disk.allocate(osd.disk.headroom_bytes() - 64 * KB)
        ballast[osd_id] = osd.disk.used_bytes - before
    for osd_id in victim_osds:
        cluster.osds[osd_id].host_running = False
    env.run(until=1000)
    stats = cluster.recovery.stats
    assert stats.pgs_abandoned + stats.pgs_unplaceable >= 1
    assert stats.pgs_toofull_requeued == 0
    # Capacity frees; the convergence kick must requeue and recover.
    for osd_id, nbytes in ballast.items():
        cluster.osds[osd_id].disk.free(nbytes)
    assert cluster.recovery.kick_stale()
    done = cluster.recovery.wait_all_recovered()
    env.run(until=6000)
    assert done.triggered
    assert cluster.recovery.stats.pgs_toofull_requeued >= 1
    assert all(
        cluster.osds[osd_id].is_up() for osd_id in pg.acting
    )


# -- chaos wiring: cascade stream + pinned hashes ------------------------------


def test_cascade_chaos_batch_passes_both_new_invariants():
    report = run_chaos(404, 6, cascade=True)
    details = [
        (r.spec.seed, v.invariant, v.detail)
        for r in report.failures
        for v in r.violations
    ]
    assert not report.failures, details
    assert report.campaigns == 6


#: One campaign per stream, seed 11: pinned at the commit that
#: introduced the cascade stream.  The writes/tenants/geo/byzantine
#: hashes were computed on the pre-cascade tree and verified identical
#: here — the proof that the cascade draws (last in the sampler, gated
#: config defaults everywhere else) left every existing stream
#: byte-identical.  The hashes leave out the kernel's step count; they
#: were re-pinned on the process-per-job service center and hold
#: unchanged on the closed-form one.
PINNED_STREAM_HASHES = {
    "writes": (
        "cc59a771531c37642ea90a61beb403a914c4cb73481d049568a659bc2d0d3ee7"
    ),
    "tenants": (
        "f15fe44191ceb875b2536c1490be72c4b8caf0a56a5aeb615ca6ddaec7720db7"
    ),
    "geo": (
        "9572c92f8a406c17429d019e3a2449319ac3d696356433bf2d539acfc10ab8e1"
    ),
    "byzantine": (
        "b9aab25b80716ddf4242549e38e99f98506264609c0696d2f66223126f389ef9"
    ),
    "cascade": (
        "1705f1007a93cab751765cb8a0aec96e020b883b535cee43e53b7ddf10e8177a"
    ),
}


@pytest.mark.parametrize("stream", sorted(PINNED_STREAM_HASHES))
def test_per_stream_outcome_hash_pinned(stream):
    spec = sample_campaign(11, **{stream: True})
    result = run_campaign(spec)
    assert result.outcome_hash == PINNED_STREAM_HASHES[stream]
