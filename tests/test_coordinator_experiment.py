"""Coordinator and the high-level experiment API: full cycles."""

import pytest

from repro.core import (
    Controller,
    ExperimentProfile,
    FaultSpec,
    run_cell,
    run_experiment,
)
from repro.core.experiment import iter_experiments
from repro.cluster.osd import CephConfig
from repro.geo.experiment import run_stretch_experiment
from repro.tenancy.experiment import run_tenant_experiment
from repro.workload import Workload

MB = 1024 * 1024

FAST_CEPH = CephConfig(mon_osd_down_out_interval=60.0)


def small_profile(**overrides):
    settings = dict(
        name="test",
        pg_num=16,
        num_hosts=15,
        osds_per_host=2,
        ceph=FAST_CEPH,
    )
    settings.update(overrides)
    return ExperimentProfile(**settings)


def small_workload(count=60):
    return Workload(num_objects=count, object_size=8 * MB)


def test_full_experiment_produces_timeline():
    outcome = run_experiment(
        small_profile(), small_workload(), [FaultSpec(level="node", count=1)]
    )
    timeline = outcome.timeline
    assert timeline is not None
    # Order of phases is monotonic.
    assert (
        timeline.fault_injected
        <= timeline.failure_detected
        <= timeline.marked_out
        <= timeline.ec_recovery_started
        <= timeline.ec_recovery_finished
    )
    # The down/out interval dominates the checking period.
    assert timeline.checking_period >= 60.0
    assert outcome.total_recovery_time > 0


def test_experiment_without_faults_has_no_timeline():
    outcome = run_experiment(small_profile(), small_workload(20), faults=[])
    assert outcome.timeline is None
    assert outcome.recovery_stats.pgs_queued == 0
    with pytest.raises(RuntimeError):
        outcome.total_recovery_time
    assert outcome.wa.actual > 1.0


def test_experiment_is_deterministic():
    args = (small_profile(), small_workload(), [FaultSpec(level="node")])
    a = run_experiment(*args, seed=7)
    b = run_experiment(*args, seed=7)
    assert a.total_recovery_time == b.total_recovery_time
    assert a.recovery_stats.bytes_read == b.recovery_stats.bytes_read


def test_different_seeds_differ():
    args = (small_profile(), small_workload(), [FaultSpec(level="node")])
    a = run_experiment(*args, seed=1)
    b = run_experiment(*args, seed=2)
    # Different fault targets / placement: byte counts differ generically.
    assert (
        a.recovery_stats.bytes_read != b.recovery_stats.bytes_read
        or a.total_recovery_time != b.total_recovery_time
    )


def test_controller_is_single_use():
    controller = Controller(small_profile())
    controller.coordinator.run(small_workload(10))
    with pytest.raises(RuntimeError, match="fresh Controller"):
        controller.coordinator.run(small_workload(10))


@pytest.mark.parametrize("warmup", [0.0, 25.0])
def test_every_entry_point_injects_after_its_warmup(monkeypatch, warmup):
    """``warmup`` is the warmup in ``run_experiment`` and in
    ``run_stretch_experiment``, which reaches the cycle through it."""
    workload = Workload(num_objects=12, object_size=4 * MB)
    direct = run_experiment(
        small_profile(), workload, [FaultSpec(level="node")], warmup=warmup
    )
    outcomes = []

    def keep(*args, **kwargs):
        outcomes.append(run_experiment(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr("repro.geo.experiment.run_experiment", keep)
    run_stretch_experiment(
        small_profile(num_regions=3), workload, [FaultSpec(level="node")],
        warmup=warmup,
    )
    (stretched,) = outcomes
    for outcome in (direct, stretched):
        assert outcome.collector.first_matching("shutdown").time == warmup


def test_repeat_experiment_averages():
    faults = [FaultSpec(level="node")]
    timelines = [outcome.timeline for outcome in iter_experiments(
        small_profile(), small_workload(40), faults, runs=3, base_seed=0)]
    row = run_cell(small_profile(), small_workload(40), faults,
                   runs=3, base_seed=0)
    times = [timeline.total_recovery for timeline in timelines]
    assert len(set(times)) > 1  # the seeds differ
    assert row.recovery_time == pytest.approx(sum(times) / 3)
    assert 0 < row.checking_fraction < 1


def test_repeat_experiment_validation():
    with pytest.raises(ValueError):
        run_cell(small_profile(), small_workload(1), [], runs=0, base_seed=0)


def test_iostat_collected_during_experiment():
    outcome = run_experiment(
        small_profile(), small_workload(), [FaultSpec(level="node")]
    )
    assert outcome.iostat is not None
    assert len(outcome.iostat.samples) > 0
    busiest = outcome.iostat.busiest_devices(top=3)
    assert busiest  # recovery moved bytes somewhere


def test_device_level_experiment():
    profile = small_profile(failure_domain="osd", osds_per_host=3)
    outcome = run_experiment(
        profile,
        small_workload(),
        [FaultSpec(level="device", count=2, colocation="same_host")],
    )
    assert len(outcome.injected_osds) == 2
    assert outcome.timeline is not None
    assert outcome.recovery_stats.pgs_recovered > 0


def test_logs_flow_through_bus():
    controller = Controller(small_profile())
    controller.coordinator.run(small_workload(), [FaultSpec(level="node")])
    collector = controller.coordinator.collector
    assert collector.of_class("failure")
    assert collector.of_class("recovery")
    assert collector.of_class("osdmap")
    # Bus topics were actually used.
    assert any(t.startswith("ecfault.logs.") for t in controller.coordinator.bus.topics())


def rs42_profile():
    """RS(4,2) on 8 hosts x 2 OSDs with the default 600 s down/out."""
    return ExperimentProfile(
        name="rs42", ec_plugin="jerasure", ec_params={"k": 4, "m": 2},
        num_hosts=8, osds_per_host=2, pg_num=16,
    )


def test_correlated_crash_waits_for_recovery():
    """A correlated domain crash is a crash level: the cycle waits for
    mark-out and re-replication instead of returning at the settle."""
    outcome = run_experiment(
        rs42_profile(), Workload(num_objects=40, object_size=4 * MB),
        [FaultSpec(level="correlated_crash", domain="host")], seed=1,
    )
    stats = outcome.recovery_stats
    assert outcome.timeline is not None
    assert stats.pgs_queued == 13
    assert stats.pgs_recovered == 13
    assert outcome.finished_at == pytest.approx(686.8, abs=0.05)


@pytest.mark.xfail(strict=True, reason=(
    "known defect: recovery may pick a down-but-not-out sibling OSD as "
    "the new primary or push target"
))
def test_host_crash_recovers_when_siblings_go_out_on_different_ticks():
    """The host's OSDs 12 and 13 are marked out at t=675 and t=680.  The
    first recovery wave can land on OSD 13, down but not yet out; today
    5 of 14 PGs are abandoned after 72 op retries and never requeued."""
    outcome = run_experiment(
        rs42_profile(), Workload(num_objects=40, object_size=4 * MB),
        [FaultSpec(level="node")], seed=1,
    )
    stats = outcome.recovery_stats
    assert stats.pgs_queued == 14
    assert stats.pgs_abandoned == 0
    assert stats.pgs_recovered == 14


@pytest.mark.parametrize("level, restored", [
    ("device", ["osd.6"]),
    ("node", ["osd.12", "osd.13"]),
])
def test_cycle_settles_after_the_monitor_marks_restored_osds_up(level, restored):
    """Regression: the settle used to accept the instant of the restore
    (t=70) while the monitor still marked the crashed OSDs down, so the
    outcome said HEALTH_OK before any "osd boot: marking up"."""
    outcome = run_tenant_experiment(
        rs42_profile(), Workload(num_objects=40, object_size=4 * MB),
        faults=[FaultSpec(level=level)], seed=1, warmup=10.0,
        fault_duration=60.0,
    )
    monitor = outcome.cluster.monitor
    assert outcome.converged and outcome.health == "HEALTH_OK"
    assert monitor.down_since == {}
    marked_up = [r for r in monitor.log if r.message == "osd boot: marking up"]
    assert sorted(r.field("osd") for r in marked_up) == restored
    assert all(70.0 < r.time < outcome.finished_at for r in marked_up)
    assert outcome.finished_at == pytest.approx(95.0)


def stretch_rs42_profile():
    """RS(4,2) stretched over 3 regions of 3 hosts."""
    return ExperimentProfile(
        name="rs42-geo", ec_plugin="jerasure", ec_params={"k": 4, "m": 2},
        num_hosts=9, num_regions=3, pg_num=16,
    )


@pytest.mark.parametrize("level", ["region_outage", "wan_partition"])
def test_held_region_fault_is_refused_before_the_warmup(level):
    """Regression: held region faults mark no OSD out, so the hold
    timing used to return at the injection instant (t=60) with OSDs
    down, no timeline and no PG queued."""
    controller = Controller(stretch_rs42_profile(), seed=3)
    with pytest.raises(ValueError, match="fault_duration"):
        controller.coordinator.run(
            Workload(num_objects=12, object_size=4 * MB), [FaultSpec(level=level)]
        )
    assert controller.env.now == 0.0
    assert not controller.fault_injector.injected_osds


def test_corrupt_fault_without_scrubbing_is_refused_before_the_warmup():
    """The check used to fire only after the faults were injected."""
    controller = Controller(rs42_profile(), seed=3)
    with pytest.raises(ValueError, match="scrubbing is disabled"):
        controller.coordinator.run(
            Workload(num_objects=12, object_size=4 * MB),
            [FaultSpec(level="corrupt")],
        )
    assert controller.env.now == 0.0
    assert not controller.cluster.integrity.corrupted_chunk_count()
