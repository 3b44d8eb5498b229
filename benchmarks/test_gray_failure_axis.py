"""Gray-failure axis: recovery time vs slow-disk factor, and what defenses buy.

A configuration axis the paper's crash-only fault model cannot see: a
disk that answers 16x slower is *worse* than a dead one, because the
failure detector never fires (heartbeats are cheap control-plane I/O)
and recovery pulls grind through the slow media.  The sweep crashes one
device, slows every surviving disk by 1x/4x/16x, and records the EC
recovery period.  The recovery-read QoS rate (40 MB/s against 250 MB/s
media) masks modest slowdowns — the axis has a knee: 4x media slowdown
costs almost nothing, 16x pushes the device past the QoS grant and the
recovery period follows the disk.

A second panel runs the flaky-network scenario with and without client
defenses (op timeout + seeded backoff + hedged/redirected reads) and
records the client p50/p99 — the defense's value is tail latency, not
the median.
"""

from conftest import MB, emit

from repro.analysis import render_table
from repro.cluster import CephConfig
from repro.core import (
    Controller,
    ExperimentProfile,
    FaultSpec,
    build_timeline,
)
from repro.tenancy import TenantFleetSpec, run_tenant_experiment
from repro.workload import Workload

FACTORS = [1.0, 4.0, 16.0]
SEED = 11


def gray_profile(**ceph_overrides) -> ExperimentProfile:
    return ExperimentProfile(
        name="gray-axis",
        ec_params={"k": 4, "m": 2},
        num_hosts=8,
        osds_per_host=2,
        pg_num=8,
        stripe_unit=4 * MB,
        ceph=CephConfig(mon_osd_down_out_interval=30.0, **ceph_overrides),
    )


def scout(profile, workload):
    """Probe run: learn placement so the sweep crashes a loaded PG."""
    controller = Controller(profile, seed=SEED)
    controller.coordinator.ingest_workload(workload)
    pg = max(
        controller.cluster.pool.pgs.values(), key=lambda p: len(p.objects)
    )
    victim = pg.acting[0]
    helpers = [o for o in controller.cluster.osds if o != victim]
    return victim, helpers


def run_slow_axis():
    profile = gray_profile()
    workload = Workload(num_objects=3, object_size=64 * MB)
    victim, helpers = scout(profile, workload)
    cells = {}
    for factor in FACTORS:
        faults = [FaultSpec(level="device", targets=[victim])]
        if factor > 1.0:
            faults.append(
                FaultSpec(level="slow_device", factor=factor, targets=helpers)
            )
        cells[factor] = run_tenant_experiment(
            profile, workload, TenantFleetSpec.legacy(), faults, seed=SEED,
            fault_duration=400.0,
        )
    return cells


def run_net_panel():
    workload = Workload(num_objects=12, object_size=1 * MB)
    faults = [
        FaultSpec(level="device", count=1),
        FaultSpec(level="net_degrade", latency=2.0, bandwidth_penalty=8.0),
    ]
    cells = {}
    for label, overrides in (
        ("naive", {}),
        ("defended", {"client_op_timeout": 0.4, "client_retry_base": 0.1,
                      "client_hedge_delay": 0.15}),
    ):
        cells[label] = run_tenant_experiment(
            gray_profile(**overrides),
            workload,
            TenantFleetSpec.legacy(),
            faults,
            seed=7,
            fault_duration=400.0,
        )
    return cells


def test_gray_failure_axis(benchmark, capsys):
    slow, net = benchmark.pedantic(
        lambda: (run_slow_axis(), run_net_panel()), rounds=1, iterations=1
    )

    periods = {f: build_timeline(o.collector).ec_recovery_period
               for f, o in slow.items()}
    rows = [
        [
            f"{factor:.0f}x",
            f"{periods[factor]:.2f}s",
            f"{periods[factor] / periods[1.0]:.2f}x",
            slow[factor].markdowns,
            slow[factor].health,
        ]
        for factor in FACTORS
    ]
    table = render_table(
        "Gray axis: EC recovery vs slow-disk factor "
        "(1 device crash, all helpers slowed)",
        ["media slowdown", "EC recovery", "vs healthy media",
         "markdowns", "final health"],
        rows,
    )

    net_rows = [
        [
            label,
            f"{o.read_stats.latency_percentile(50):.3f}s",
            f"{o.read_stats.latency_percentile(99):.3f}s",
            o.client_stats.timeouts,
            o.client_stats.hedges_won,
            o.client_stats.redirects,
        ]
        for label, o in net.items()
    ]
    table += "\n\n" + render_table(
        "Flaky network (2s extra latency, 8x bandwidth penalty on one host)",
        ["client", "p50", "p99", "timeouts", "hedges won", "redirects"],
        net_rows,
    )
    emit(capsys, "gray_failure_axis", table)

    # Shape: recovery inflates monotonically with the media slowdown,
    # with the QoS knee — 4x is nearly free, 16x is not.
    assert periods[1.0] <= periods[4.0] <= periods[16.0]
    assert periods[16.0] > periods[1.0] * 1.2
    assert periods[4.0] < periods[1.0] * 1.15
    # The detector never fires on slow media: the only markdown in every
    # cell is the genuinely crashed device.
    for outcome in slow.values():
        assert outcome.markdowns == 1
        assert outcome.converged

    # Defenses cut the degraded-path tail, and both worlds converge.
    assert (net["defended"].read_stats.latency_percentile(99)
            < net["naive"].read_stats.latency_percentile(99) / 2)
    assert net["defended"].client_stats.hedges_won > 0
    assert net["defended"].client_stats.redirects > 0
    assert net["naive"].client_stats.hedges_issued == 0
    for outcome in net.values():
        assert outcome.converged
