#!/usr/bin/env python
"""Gray failures: slow disks, flapping daemons, flaky networks — and defenses.

Crashes are the easy case: the monitor sees silence, marks the OSD down,
and recovery re-encodes.  Gray failures are the miserable middle — the
disk still answers (16x slower), the daemon keeps rejoining, the NIC
drops half the packets — and naive clusters thrash.  Three seeded
scenarios show the axis and what each defense buys:

  1. slow disk   — a 16x-slowed helper inflates EC recovery time, yet is
                   never marked down (heartbeats are cheap; data I/O is
                   what suffers).
  2. flap        — an OSD daemon oscillating every 15s is pinned down by
                   monitor-side flap dampening after the markdown
                   budget, and health still converges to HEALTH_OK.
  3. flaky net   — op timeouts + seeded backoff + hedged/redirected
                   degraded reads cut client p99 several-fold on a
                   degraded path.

Every scenario runs twice with the same seed and asserts the outcome
digests are byte-identical — gray faults and their defenses live inside
the deterministic simulation contract.

Run:  python examples/gray_failures.py
      python examples/gray_failures.py --factor 8 --objects 16
"""

import argparse

from repro.cluster import CephConfig
from repro.core import (
    Controller,
    ExperimentProfile,
    FaultSpec,
    TimelineError,
    build_timeline,
)
from repro.tenancy import TenantFleetSpec, run_tenant_experiment
from repro.workload import Workload

MB = 1024 * 1024


def profile_for(**ceph_overrides) -> ExperimentProfile:
    return ExperimentProfile(
        name="gray-failures",
        ec_params={"k": 4, "m": 2},
        num_hosts=8,
        osds_per_host=2,
        pg_num=8,
        stripe_unit=1 * MB,
        ceph=CephConfig(mon_osd_down_out_interval=30.0, **ceph_overrides),
    )


def scout_stripe(profile, workload, seed):
    """Same profile + seed => same placement: find a loaded PG's stripe.

    A probe run ingests the workload once to learn which placement
    group actually holds objects, then the real experiments crash that
    PG's primary and slow every surviving disk.
    """
    controller = Controller(profile, seed=seed)
    controller.coordinator.ingest_workload(workload)
    pg = max(
        controller.cluster.pool.pgs.values(), key=lambda p: len(p.objects)
    )
    victim = pg.acting[0]
    helpers = [o for o in controller.cluster.osds if o != victim]
    return victim, helpers


def assert_deterministic(label, run):
    first, second = run(), run()
    assert first.digest_json() == second.digest_json(), (
        f"{label}: same-seed outcomes diverged"
    )
    print(f"  [determinism] {label}: two same-seed runs are byte-identical")
    return first


def scenario_slow_disk(args):
    print("=== 1. Slow disk: recovery inflates, markdown never fires ===")
    profile = profile_for()
    workload = Workload(num_objects=3, object_size=64 * MB)
    victim, helpers = scout_stripe(profile, workload, seed=11)

    def run(slow):
        faults = [FaultSpec(level="device", targets=[victim])]
        if slow:
            faults.append(
                FaultSpec(
                    level="slow_device", factor=args.factor, targets=helpers
                )
            )
        return run_tenant_experiment(
            profile, workload, TenantFleetSpec.legacy(), faults, seed=11,
            fault_duration=400.0,
        )

    baseline = run(slow=False)
    slowed = assert_deterministic("slow disk", lambda: run(slow=True))
    times = {}
    for label, outcome in (("crash only", baseline),
                           (f"crash + {args.factor:.0f}x slow", slowed)):
        timeline = build_timeline(outcome.collector)
        times[label] = timeline.ec_recovery_period
        print(
            f"  {label:<20} EC recovery {timeline.ec_recovery_period:7.2f}s"
            f"   markdowns {outcome.markdowns}   health {outcome.health}"
        )
    assert slowed.markdowns == 1, "slow helpers must never be marked down"
    assert times[f"crash + {args.factor:.0f}x slow"] > times["crash only"]
    ratio = times[f"crash + {args.factor:.0f}x slow"] / times["crash only"]
    print(
        f"  -> {args.factor:.0f}x slower media stretched recovery {ratio:.2f}x"
        " while heartbeats kept every slow OSD 'up' under default grace\n"
    )


def scenario_flap(args):
    print("=== 2. Flapping OSD: dampening pins it, health converges ===")
    profile = profile_for(mon_osd_markdown_count=3)
    workload = Workload(num_objects=args.objects, object_size=1 * MB)

    def run():
        return run_tenant_experiment(
            profile,
            workload,
            TenantFleetSpec.legacy(),
            [FaultSpec(level="flap", flap_interval=15.0)],
            seed=5,
            fault_duration=900.0,
        )

    outcome = assert_deterministic("flap", run)
    assert outcome.pins >= 1, "dampening never pinned the flapping OSD"
    assert outcome.converged and outcome.health == "HEALTH_OK"
    print(
        f"  markdowns {outcome.markdowns}, pins {outcome.pins}, "
        f"final health {outcome.health}"
    )
    flap_timeline = outcome.flap_timeline()
    if flap_timeline is not None:
        for offset, label in flap_timeline.annotations():
            print(f"  t+{offset:7.1f}s  {label}")
    print(
        "  -> after mon_osd_markdown_count markdowns inside the period the"
        "\n     monitor stops believing the daemon's heartbeats (pin), the"
        "\n     map stops thrashing, and the pin expires into HEALTH_OK\n"
    )


def scenario_flaky_net(args):
    print("=== 3. Flaky network: hedged/redirected reads rescue p99 ===")
    workload = Workload(num_objects=args.objects, object_size=1 * MB)
    faults = [
        FaultSpec(level="device", count=1),
        FaultSpec(
            level="net_degrade", latency=2.0, bandwidth_penalty=8.0
        ),
    ]

    def run(defended):
        overrides = (
            {"client_op_timeout": 0.4, "client_retry_base": 0.1,
             "client_hedge_delay": 0.15}
            if defended
            else {}
        )
        return run_tenant_experiment(
            profile_for(**overrides),
            workload,
            TenantFleetSpec.legacy(),
            faults,
            seed=7,
            fault_duration=400.0,
        )

    naive = run(defended=False)
    defended = assert_deterministic("flaky net", lambda: run(defended=True))
    for label, outcome in (("no defenses", naive), ("defended", defended)):
        stats = outcome.read_stats
        c = outcome.client_stats
        print(
            f"  {label:<12} p50 {stats.latency_percentile(50):6.3f}s"
            f"  p99 {stats.latency_percentile(99):6.3f}s"
            f"  timeouts {c.timeouts:3d}  hedges won {c.hedges_won:3d}"
            f"  redirects {c.redirects:3d}  health {outcome.health}"
        )
    p99_naive = naive.read_stats.latency_percentile(99)
    p99_defended = defended.read_stats.latency_percentile(99)
    assert p99_defended < p99_naive, "defenses must cut tail latency"
    assert defended.converged and naive.converged
    print(
        f"  -> op timeout + hedge + primary redirect cut p99 "
        f"{p99_naive / p99_defended:.1f}x on a degraded path\n"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--objects", type=int, default=12)
    parser.add_argument("--factor", type=float, default=16.0)
    args = parser.parse_args()
    scenario_slow_disk(args)
    scenario_flap(args)
    scenario_flaky_net(args)
    print(
        "Gray faults share the crash axis' white-box guard: combined with"
        "\ncrash faults they never exceed what the erasure code tolerates,"
        "\nso every degraded window above was survivable by construction."
    )


if __name__ == "__main__":
    main()
