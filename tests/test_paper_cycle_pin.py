"""Paper-cycle pin: one SHA-256 over the hold timing's outcomes.

The paper's cycle (§3) holds the faults: inject, poll until the crash
victims are marked out, wait for re-replication, then for scrub to
quiesce when corruption was injected.  The hash was recorded while that
timing still had a driver of its own.  It covers every observable of
:func:`~repro.core.experiment.run_experiment`: both timelines, recovery
and scrub stats, the WA report, the injected OSDs, ``finished_at``, the
workload bytes, every collected log record and every iostat sample.
``finished_at`` is what moves if the timing is driven from outside the
simulation (its 5 s poll would then run after same-instant monitor
ticks).  Scenarios: a node crash, two devices on one host, two devices
on different hosts under Clay, a rack crash, one bit-rot chunk, a node
crash beside a slow device, no fault, and a held stretch-cluster node
crash (hashed through ``GeoOutcome.digest()``).
"""

import hashlib
from dataclasses import asdict

import pytest

from repro.cluster import CephConfig
from repro.core import ExperimentProfile, FaultSpec, run_experiment
from repro.core.digest import canonical_json
from repro.geo import run_stretch_experiment
from repro.workload import Workload

MB = 1024 * 1024

PINNED_PAPER_CYCLE_HASH = (
    "e3da3e446627ce1747f03532b2d23b004811140cae7a1687ddce3370a5978dbe"
)


def rs42(**overrides):
    settings = dict(
        name="rs42", ec_plugin="jerasure", ec_params={"k": 4, "m": 2},
        num_hosts=8, osds_per_host=2, pg_num=16,
        ceph=CephConfig(mon_osd_down_out_interval=60.0),
    )
    settings.update(overrides)
    return ExperimentProfile(**settings)


CLAY = {"ec_plugin": "clay", "ec_params": {"k": 4, "m": 2, "d": 5}}

#: name -> (profile, faults, the branch the cycle must reach).
SCENARIOS = {
    "node": (rs42(), [FaultSpec(level="node")], "recovery"),
    "devices_same_host": (
        rs42(failure_domain="osd", osds_per_host=3),
        [FaultSpec(level="device", count=2, colocation="same_host")],
        "recovery",
    ),
    "clay_devices_diff_hosts": (
        rs42(name="clay", **CLAY),
        [FaultSpec(level="device", count=2, colocation="diff_hosts")],
        "recovery",
    ),
    "rack_crash": (
        rs42(num_racks=8),
        [FaultSpec(level="correlated_crash", domain="rack")],
        "recovery",
    ),
    "bit_rot": (
        rs42(scrub_interval=200.0),
        [FaultSpec(level="corrupt", count=1)],
        "scrub",
    ),
    "node_beside_slow_device": (
        rs42(),
        [FaultSpec(level="node"), FaultSpec(level="slow_device", factor=8.0)],
        "recovery",
    ),
    "no_fault": (rs42(), [], None),
}


def observables(outcome):
    """Every observable of one hold-timing outcome, JSON-ready."""
    return {
        "timeline": asdict(outcome.timeline) if outcome.timeline else None,
        "scrub_timeline": (
            asdict(outcome.scrub_timeline) if outcome.scrub_timeline else None
        ),
        "recovery_stats": asdict(outcome.recovery_stats),
        "wa": asdict(outcome.wa),
        "scrub_stats": (
            asdict(outcome.scrub_stats) if outcome.scrub_stats else None
        ),
        "injected_osds": sorted(outcome.injected_osds),
        "finished_at": outcome.finished_at,
        "workload_bytes": outcome.workload_bytes,
        "records": [
            [r.record.time, r.record.node, r.record.subsystem, r.record.message,
             [list(f) for f in r.record.fields], r.keyword_class]
            for r in outcome.collector.records
        ],
        "iostat": [asdict(sample) for sample in outcome.iostat.samples],
    }


@pytest.fixture(scope="module")
def outcomes():
    workload = Workload(num_objects=24, object_size=4 * MB)
    return {
        name: run_experiment(profile, workload, faults, seed=3)
        for name, (profile, faults, _branch) in SCENARIOS.items()
    }


@pytest.fixture(scope="module")
def stretch_hold():
    profile = ExperimentProfile(
        name="clay", num_hosts=12, num_regions=3, pg_num=32,
        stripe_unit=1 << 20, **CLAY,
    )
    return run_stretch_experiment(
        profile, Workload(num_objects=24, object_size=4 * MB),
        [FaultSpec(level="node")], seed=7,
    )


def test_paper_cycle_pinned(outcomes, stretch_hold):
    payload = {name: observables(o) for name, o in outcomes.items()}
    payload["stretch_hold"] = stretch_hold.digest()
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
    assert digest == PINNED_PAPER_CYCLE_HASH


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_each_scenario_reaches_its_branch(outcomes, name):
    outcome, branch = outcomes[name], SCENARIOS[name][2]
    assert (outcome.timeline is not None) == (branch == "recovery")
    assert (outcome.scrub_timeline is not None) == (branch == "scrub")
    if branch == "recovery":
        stats = outcome.recovery_stats
        assert stats.pgs_recovered == stats.pgs_queued > 0


def test_stretch_hold_recovers(stretch_hold):
    assert stretch_hold.objects_recovered > 0
    assert stretch_hold.total_recovery_time > 0
