"""Differential tests: the transfer and pull chains against the processes
they replaced.

A fabric transfer (LAN and WAN) and a recovery helper pull run as
:class:`~repro.sim.engine.Chain` callbacks, each step placed where a
process per transfer or per pull resumed.  The generator versions are
kept in ``tests/sim_reference.py``.

* Random fabric scenarios run once through ``Fabric.transfer`` and once
  through the process-per-transfer reference, on the same kernel.  Every
  time sits on a half-second grid, so same-instant ties are the rule.
  Transfers start from processes, from timeout callbacks and before the
  run; NICs are healthy, lossy (with a seeded drop lottery), slowed or
  partitioned, degradations and severed uplinks change mid-run, and
  plain jobs contend for the NIC queues.  The ``(now, label,
  value-or-exception-type)`` trace, ``env.steps`` and every NIC, fabric,
  uplink and ledger counter must match.
* Three small experiments — a Clay cell with device faults, a
  ``net_degrade`` + ``flap`` gray run and a 3-region stretch run — run
  through the chains and through both references patched in, and must
  give the same outcome digest and the same ``env.steps``.
"""

from __future__ import annotations

import random
from typing import Any, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import CephConfig
from repro.cluster import recovery
from repro.cluster.network import Fabric, NetDegradation, Nic, NicSpec
from repro.core.controller import Controller
from repro.core.fault_injector import FaultSpec
from repro.core.profile import ExperimentProfile
from repro.geo.wan import WanFabric, WanSpec
from repro.sim import Environment
from repro.tenancy import TenantFleetSpec
from repro.workload.generator import Workload
from tests.sim_reference import process_pull, process_transfer

GRID = st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.0))
#: Wire times are ``0.5 + nbytes / 2`` seconds, doubled by a penalty.
NBYTES = st.one_of(st.sampled_from((0, 1, 2, 3)), st.just(-1))
NICS = 4
DEGRADATIONS = {
    "lossy": NetDegradation(loss=0.5, latency=0.5),
    "slow": NetDegradation(latency=0.5, bandwidth_penalty=2.0),
    "partition": NetDegradation(partition=True),
}
DEGRADE = st.sampled_from((None, *sorted(DEGRADATIONS)))


@st.composite
def fabric_scenarios(draw):
    """A fabric, its NICs' states, launches, plain jobs, mid-run
    changes and ``run(until=...)`` checkpoints.

    A launch is ``(how, at, legs)``: ``process`` sleeps until ``at`` and
    makes its legs one after another, ``callback`` starts one leg from a
    timeout's callback and ``now`` starts one before the run.  A leg is
    ``(src, dst, nbytes)``; ``src == dst`` is loopback.
    """
    regions = draw(st.sampled_from((0, 2, 3)))
    region_of = [
        draw(st.integers(0, regions - 1)) if regions else 0 for _ in range(NICS)
    ]
    degraded = draw(st.lists(DEGRADE, min_size=NICS, max_size=NICS))
    severed = draw(st.sets(st.integers(0, max(regions - 1, 0)))) if regions else set()
    nic = st.integers(0, NICS - 1)
    leg = st.tuples(nic, nic, NBYTES)
    launch = st.one_of(
        st.tuples(st.just("process"), GRID, st.lists(leg, min_size=1, max_size=3)),
        st.tuples(st.just("callback"), GRID, st.lists(leg, min_size=1, max_size=1)),
        st.tuples(st.just("now"), st.just(0.0), st.lists(leg, min_size=1, max_size=1)),
    )
    launches = draw(st.lists(launch, min_size=1, max_size=8))
    jobs = draw(st.lists(
        st.tuples(GRID, nic, st.sampled_from(("egress", "ingress")), GRID),
        max_size=3,
    ))
    change = st.tuples(GRID, st.just("nic"), nic, DEGRADE)
    if regions:
        change = st.one_of(
            change, st.tuples(GRID, st.just("uplink"), st.integers(0, regions - 1),
                              st.booleans()),
        )
    changes = draw(st.lists(change, max_size=3))
    checkpoints = sorted(draw(st.lists(GRID, max_size=2)))
    seed = draw(st.integers(0, 3))
    return (regions, region_of, degraded, severed, launches, jobs, changes,
            checkpoints, seed)


def run_fabric_scenario(scenario, transfer) -> List[Any]:
    """Run one scenario with ``transfer(fabric, src, dst, nbytes)``."""
    (regions, region_of, degraded, severed, launches, jobs, changes,
     checkpoints, seed) = scenario
    env = Environment()
    rng = random.Random(seed)
    if regions:
        fabric = WanFabric(
            env, WanSpec(egress_bandwidth=2.0, ingress_bandwidth=1.0,
                         latency=0.5), regions, rng=rng,
        )
    else:
        fabric = Fabric(env, rng=rng)
    nics = [
        Nic(env, NicSpec(f"n{i}", bandwidth=2.0, latency=0.5,
                         message_overhead=0.5), name=f"n{i}")
        for i in range(NICS)
    ]
    for i, nic in enumerate(nics):
        if regions:
            fabric.register_nic(nic, region_of[i])
        if degraded[i] is not None:
            nic.degrade(DEGRADATIONS[degraded[i]])
    for region in severed:
        fabric.partition_region(region)
    trace: List[Any] = []

    def outcome(event):
        return repr(event._value) if event._ok else type(event._value).__name__

    def start(label, src, dst, nbytes):
        event = transfer(fabric, nics[src], nics[dst], nbytes)
        event.callbacks.append(
            lambda done: trace.append((env.now, label, outcome(done)))
        )

    def sender(label, at, legs):
        if at > 0:
            yield env.timeout(at)
        for k, (src, dst, nbytes) in enumerate(legs):
            try:
                value = yield transfer(fabric, nics[src], nics[dst], nbytes)
            except Exception as exc:  # noqa: BLE001 - recorded by type
                trace.append((env.now, f"{label}.{k}", type(exc).__name__))
            else:
                trace.append((env.now, f"{label}.{k}", repr(value)))

    def job(label, at, index, side, service):
        yield env.timeout(at)
        yield getattr(nics[index], side).request(service)
        trace.append((env.now, label))

    def apply(change):
        if change[1] == "nic":
            _at, _kind, index, state = change
            if state is None:
                nics[index].restore_network()
            else:
                nics[index].degrade(DEGRADATIONS[state])
        else:
            _at, _kind, region, cut = change
            if cut:
                fabric.partition_region(region)
            else:
                fabric.restore_region(region)

    for n, (how, at, legs) in enumerate(launches):
        label = f"x{n}"
        if how == "process":
            env.process(sender(label, at, legs))
        elif how == "callback":
            env.timeout(at).callbacks.append(
                lambda _t, label=label, leg=legs[0]: start(label, *leg)
            )
        else:
            start(label, *legs[0])
    for n, (at, index, side, service) in enumerate(jobs):
        env.process(job(f"j{n}", at, index, side, service))
    for change in changes:
        env.timeout(change[0]).callbacks.append(lambda _t, c=change: apply(c))
    for until in checkpoints:
        trace.append((env.run(until=until), "until"))
    trace.append((env.run(), "end", env.steps))
    trace.append([
        (nic.sent_bytes, nic.received_bytes, nic.egress.busy_time,
         nic.egress.jobs_served, nic.ingress.busy_time, nic.ingress.jobs_served)
        for nic in nics
    ])
    trace.append((fabric.transfers, fabric.drops, fabric.partition_refusals,
                  fabric.rng.random()))
    if regions:
        trace.append((
            fabric.wan_partition_refusals,
            fabric.cross_region_transfers,
            fabric.cross_region_bytes,
            list(fabric.ledger.egress_bytes_by_region),
            [(u.egress_bytes, u.ingress_bytes, u.egress.busy_time,
              u.egress.jobs_served, u.ingress.busy_time, u.ingress.jobs_served)
             for u in fabric.uplinks],
        ))
    return trace


@settings(max_examples=300, deadline=None)
@given(fabric_scenarios())
def test_transfer_chain_matches_process_per_transfer(scenario):
    expected = run_fabric_scenario(scenario, process_transfer)
    assert run_fabric_scenario(scenario, Fabric.transfer) == expected


def test_scenarios_reach_every_outcome():
    """The fixed scenario below drops, refuses, crosses regions and
    raises ``ValueError``, so the random ones are not all healthy."""
    scenario = (
        2, [0, 0, 1, 1], [None, "lossy", "partition", None], {1},
        [("process", 0.0, [(0, 1, 2), (0, 1, 2), (0, 1, 2), (0, 1, 2)]),
         ("callback", 0.5, [(0, 2, 1)]),
         ("now", 0.0, [(0, 3, 1)]),
         ("now", 0.0, [(0, 0, 3)]),
         ("now", 0.0, [(0, 1, -1)])],
        [], [(1.0, "uplink", 1, False)], [], 0,
    )
    trace = run_fabric_scenario(scenario, Fabric.transfer)
    outcomes = {entry[2] for entry in trace if len(entry) == 3
                and isinstance(entry[2], str)}
    assert {"None", "TransferDroppedError", "NetworkPartitionedError",
            "ValueError"} <= outcomes
    assert trace == run_fabric_scenario(scenario, process_transfer)


# -- end to end ---------------------------------------------------------------------

MB = 1024 * 1024


def _clay_cell():
    profile = ExperimentProfile(
        name="clay-devices", ec_plugin="clay",
        ec_params={"k": 4, "m": 2, "d": 5}, pg_num=16, stripe_unit=64 * 1024,
        num_hosts=8, osds_per_host=2,
    )
    return (profile, Workload(num_objects=16, object_size=1 * MB),
            [FaultSpec(level="device", count=2)], None, {})


def _gray_run():
    profile = ExperimentProfile(
        name="gray", ec_plugin="jerasure", ec_params={"k": 4, "m": 2},
        pg_num=8, stripe_unit=1 * MB, num_hosts=8, osds_per_host=2,
        ceph=CephConfig(mon_osd_down_out_interval=30.0,
                        mon_osd_markdown_count=3),
    )
    faults = [FaultSpec(level="net_degrade", loss=0.5, latency=0.2),
              FaultSpec(level="flap", flap_interval=15.0)]
    return (profile, Workload(num_objects=16, object_size=1 * MB), faults,
            TenantFleetSpec.legacy(), {"fault_duration": 300.0})


def _stretch_run():
    profile = ExperimentProfile(
        name="stretch", ec_plugin="clay", ec_params={"k": 4, "m": 2, "d": 5},
        num_hosts=12, num_regions=3, pg_num=16, stripe_unit=1 * MB,
    )
    return (profile, Workload(num_objects=12, object_size=4 * MB),
            [FaultSpec(level="node")], None, {})


RUNS = {"clay_devices": _clay_cell, "gray": _gray_run, "stretch": _stretch_run}


def _run(name, seed=1):
    profile, workload, faults, fleet, timing = RUNS[name]()
    controller = Controller(profile, seed=seed)
    outcome = controller.coordinator.run(workload, faults, fleet, **timing)
    fabric = controller.cluster.topology.fabric
    counters = [fabric.transfers, fabric.drops, fabric.partition_refusals]
    if isinstance(fabric, WanFabric):
        counters += [fabric.cross_region_bytes,
                     list(fabric.ledger.egress_bytes_by_region)]
    return outcome.digest_json(), controller.env.steps, counters, outcome


@pytest.mark.parametrize("name", sorted(RUNS))
def test_experiment_through_chains_matches_references(name, monkeypatch):
    digest, steps, counters, outcome = _run(name)
    stats = outcome.recovery_stats
    assert stats.chunks_rebuilt > 0
    if name == "gray":
        assert stats.op_retries > 0, "no pull was lost to a drop or a flap"
    if name == "stretch":
        assert stats.cross_region_pulls > 0
    monkeypatch.setattr(Fabric, "transfer", process_transfer)
    monkeypatch.setattr(recovery, "_Pull", process_pull)
    assert _run(name)[:3] == (digest, steps, counters)


@pytest.mark.parametrize("plugin", ["jerasure", "clay"])
def test_pull_from_a_disk_failed_under_its_grant_returns_false(plugin):
    """``Disk.submit`` raises ``DiskFailedError`` inside a chain step;
    the pull succeeds with False instead, as the generator's ``except``
    returned it, and nothing leaves ``Environment.run``.  Jerasure reads
    whole chunks, Clay sub-chunks."""

    def pulls(make_pull):
        profile = ExperimentProfile(
            name=plugin, ec_plugin=plugin, ec_params={"k": 4, "m": 2},
            pg_num=1, stripe_unit=64 * 1024, num_hosts=8, osds_per_host=1,
        )
        env = Environment()
        cluster = profile.build_cluster(env, 0)
        cluster.ingest_object("obj", 1 * MB)
        pg = cluster.pool.pgs[0]
        obj = pg.objects[0]
        plan = cluster.pool.code.repair_plan([0], list(range(1, 6)))
        primary = cluster.osds[pg.acting[1]]
        started = [
            make_pull(cluster.recovery, read, list(pg.acting), primary,
                      obj.layout, False)
            for read in plan.reads
        ]
        env.run(until=0.0)  # the start hops: every grant is queued
        cluster.osds[pg.acting[plan.reads[0].chunk_index]].disk.fail()
        env.run(until=5.0)
        stats = cluster.recovery.stats
        return ([p.value for p in started], env.steps, stats.bytes_read,
                [r.fraction for r in plan.reads])

    values, steps, bytes_read, fractions = pulls(recovery._Pull)
    assert values == [False] + [True] * (len(values) - 1)
    assert (fractions[0] < 1.0) == (plugin == "clay")
    assert (values, steps, bytes_read, fractions) == pulls(process_pull)
