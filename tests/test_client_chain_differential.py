"""Differential tests: the client path's chains and the closed-form mClock
server against the processes they replaced.

Client reads and writes, their shard fetches and pushes, and a load
generator's arrival loop and ops run as :class:`~repro.sim.engine.Chain`
callbacks, each step placed where the process doing the same work
resumed.  :class:`~repro.tenancy.mclock.MClockScheduler` serves its
queue with no dispatcher process.  The generator versions are kept in
``tests/sim_reference.py``.

* Four small experiments run through the chains and through the
  references patched in: hedged reads with an op timeout and retries
  under ``net_degrade`` plus ``flap``, a full-write and RMW stream with
  drops and rollbacks, a write stream whose first write waits on the
  monitor's full-ratio gate, and a QoS fleet with a limited tenant
  racing recovery.  The outcome digest, ``env.steps`` and every client's
  ``ClientOpStats`` must match.  A recorder is attached to every mClock
  grant, service-center job (disk, CPU and NIC) and transfer as it is
  made, before anything waits on it, as perfbench's tracer does; its
  ``(label, now)`` trace must match too, so a step that ran ahead of an
  earlier waiter would show.
* Random submit schedules run once through the closed-form server and
  once through the process dispatcher.  Every time sits on a
  quarter-second grid, so arrivals at a wake timer's instant are the
  rule.  The completion trace, ``env.steps`` and the class stats must
  match.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import CephConfig
from repro.cluster.client import ClientLoadGenerator, RadosClient
from repro.cluster.network import Fabric
from repro.core.controller import Controller
from repro.core.fault_injector import FaultSpec
from repro.core.profile import ExperimentProfile
from repro.sim import Environment, ServiceCenter
from repro.tenancy import TenantFleetSpec, TenantSpec
from repro.tenancy import fleet as fleet_module
from repro.tenancy.mclock import MClockScheduler, QosClass
from repro.workload.generator import Workload
from tests.sim_reference import (
    ProcessMClockScheduler,
    process_read_object,
    process_run_for,
    process_write_object,
    process_write_stripe_unit,
)

MB = 1024 * 1024


# -- end to end -------------------------------------------------------------------


def _profile(name: str, ceph: CephConfig, **extra) -> ExperimentProfile:
    fields = dict(
        name=name, ec_plugin="jerasure", ec_params={"k": 4, "m": 2}, pg_num=8,
        stripe_unit=1 * MB, num_hosts=8, osds_per_host=2, ceph=ceph,
    )
    fields.update(extra)
    return ExperimentProfile(**fields)


def _hedged():
    ceph = CephConfig(
        mon_osd_down_out_interval=30.0, mon_osd_markdown_count=3,
        client_op_timeout=0.25, client_hedge_delay=0.02, client_retry_max=2,
    )
    faults = [FaultSpec(level="net_degrade", loss=0.3, latency=0.3),
              FaultSpec(level="flap", flap_interval=15.0)]
    fleet = TenantFleetSpec.legacy(interval=1.0, write_fraction=0.3)
    return (_profile("hedged", ceph), Workload(num_objects=16, object_size=1 * MB),
            faults, fleet, {"fault_duration": 200.0})


def _writes():
    """With no retry budget a full write that loses more pushes than the
    code tolerates aborts with shards landed, which marks them
    divergent; an RMW aborts when a source fetch drops."""
    ceph = CephConfig(
        mon_osd_down_out_interval=30.0, mon_osd_markdown_count=3,
        client_write_retry_max=0,
    )
    faults = [FaultSpec(level="net_degrade", loss=0.7, latency=0.2),
              FaultSpec(level="flap", flap_interval=15.0)]
    fleet = TenantFleetSpec.legacy(interval=1.0, write_fraction=1.0, rmw_fraction=0.5)
    return (_profile("writes", ceph), Workload(num_objects=16, object_size=1 * MB),
            faults, fleet, {"fault_duration": 200.0, "settle_time": 300.0})


def _full_gate():
    """The capacity ratios sit between the fullest OSD's usage and the
    next one's, so the monitor pauses writes from its first tick.  The
    node crash takes that OSD down; the first write, issued at the
    crash, waits on the gate until the next tick lifts the pause."""
    workload = Workload(num_objects=16, object_size=1 * MB)
    probe = Controller(_profile("gate", CephConfig()), seed=1)
    probe.coordinator.ingest_workload(workload)
    usage = sorted(
        (osd.disk.used_bytes / osd.disk.spec.capacity_bytes, osd_id)
        for osd_id, osd in probe.cluster.osds.items()
    )
    (second, _), (top, fullest) = usage[-2:]
    ratio = (top + second) / 2
    ceph = CephConfig(
        mon_osd_down_out_interval=10_000.0, mon_osd_nearfull_ratio=ratio,
        mon_osd_backfillfull_ratio=ratio, mon_osd_full_ratio=ratio,
    )
    host = probe.cluster.topology.osds[fullest].host_id
    fleet = TenantFleetSpec.legacy(interval=1.0, write_fraction=1.0, rmw_fraction=0.5)
    return (_profile("gate", ceph), workload, [FaultSpec(level="node", targets=[host])],
            fleet, {"fault_duration": 60.0, "settle_time": 300.0})


def _qos():
    ceph = CephConfig(mon_osd_down_out_interval=30.0)
    fleet = TenantFleetSpec(
        tenants=(
            TenantSpec(name="capped", interval=0.05, arrival="poisson", limit=0.2),
            TenantSpec(name="steady", interval=0.5, reservation=0.1, weight=2.0,
                       write_fraction=0.5),
        ),
        qos_enabled=True,
        client_rate=60e6,
    )
    return (_profile("qos", ceph, osds_per_host=1, device_class="hdd"),
            Workload(num_objects=16, object_size=4 * MB),
            [FaultSpec(level="node")], fleet, {"fault_duration": 60.0})


RUNS = {"hedged": _hedged, "writes": _writes, "full_gate": _full_gate, "qos": _qos}


def _record(trace: List[Any], env_of, counter):
    """Wrap a factory so every event it makes is recorded at creation
    and completion, the recorder attached before any waiter."""

    def make(original):
        def wrapper(owner, *args, **kwargs):
            event = original(owner, *args, **kwargs)
            env = env_of(owner)
            label = next(counter)
            trace.append((label, env.now))
            event.callbacks.append(
                lambda done: trace.append((label, env.now, done.ok))
            )
            return event
        return wrapper
    return make


def _run(name, monkeypatch, references: bool):
    profile, workload, faults, fleet, timing = RUNS[name]()
    scheduler = MClockScheduler
    if references:
        monkeypatch.setattr(RadosClient, "read_object", process_read_object)
        monkeypatch.setattr(RadosClient, "write_object", process_write_object)
        monkeypatch.setattr(RadosClient, "write_stripe_unit", process_write_stripe_unit)
        monkeypatch.setattr(ClientLoadGenerator, "run_for", process_run_for)
        monkeypatch.setattr(fleet_module, "MClockScheduler", ProcessMClockScheduler)
        scheduler = ProcessMClockScheduler
    trace: List[Any] = []
    counter = itertools.count()
    for owner, attr, env_of in (
        (scheduler, "submit", lambda s: s.env),
        (ServiceCenter, "request", lambda c: c.env),
        (Fabric, "transfer", lambda f: f.env),
    ):
        monkeypatch.setattr(
            owner, attr, _record(trace, env_of, counter)(getattr(owner, attr))
        )
    controller = Controller(profile, seed=1)
    outcome = controller.coordinator.run(workload, faults, fleet, **timing)
    stats = [
        dataclasses.asdict(runtime.client.stats)
        for runtime in outcome.fleet.tenants.values()
    ]
    monkeypatch.undo()
    return outcome.digest_json(), controller.env.steps, stats, trace


def _first_difference(ours, theirs) -> str:
    for index, (a, b) in enumerate(zip(ours, theirs)):
        if a != b:
            return f"entry {index}: chain {a!r}, process {b!r}"
    return f"lengths {len(ours)} and {len(theirs)}"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_experiment_through_chains_matches_references(name, monkeypatch):
    wakes = []
    original_wake = MClockScheduler._wake
    monkeypatch.setattr(
        MClockScheduler, "_wake",
        lambda self, gate: (wakes.append(gate is self._gate), original_wake(self, gate)),
    )
    digest, steps, stats, trace = _run(name, monkeypatch, references=False)
    ops = {key: sum(s[key] for s in stats) for key in stats[0]}
    if name == "hedged":
        for key in ("hedges_issued", "hedges_won", "timeouts", "retries",
                    "drops_seen", "redirects", "reads_ok", "writes_ok",
                    "write_retries"):
            assert ops[key] > 0, key
    elif name == "writes":
        for key in ("writes_ok", "writes_failed", "drops_seen"):
            assert ops[key] > 0, key
    elif name == "full_gate":
        assert ops["writes_paused"] > 0 and ops["writes_ok"] > 0
    else:
        assert ops["reads_ok"] > 0 and ops["writes_ok"] > 0
        # Limit-gated waits both woke on their timer and were beaten to
        # it by an arrival, leaving a stale wake entry.
        assert True in wakes and False in wakes
    expected = _run(name, monkeypatch, references=True)
    assert (digest, steps, stats) == expected[:3]
    assert trace == expected[3], _first_difference(trace, expected[3])


# -- mClock: closed form against the dispatcher process -------------------------------

GRID = st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0))
COST = st.sampled_from((0.0, 0.25, 0.5, 1.0))
CLASSES = ("a", "b", "c")


@st.composite
def qos_scenarios(draw):
    """Classes with reservations, limits and weights; submits made before
    the run, from timeout callbacks and from processes; and checkpoints.

    A submit is ``(how, at, class, cost)``; the class may be one the
    scheduler was not built with.
    """
    classes = []
    for name in CLASSES[: draw(st.integers(1, len(CLASSES)))]:
        reservation = draw(st.sampled_from((0.0, 0.0, 0.25, 0.5)))
        limit = draw(st.sampled_from((0.0, 0.25, 0.5, 1.0)))
        classes.append(QosClass(
            name, reservation=reservation, limit=max(limit, reservation) if limit else 0.0,
            weight=draw(st.sampled_from((0.5, 1.0, 2.0))),
        ))
    submit = st.tuples(
        st.sampled_from(("now", "callback", "process")), GRID,
        st.sampled_from(CLASSES + ("new",)), COST,
    )
    submits = draw(st.lists(submit, min_size=1, max_size=20))
    checkpoints = sorted(draw(st.lists(GRID, max_size=2)))
    return tuple(classes), submits, checkpoints


def run_qos_scenario(scenario, scheduler_type) -> List[Any]:
    classes, submits, checkpoints = scenario
    env = Environment()
    scheduler = scheduler_type(env, classes=classes)
    trace: List[Any] = []

    def submit(label, name, cost):
        done = scheduler.submit(name, cost)
        trace.append((env.now, label))
        done.callbacks.append(lambda _e: trace.append((env.now, label, "done")))
        return done

    def client(label, at, name, cost):
        yield env.timeout(at)
        yield submit(label, name, cost)
        trace.append((env.now, label, "resumed"))

    for n, (how, at, name, cost) in enumerate(submits):
        label = f"s{n}"
        if how == "now":
            submit(label, name, cost)
        elif how == "callback":
            env.timeout(at).callbacks.append(
                lambda _t, label=label, name=name, cost=cost: submit(label, name, cost)
            )
        else:
            env.process(client(label, at, name, cost))
    for until in checkpoints:
        trace.append((env.run(until=until), "until", scheduler.pending))
    trace.append((env.run(), "end", env.steps))
    trace.append([
        (name, dataclasses.astuple(stats))
        for name, stats in scheduler.classes.items()
    ])
    return trace


@settings(max_examples=300, deadline=None)
@given(qos_scenarios())
def test_closed_form_mclock_matches_the_dispatcher_process(scenario):
    expected = run_qos_scenario(scenario, ProcessMClockScheduler)
    assert run_qos_scenario(scenario, MClockScheduler) == expected


def test_qos_scenarios_reach_every_dispatch_path(monkeypatch):
    """The fixed scenario below serves zero-cost jobs and an unknown
    class, and its limited class waits gated: once woken by its timer,
    once by an arrival at the timer's own instant, which leaves a stale
    wake entry."""
    scenario = (
        (QosClass("a", limit=0.5), QosClass("b", reservation=0.25, weight=2.0)),
        [("now", 0.0, "a", 0.5), ("now", 0.0, "a", 0.5), ("now", 0.0, "new", 0.0),
         ("callback", 1.0, "a", 0.25), ("process", 2.0, "b", 0.0),
         ("callback", 2.0, "a", 0.5)],
        [0.5],
    )
    wakes = []
    original = MClockScheduler._wake
    monkeypatch.setattr(
        MClockScheduler, "_wake",
        lambda self, gate: (wakes.append(gate is self._gate), original(self, gate)),
    )
    trace = run_qos_scenario(scenario, MClockScheduler)
    assert True in wakes and False in wakes
    assert trace == run_qos_scenario(scenario, ProcessMClockScheduler)
