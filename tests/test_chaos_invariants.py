"""Property tests for the invariant checkers themselves.

The chaos harness is only as good as its oracles, so each checker is
tested both ways: it must flag a trace that violates its invariant
(planted by direct state tampering, bypassing the injector's guards) and
must stay silent on a clean trace.  Hypothesis drives the tampering so
the checkers are exercised across arbitrary perturbations, not one
hand-picked example.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.invariants import (
    InvariantViolation,
    check_converged,
    check_durability,
    check_log_monotonicity,
    check_wa_conservation,
)
from repro.cluster.logs import LogRecord
from repro.core.controller import Controller
from repro.core.profile import ExperimentProfile
from repro.core.timeline import first_nonmonotone
from repro.workload.generator import Workload

pytestmark = pytest.mark.chaos


def build_cluster():
    """A small populated cluster with heartbeats established."""
    profile = ExperimentProfile(
        name="inv",
        ec_plugin="jerasure",
        ec_params={"k": 3, "m": 2},
        pg_num=4,
        stripe_unit=256 * 1024,
        num_hosts=8,
        osds_per_host=1,
    )
    controller = Controller(profile, seed=11)
    controller.coordinator.ingest_workload(
        Workload(num_objects=6, object_size=512 * 1024)
    )
    controller.env.run(until=50.0)
    return controller.cluster


CLUSTER = build_cluster()
TOLERANCE = CLUSTER.pool.code.fault_tolerance()


# -- log monotonicity ----------------------------------------------------------


def _records(times):
    return [LogRecord(time=t, node="n", subsystem="osd", message="m") for t in times]


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=0, max_size=20))
@settings(max_examples=100, deadline=None)
def test_first_nonmonotone_matches_sortedness(times):
    index = first_nonmonotone(_records(times))
    if times == sorted(times):
        assert index is None
    else:
        assert index is not None
        assert times[index] < times[index - 1]
        # ...and everything before the reported index is monotone.
        assert times[: index] == sorted(times[: index])


@given(
    st.integers(min_value=1, max_value=1000),
    st.floats(min_value=0.001, max_value=100.0),
)
@settings(max_examples=25, deadline=None)
def test_log_monotonicity_flags_planted_time_reversal(at_time, backstep):
    log = CLUSTER.mon_log
    baseline = check_log_monotonicity(CLUSTER)
    assert baseline == []
    snapshot = list(log.records)
    try:
        log.records.append(
            LogRecord(time=float(at_time), node=log.node, subsystem="mon",
                      message="forward")
        )
        log.records.append(
            LogRecord(time=float(at_time) - backstep, node=log.node,
                      subsystem="mon", message="backwards")
        )
        violations = check_log_monotonicity(CLUSTER)
        assert len(violations) == 1
        assert violations[0].invariant == "timeline-monotone"
        assert log.node in violations[0].detail
    finally:
        log.records[:] = snapshot


# -- WA byte conservation ------------------------------------------------------


def test_wa_conservation_holds_on_clean_cluster():
    assert check_wa_conservation(CLUSTER) == []
    assert CLUSTER.ledger.device_bytes == CLUSTER.used_bytes_total()


@given(st.integers(min_value=-(2**40), max_value=2**40).filter(lambda d: d != 0))
@settings(max_examples=50, deadline=None)
def test_wa_conservation_flags_any_nonzero_drift(delta):
    ledger = CLUSTER.ledger
    original = ledger.repair_bytes
    try:
        ledger.repair_bytes += delta
        violations = check_wa_conservation(CLUSTER)
        assert len(violations) == 1
        assert violations[0].invariant == "wa-conservation"
        assert f"{-delta:+d}" in violations[0].detail
    finally:
        ledger.repair_bytes = original
    assert check_wa_conservation(CLUSTER) == []


# -- durability ----------------------------------------------------------------


def _set_hosts_down(host_ids, down):
    for host_id in host_ids:
        for osd_id in CLUSTER.topology.hosts[host_id].osd_ids:
            CLUSTER.osds[osd_id].host_running = not down


def _hosts_of_acting(pg, count):
    return [CLUSTER.topology.osds[osd_id].host_id for osd_id in pg.acting[:count]]


@given(st.integers(min_value=0, max_value=TOLERANCE))
@settings(max_examples=10, deadline=None)
def test_durability_tolerates_up_to_m_failures(count):
    pg = next(pg for pg in CLUSTER.pool.pgs.values() if pg.objects)
    hosts = _hosts_of_acting(pg, count)
    try:
        _set_hosts_down(hosts, down=True)
        assert check_durability(CLUSTER) == []
    finally:
        _set_hosts_down(hosts, down=False)


@given(st.integers(min_value=TOLERANCE + 1, max_value=TOLERANCE + 3))
@settings(max_examples=10, deadline=None)
def test_durability_flags_loss_beyond_tolerance(count):
    pg = next(pg for pg in CLUSTER.pool.pgs.values() if pg.objects)
    hosts = _hosts_of_acting(pg, count)
    try:
        _set_hosts_down(hosts, down=True)
        violations = check_durability(CLUSTER)
        assert violations, "losing more than m shards must be flagged"
        assert all(v.invariant == "durability" for v in violations)
        assert any(pg.pgid in v.detail for v in violations)
    finally:
        _set_hosts_down(hosts, down=False)
    assert check_durability(CLUSTER) == []


# -- convergence ---------------------------------------------------------------


def test_converged_passes_on_healthy_cluster():
    assert check_converged(CLUSTER) == []


def test_converged_flags_down_osd_and_stale_out():
    osd = CLUSTER.osds[0]
    try:
        osd.host_running = False
        names = {v.invariant for v in check_converged(CLUSTER)}
        assert names == {"health-convergence"}
    finally:
        osd.host_running = True
    CLUSTER.monitor.out_osds.add(0)
    try:
        violations = check_converged(CLUSTER)
        assert violations, "stale out state must block convergence"
    finally:
        CLUSTER.monitor.out_osds.discard(0)
    assert check_converged(CLUSTER) == []


def test_converged_flags_an_osd_the_monitor_still_marks_down():
    # A restored daemon is up, but the monitor marks it down until its
    # next heartbeat arrives: the campaign has not converged yet.
    CLUSTER.monitor.down_since[0] = CLUSTER.env.now
    try:
        violations = check_converged(CLUSTER)
        assert any("marked down" in v.detail for v in violations)
        assert {v.invariant for v in violations} == {"health-convergence"}
    finally:
        del CLUSTER.monitor.down_since[0]
    assert check_converged(CLUSTER) == []


# -- the violation record ------------------------------------------------------


def test_violation_round_trips_to_dict():
    violation = InvariantViolation("durability", "detail", 12.5, step=3)
    assert InvariantViolation(**violation.to_dict()) == violation
