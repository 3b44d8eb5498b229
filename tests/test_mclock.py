"""mClock QoS scheduler: tag algebra, reservations, limits, fairness.

Property tests (hypothesis) pin the scheduler's contract: tags are
monotone per class, a nonzero reservation is never starved under
saturating competition, the server is work-conserving while backlogged,
limits cap a class's share, and dispatch is byte-deterministic.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Environment
from repro.tenancy.mclock import MClockScheduler, QosClass

costs = st.floats(min_value=0.01, max_value=2.0,
                  allow_nan=False, allow_infinity=False)


def saturate(scheduler, name, total_work, cost):
    """Queue enough ``cost``-second jobs to cover ``total_work`` seconds."""
    for _ in range(math.ceil(total_work / cost)):
        scheduler.submit(name, cost)


# -- QosClass validation --------------------------------------------------------


def test_qos_class_validation():
    with pytest.raises(ValueError, match="non-empty"):
        QosClass(name="")
    with pytest.raises(ValueError, match="reservation"):
        QosClass(name="a", reservation=-0.1)
    with pytest.raises(ValueError, match="limit"):
        QosClass(name="a", limit=-1.0)
    with pytest.raises(ValueError, match="limit must be >= reservation"):
        QosClass(name="a", reservation=0.5, limit=0.2)
    with pytest.raises(ValueError, match="weight"):
        QosClass(name="a", weight=0.0)
    # limit=0 means unlimited, so it never conflicts with a reservation.
    QosClass(name="a", reservation=0.5, limit=0.0)


def test_scheduler_rejects_bad_inputs():
    env = Environment()
    with pytest.raises(ValueError, match="client_rate"):
        MClockScheduler(env, client_rate=0.0)
    with pytest.raises(ValueError, match="duplicate"):
        MClockScheduler(env, classes=(QosClass("a"), QosClass("a")))
    scheduler = MClockScheduler(env)
    with pytest.raises(ValueError, match="negative"):
        scheduler.submit("a", -1.0)


def test_unknown_class_is_admitted_with_defaults():
    env = Environment()
    scheduler = MClockScheduler(env, classes=(QosClass("known"),))
    done = scheduler.submit("surprise", 0.5)
    env.run(until=2.0)
    assert done.triggered
    assert scheduler.classes["surprise"].served == 1


def test_client_cost_converts_bytes_to_service_time():
    env = Environment()
    scheduler = MClockScheduler(env, client_rate=100e6)
    assert scheduler.client_cost(50_000_000) == pytest.approx(0.5)


# -- tag monotonicity -----------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    job_costs=st.lists(costs, min_size=2, max_size=20),
    reservation=st.floats(min_value=0.05, max_value=1.0),
    limit=st.sampled_from([0.0, 1.0, 2.0]),
)
def test_tags_are_monotone_per_class(job_costs, reservation, limit):
    env = Environment()
    scheduler = MClockScheduler(
        env,
        classes=(
            QosClass("a", reservation=reservation, weight=1.5, limit=limit),
        ),
    )
    for cost in job_costs:
        scheduler.submit("a", cost)
    queued = list(scheduler._classes["a"].queue)
    assert len(queued) == len(job_costs)
    for prev, job in zip(queued, queued[1:]):
        assert job.r_tag >= prev.r_tag
        assert job.p_tag >= prev.p_tag
        assert job.l_tag >= prev.l_tag
        assert job.seqno > prev.seqno


# -- reservations: no starvation ------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    reservation=st.sampled_from([0.1, 0.25, 0.5]),
    cost=st.sampled_from([0.25, 0.5, 1.0]),
    hog_weight=st.sampled_from([1.0, 10.0, 100.0]),
)
def test_nonzero_reservation_is_never_starved(reservation, cost, hog_weight):
    """A backlogged class with reservation r gets >= r of the server.

    The competing class holds an arbitrarily large weight but no
    reservation, so only the constraint phase protects the reserved
    class.
    """
    horizon = 40.0
    env = Environment()
    scheduler = MClockScheduler(
        env,
        classes=(
            QosClass("reserved", reservation=reservation, weight=1.0),
            QosClass("hog", weight=hog_weight),
        ),
    )
    saturate(scheduler, "reserved", horizon * reservation + 4 * cost, cost)
    saturate(scheduler, "hog", 2 * horizon, cost)
    env.run(until=horizon)
    busy = scheduler.classes["reserved"].busy_time
    # Slack of two job slots: one in-flight job plus startup alignment.
    assert busy >= reservation * horizon - 2 * cost


# -- work conservation ----------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    cost=st.sampled_from([0.2, 0.5, 1.0]),
    reservation=st.sampled_from([0.0, 0.3]),
)
def test_work_conservation_under_backlog(cost, reservation):
    """With unlimited backlogged classes the server never idles."""
    horizon = 30.0
    env = Environment()
    scheduler = MClockScheduler(
        env,
        classes=(
            QosClass("a", reservation=reservation, weight=2.0),
            QosClass("b", weight=1.0),
        ),
    )
    saturate(scheduler, "a", 2 * horizon, cost)
    saturate(scheduler, "b", 2 * horizon, cost)
    env.run(until=horizon)
    total_busy = sum(s.busy_time for s in scheduler.classes.values())
    assert total_busy <= horizon + 1e-9
    assert total_busy >= horizon - cost - 1e-9


# -- limits ---------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    limit=st.sampled_from([0.1, 0.25, 0.5]),
    cost=st.sampled_from([0.25, 0.5]),
)
def test_limit_caps_a_backlogged_class(limit, cost):
    """Even alone on the server, a limited class gets at most its limit."""
    horizon = 40.0
    env = Environment()
    scheduler = MClockScheduler(
        env, classes=(QosClass("capped", weight=5.0, limit=limit),)
    )
    saturate(scheduler, "capped", 2 * horizon, cost)
    env.run(until=horizon)
    busy = scheduler.classes["capped"].busy_time
    assert busy <= limit * horizon + cost + 1e-9


# -- weight phase ---------------------------------------------------------------


def test_spare_capacity_splits_by_weight():
    """Two unreserved backlogged classes share roughly by weight."""
    horizon = 60.0
    cost = 0.5
    env = Environment()
    scheduler = MClockScheduler(
        env,
        classes=(
            QosClass("heavy", weight=3.0),
            QosClass("light", weight=1.0),
        ),
    )
    saturate(scheduler, "heavy", 2 * horizon, cost)
    saturate(scheduler, "light", 2 * horizon, cost)
    env.run(until=horizon)
    heavy = scheduler.classes["heavy"].busy_time
    light = scheduler.classes["light"].busy_time
    assert heavy / light == pytest.approx(3.0, rel=0.15)


def test_weight_phase_service_credits_reservation_tags():
    """Weight-phase service must not be double-charged against R tags.

    One class holding both a reservation and the dominant weight: it
    wins weight-phase dispatch when its R tag is not yet due, and the
    mClock credit keeps those early services from pushing its later R
    deadlines out.  Net effect: it must end up with MORE than its bare
    reservation share.
    """
    horizon = 40.0
    cost = 0.5
    env = Environment()
    scheduler = MClockScheduler(
        env,
        classes=(
            QosClass("vip", reservation=0.2, weight=9.0),
            QosClass("other", weight=1.0),
        ),
    )
    saturate(scheduler, "vip", 2 * horizon, cost)
    saturate(scheduler, "other", 2 * horizon, cost)
    env.run(until=horizon)
    vip = scheduler.classes["vip"].busy_time
    assert vip > 0.2 * horizon + 2 * cost


# -- determinism ----------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(job_costs=st.lists(costs, min_size=1, max_size=15))
def test_dispatch_is_deterministic(job_costs):
    def run_once():
        env = Environment()
        scheduler = MClockScheduler(
            env,
            classes=(
                QosClass("a", reservation=0.3, weight=2.0),
                QosClass("b", weight=1.0, limit=0.6),
            ),
        )
        for index, cost in enumerate(job_costs):
            scheduler.submit("a" if index % 2 == 0 else "b", cost)
        env.run(until=60.0)
        return {
            name: (s.enqueued, s.served, s.busy_time, s.total_wait, s.max_wait)
            for name, s in scheduler.classes.items()
        }

    assert run_once() == run_once()


def test_all_submitted_work_eventually_drains():
    env = Environment()
    scheduler = MClockScheduler(
        env,
        classes=(
            QosClass("a", reservation=0.4, weight=1.0),
            QosClass("b", weight=2.0, limit=0.5),
        ),
    )
    events = [scheduler.submit("a", 0.3) for _ in range(20)]
    events += [scheduler.submit("b", 0.3) for _ in range(20)]
    env.run(until=200.0)
    assert all(event.triggered for event in events)
    assert scheduler.pending == 0
    for stats in scheduler.classes.values():
        assert stats.served == stats.enqueued
