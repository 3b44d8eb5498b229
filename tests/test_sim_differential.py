"""Differential tests: closed-form kernel primitives against the processes
they replaced.

The closed-form service center runs against a process per job, and
``Environment.every`` and ``Environment.every_each`` against one
generator loop per member that sleeps a fixed period between calls.
Both sides run the same random scenario on the same kernel, and every
observable event — each process resume with its value, each job
departure, each interrupt, each timer call and the timeout its body
starts, the clock after each ``run(until=...)`` and after a closing
``run_until_process`` — is recorded as ``(now, label)``.  The traces
must be identical.  All times sit on a half-second grid, so
same-instant ties are common, ``run(until=...)`` checkpoints land on
call instants, and the tie-break order is checked, not just completion
times.

``run_scenario`` takes the kernel, the center and the way periodic work
starts as arguments, so the same scenarios can be replayed against any
other kernel as well.
"""

from __future__ import annotations

from typing import Any, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Interrupt, ServiceCenter
from tests.sim_reference import ProcessServiceCenter, periodic_loop

GRID_TIMES = (0.0, 0.5, 1.0, 1.5, 2.0)
GRID = st.sampled_from(GRID_TIMES)
PERIODS = st.sampled_from((0.5, 1.0, 1.5, 2.0))
CHECKPOINTS = st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.5))
#: Where a scenario with timers stops: they never run out of work.
HORIZON = 6.0


def start_every(env, period, fn, members):
    """One ``every`` for a lone member, one ``every_each`` for a group."""
    if len(members) == 1:
        (arg, delay), = members
        env.every(period, fn, arg, delay)
    else:
        env.every_each(period, fn, members)


def start_loop(env, period, fn, members):
    """One generator loop per member, started in member order."""
    for arg, delay in members:
        env.process(periodic_loop(env, period, fn, arg, delay))


def sleep_then_end(env, at):
    yield env.timeout(at)
    return "closer"


@st.composite
def scenarios(draw):
    """Centers, processes made of ops, timers, interrupts, checkpoints
    and an optional closing process.

    Ops: ``req`` waits for a job, ``sleep`` for a timeout, ``fire``
    submits a job without waiting, ``join`` waits for the last fired job
    (often already departed), ``all``/``any`` wait for a mix of jobs,
    timeouts and the last fired job, and ``every`` starts a timer or a
    group.

    A timer has a period, a first-call delay (``None`` for the default,
    ``0.0`` for at once) and a body that may start a timeout or submit a
    job of its own.  A group (``("group", period, members)``) has 2 to 4
    members, each with a delay in ``[0, period]`` (equal delays and
    ``delay == period`` included) and a body.  Timers and groups started
    outside a process are created just before the process at their
    position, so their start hops interleave with process bootstraps.

    The closing time, when drawn, is when a process started first ends;
    the scenario then finishes with ``run_until_process`` on it, whose
    drain runs the entries due at that instant.
    """
    servers = draw(st.lists(st.sampled_from((1, 2, 4)), min_size=1, max_size=3))
    center = st.integers(0, len(servers) - 1)
    work = st.one_of(
        st.none(),
        st.tuples(st.just("sleep"), GRID),
        st.tuples(st.just("fire"), center, GRID),
    )
    lone = st.tuples(PERIODS, st.one_of(st.none(), GRID), work)
    group = PERIODS.flatmap(
        lambda period: st.tuples(
            st.just("group"),
            st.just(period),
            st.lists(
                st.tuples(
                    st.sampled_from([d for d in GRID_TIMES if d <= period]),
                    work,
                ),
                min_size=2,
                max_size=4,
            ),
        )
    )
    timer = st.one_of(lone, group)
    part = st.one_of(
        st.tuples(st.just("req"), center, GRID),
        st.tuples(st.just("sleep"), GRID),
        st.tuples(st.just("old")),
    )
    op = st.one_of(
        st.tuples(st.just("req"), center, GRID),
        st.tuples(st.just("sleep"), GRID),
        st.tuples(st.just("fire"), center, GRID),
        st.tuples(st.just("join")),
        st.tuples(st.just("all"), st.lists(part, min_size=1, max_size=3)),
        st.tuples(st.just("any"), st.lists(part, min_size=1, max_size=3)),
        st.tuples(st.just("every"), timer),
    )
    procs = draw(st.lists(st.lists(op, max_size=5), min_size=1, max_size=6))
    timers = draw(st.lists(st.tuples(st.integers(0, len(procs)), timer), max_size=3))
    interrupts = draw(
        st.lists(st.tuples(st.integers(0, len(procs) - 1), GRID), max_size=3)
    )
    checkpoints = sorted(draw(st.lists(CHECKPOINTS, max_size=3)))
    closing = draw(st.one_of(st.none(), st.sampled_from((1.0, 2.5, 4.0, 5.0))))
    return servers, procs, timers, interrupts, checkpoints, closing


def run_scenario(
    scenario, environment, interrupt, center_cls, start_periodic=start_every
) -> List[Any]:
    """Run one scenario on the given kernel and center; return its trace."""
    servers, proc_ops, timers, interrupts, checkpoints, closing = scenario
    env = environment()
    if closing is not None:
        closer = env.process(sleep_then_end(env, closing))
    centers = [center_cls(env, servers=n) for n in servers]
    trace: List[Any] = []

    def submit(index, service, label):
        job = centers[index].request(service)
        job.callbacks.append(lambda _job: trace.append((env.now, label + " departs")))
        return job

    def call(arg):
        """A timer body: record the call, then start its own work."""
        label, work = arg
        if env.now > HORIZON:
            raise AssertionError(f"{label} called past the last horizon")
        trace.append((env.now, label))
        if work is None:
            return
        if work[0] == "sleep":
            env.timeout(work[1]).callbacks.append(
                lambda _event: trace.append((env.now, label + " slept"))
            )
        else:
            submit(work[1], work[2], label)

    def every(spec, label):
        if spec[0] == "group":
            _group, period, members = spec
            start_periodic(env, period, call, [
                ((f"{label}.{m}", work), delay)
                for m, (delay, work) in enumerate(members)
            ])
        else:
            period, delay, work = spec
            start_periodic(env, period, call, [((label, work), delay)])

    def body(p, ops):
        fired = []

        def event_for(part, label):
            if part[0] == "req":
                return submit(part[1], part[2], label)
            if part[0] == "sleep":
                return env.timeout(part[1], label)
            return fired[-1] if fired else env.timeout(0.0, label)

        for k, op in enumerate(ops):
            label = f"p{p}.{k}"
            if op[0] == "fire":
                fired.append(submit(op[1], op[2], label))
                continue
            if op[0] == "every":
                every(op[1], label)
                continue
            if op[0] in ("all", "any"):
                parts = [event_for(part, f"{label}.{j}") for j, part in enumerate(op[1])]
                event = (env.all_of if op[0] == "all" else env.any_of)(parts)
            elif op[0] == "join":
                event = fired[-1] if fired else env.timeout(0.0, label)
            else:
                event = event_for(op, label)
            try:
                value = yield event
                trace.append((env.now, label, repr(value)))
            except interrupt as caught:
                trace.append((env.now, label + " interrupted", caught.cause))
        trace.append((env.now, f"p{p} done"))

    procs = []
    for p, ops in enumerate(proc_ops + [None]):
        for n, (position, spec) in enumerate(timers):
            if position == p:
                every(spec, f"t{n}")
        if ops is not None:
            procs.append(env.process(body(p, ops)))

    def interrupter(n, target, at):
        yield env.timeout(at)
        procs[target].interrupt(f"i{n}")
        trace.append((env.now, f"i{n} sent"))

    for n, (target, at) in enumerate(interrupts):
        env.process(interrupter(n, target, at))
    for until in checkpoints:
        now = env.run(until=until)
        trace.append((now, "until", [c.queue_length for c in centers]))
    if closing is not None:
        value = env.run_until_process(closer)
        trace.append((env.now, "closed", value))
    has_timers = timers or any(op[0] == "every" for ops in proc_ops for op in ops)
    trace.append((env.run(until=HORIZON) if has_timers else env.run(), "end"))
    trace.append([(c.busy_time, c.jobs_served, c.queue_length) for c in centers])
    return trace


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_closed_form_center_matches_process_per_job_trace(scenario):
    expected = run_scenario(scenario, Environment, Interrupt, ProcessServiceCenter)
    assert run_scenario(scenario, Environment, Interrupt, ServiceCenter) == expected


def _assert_periodic_matches_loops(scenario):
    expected = run_scenario(
        scenario, Environment, Interrupt, ServiceCenter, start_loop
    )
    assert run_scenario(
        scenario, Environment, Interrupt, ServiceCenter, start_every
    ) == expected


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_every_matches_generator_loop_trace(scenario):
    _assert_periodic_matches_loops(scenario)


@pytest.mark.slow
@settings(max_examples=3000, deadline=None)
@given(scenarios())
def test_every_matches_generator_loop_trace_deep(scenario):
    _assert_periodic_matches_loops(scenario)


def _labels_at(trace, when):
    """Labels recorded at ``when``, before the final clock and center stats."""
    return [entry[1] for entry in trace[:-2] if entry[0] == when]


def test_free_server_departure_ties_after_a_timeout_set_in_the_same_instant():
    """p0's job and p1's timeout both end at t=1.

    The job's departure is scheduled two urgent hops after the request,
    which is after p1 (bootstrapped second) set its timeout, so the
    timeout wins the tie.
    """
    procs = [[("req", 0, 1.0)], [("sleep", 1.0)]]
    scenario = ([1], procs, [], [], [], None)
    trace = run_scenario(scenario, Environment, Interrupt, ServiceCenter)
    assert trace == run_scenario(scenario, Environment, Interrupt, ProcessServiceCenter)
    assert _labels_at(trace, 1.0) == ["p1.0", "p1 done", "p0.0 departs", "p0.0", "p0 done"]


def test_queued_job_starts_before_the_departing_jobs_waiters_run():
    """p1's queued job and p0's follow-up timeout both end at t=2.

    p1's job starts inside p0's departure at t=1, before p0 resumes and
    sets its timeout, so p1's departure wins the tie.
    """
    procs = [[("req", 0, 1.0), ("sleep", 1.0)], [("req", 0, 1.0)]]
    scenario = ([1], procs, [], [], [], None)
    trace = run_scenario(scenario, Environment, Interrupt, ServiceCenter)
    assert trace == run_scenario(scenario, Environment, Interrupt, ProcessServiceCenter)
    assert _labels_at(trace, 2.0) == ["p1.0 departs", "p1.0", "p1 done", "p0.1", "p0 done"]


def test_timer_first_call_ties_after_a_timeout_set_by_an_earlier_bootstrap():
    """p0 is created before timer t0, and both wake at t=1.

    t0's first entry is scheduled in its start hop, which runs after
    p0's bootstrap set its timeout, so p0 wins the tie, as it does
    against a generator loop started as a process.
    """
    scenario = ([1], [[("sleep", 1.0)]], [(1, (1.0, None, None))], [], [], None)
    trace = run_scenario(scenario, Environment, Interrupt, ServiceCenter)
    assert trace == run_scenario(
        scenario, Environment, Interrupt, ServiceCenter, start_loop
    )
    assert _labels_at(trace, 1.0) == ["p0.0", "p0 done", "t0"]


def test_timer_reschedules_after_its_call_returns():
    """t0 calls at once, and its body starts a timeout of one period.

    The next call is scheduled after the body returns, so the body's
    timeout wins the tie at every later call.
    """
    scenario = ([1], [[]], [(0, (1.0, 0.0, ("sleep", 1.0)))], [], [], None)
    trace = run_scenario(scenario, Environment, Interrupt, ServiceCenter)
    assert trace == run_scenario(
        scenario, Environment, Interrupt, ServiceCenter, start_loop
    )
    assert _labels_at(trace, 0.0) == ["t0", "p0 done"]
    assert _labels_at(trace, 1.0) == ["t0 slept", "t0"]


class _Boom(Exception):
    pass


def _raising_group_trace(start_periodic):
    """Members a..d of period 1; b raises at its first call, c at its second.

    A sleeper process wakes on the same instants, so ties are checked
    too.  Each raise surfaces from ``run``, which is then called again.
    """
    env = Environment()
    trace = []
    counts = {}

    def call(label):
        if env.now > 4.0:
            raise AssertionError(f"{label} called past the last horizon")
        counts[label] = counts.get(label, 0) + 1
        trace.append((env.now, label))
        if (label, counts[label]) in (("b", 1), ("c", 2)):
            raise _Boom(label)

    def sleeper():
        for _ in range(6):
            yield env.timeout(0.5)
            trace.append((env.now, "slept"))

    env.process(sleeper())
    start_periodic(env, 1.0, call, [("a", 0.0), ("b", 0.0), ("c", 0.5), ("d", 1.0)])
    while True:
        try:
            trace.append((env.run(until=4.0), "end"))
            return trace
        except _Boom as raised:
            trace.append((env.now, "raised", str(raised)))


def test_a_raising_call_ends_only_its_own_member():
    trace = _raising_group_trace(start_every)
    assert trace == _raising_group_trace(start_loop)
    labels = [entry[1] for entry in trace]
    assert labels.count("b") == 1 and labels.count("c") == 2
    assert labels.count("a") == 5 and labels.count("d") == 4
