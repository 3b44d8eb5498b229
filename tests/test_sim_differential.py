"""Differential tests: closed-form kernel primitives against the processes
they replaced.

The closed-form service center runs against a process per job, and
``Environment.every`` against a generator loop that sleeps a fixed
period between calls.  Both sides run the same random scenario on the
same kernel, and every observable event — each process resume with its
value, each job departure, each interrupt, each timer call and the
timeout its body starts, the clock after each ``run(until=...)`` — is
recorded as ``(now, label)``.  The traces must be identical.  All times
sit on a half-second grid, so same-instant ties are common and the
tie-break order is checked, not just completion times.

``run_scenario`` takes the kernel, the center and the way a timer
starts as arguments, so the same scenarios can be replayed against any
other kernel as well.
"""

from __future__ import annotations

from typing import Any, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Interrupt, ServiceCenter
from tests.sim_reference import ProcessServiceCenter, periodic_loop

GRID = st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.0))
CHECKPOINTS = st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.0, 4.5))
#: Where a scenario with timers stops: they never run out of work.
HORIZON = 6.0


def start_every(env, period, fn, arg, delay):
    env.every(period, fn, arg, delay)


def start_loop(env, period, fn, arg, delay):
    env.process(periodic_loop(env, period, fn, arg, delay))


@st.composite
def scenarios(draw):
    """Centers, processes made of ops, timers, interrupts and checkpoints.

    Ops: ``req`` waits for a job, ``sleep`` for a timeout, ``fire``
    submits a job without waiting, ``join`` waits for the last fired job
    (often already departed), ``all``/``any`` wait for a mix of jobs,
    timeouts and the last fired job, and ``every`` starts a timer.

    A timer has a period, a first-call delay (``None`` for the default,
    ``0.0`` for at once) and a body that may start a timeout or submit a
    job of its own.  Timers started outside a process are created just
    before the process at their position, so their start hops interleave
    with process bootstraps.
    """
    servers = draw(st.lists(st.sampled_from((1, 2, 4)), min_size=1, max_size=3))
    center = st.integers(0, len(servers) - 1)
    timer = st.tuples(
        st.sampled_from((0.5, 1.0, 1.5, 2.0)),
        st.one_of(st.none(), GRID),
        st.one_of(
            st.none(),
            st.tuples(st.just("sleep"), GRID),
            st.tuples(st.just("fire"), center, GRID),
        ),
    )
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
    return servers, procs, timers, interrupts, checkpoints


def run_scenario(
    scenario, environment, interrupt, center_cls, start_timer=start_every
) -> List[Any]:
    """Run one scenario on the given kernel and center; return its trace."""
    servers, proc_ops, timers, interrupts, checkpoints = scenario
    env = environment()
    centers = [center_cls(env, servers=n) for n in servers]
    trace: List[Any] = []

    def submit(index, service, label):
        job = centers[index].request(service)
        job.callbacks.append(lambda _job: trace.append((env.now, label + " departs")))
        return job

    def call(arg):
        """A timer body: record the call, then start its own work."""
        label, work = arg
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
        period, delay, work = spec
        start_timer(env, period, call, (label, work), delay)

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
    has_timers = timers or any(op[0] == "every" for ops in proc_ops for op in ops)
    trace.append((env.run(until=HORIZON) if has_timers else env.run(), "end"))
    trace.append([(c.busy_time, c.jobs_served, c.queue_length) for c in centers])
    return trace


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_closed_form_center_matches_process_per_job_trace(scenario):
    expected = run_scenario(scenario, Environment, Interrupt, ProcessServiceCenter)
    assert run_scenario(scenario, Environment, Interrupt, ServiceCenter) == expected


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_every_matches_generator_loop_trace(scenario):
    expected = run_scenario(
        scenario, Environment, Interrupt, ServiceCenter, start_loop
    )
    assert run_scenario(
        scenario, Environment, Interrupt, ServiceCenter, start_every
    ) == expected


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
    scenario = ([1], procs, [], [], [])
    trace = run_scenario(scenario, Environment, Interrupt, ServiceCenter)
    assert trace == run_scenario(scenario, Environment, Interrupt, ProcessServiceCenter)
    assert _labels_at(trace, 1.0) == ["p1.0", "p1 done", "p0.0 departs", "p0.0", "p0 done"]


def test_queued_job_starts_before_the_departing_jobs_waiters_run():
    """p1's queued job and p0's follow-up timeout both end at t=2.

    p1's job starts inside p0's departure at t=1, before p0 resumes and
    sets its timeout, so p1's departure wins the tie.
    """
    procs = [[("req", 0, 1.0), ("sleep", 1.0)], [("req", 0, 1.0)]]
    scenario = ([1], procs, [], [], [])
    trace = run_scenario(scenario, Environment, Interrupt, ServiceCenter)
    assert trace == run_scenario(scenario, Environment, Interrupt, ProcessServiceCenter)
    assert _labels_at(trace, 2.0) == ["p1.0 departs", "p1.0", "p1 done", "p0.1", "p0 done"]


def test_timer_first_call_ties_after_a_timeout_set_by_an_earlier_bootstrap():
    """p0 is created before timer t0, and both wake at t=1.

    t0's first entry is scheduled in its start hop, which runs after
    p0's bootstrap set its timeout, so p0 wins the tie, as it does
    against a generator loop started as a process.
    """
    scenario = ([1], [[("sleep", 1.0)]], [(1, (1.0, None, None))], [], [])
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
    scenario = ([1], [[]], [(0, (1.0, 0.0, ("sleep", 1.0)))], [], [])
    trace = run_scenario(scenario, Environment, Interrupt, ServiceCenter)
    assert trace == run_scenario(
        scenario, Environment, Interrupt, ServiceCenter, start_loop
    )
    assert _labels_at(trace, 0.0) == ["t0", "p0 done"]
    assert _labels_at(trace, 1.0) == ["t0 slept", "t0"]
