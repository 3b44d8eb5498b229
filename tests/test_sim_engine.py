"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import AllOf, AnyOf, Environment, Interrupt


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()
    env.timeout(5.0)
    assert env.run() == 5.0


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_run_until_stops_early():
    env = Environment()
    env.timeout(100.0)
    assert env.run(until=10.0) == 10.0
    assert env.now == 10.0


def test_run_until_past_all_events_advances_to_until():
    env = Environment()
    env.timeout(1.0)
    assert env.run(until=50.0) == 50.0


def test_run_until_behind_the_clock_raises_and_keeps_time():
    env = Environment()
    env.timeout(5.0)
    env.run(until=3.0)
    with pytest.raises(ValueError, match="before now"):
        env.run(until=1.0)
    assert env.now == 3.0
    assert env.run(until=3.0) == 3.0  # "until now" is not in the past
    assert env.run() == 5.0


def test_process_sequences_timeouts():
    env = Environment()
    trace = []

    def proc():
        yield env.timeout(1.0)
        trace.append(env.now)
        yield env.timeout(2.0)
        trace.append(env.now)

    env.process(proc())
    env.run()
    assert trace == [1.0, 3.0]


def test_process_return_value():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        return 42

    p = env.process(proc())
    assert env.run_until_process(p) == 42


def test_process_exception_propagates():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        raise RuntimeError("boom")

    p = env.process(proc())
    with pytest.raises(RuntimeError, match="boom"):
        env.run_until_process(p)


def test_nested_process_wait():
    env = Environment()

    def child():
        yield env.timeout(3.0)
        return "done"

    def parent():
        result = yield env.process(child())
        return (env.now, result)

    p = env.process(parent())
    assert env.run_until_process(p) == (3.0, "done")


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    trace = []

    def waiter():
        value = yield gate
        trace.append((env.now, value))

    def opener():
        yield env.timeout(7.0)
        gate.succeed("open")

    env.process(waiter())
    env.process(opener())
    env.run()
    assert trace == [(7.0, "open")]


def test_event_double_trigger_rejected():
    env = Environment()
    event = env.event()
    event.succeed()
    with pytest.raises(RuntimeError):
        event.succeed()


def test_event_fail_raises_in_waiter():
    env = Environment()
    gate = env.event()

    def waiter():
        yield gate

    def failer():
        yield env.timeout(1.0)
        gate.fail(ValueError("nope"))

    p = env.process(waiter())
    env.process(failer())
    with pytest.raises(ValueError, match="nope"):
        env.run_until_process(p)


def test_event_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_event_value_before_trigger_raises():
    env = Environment()
    with pytest.raises(RuntimeError):
        env.event().value


def test_waiting_on_already_triggered_event():
    env = Environment()
    done = env.event()
    done.succeed(5)

    def proc():
        value = yield done
        return value

    p = env.process(proc())
    assert env.run_until_process(p) == 5


def test_all_of_waits_for_slowest():
    env = Environment()

    def proc():
        values = yield env.all_of([env.timeout(1, "a"), env.timeout(5, "b"), env.timeout(3, "c")])
        return (env.now, values)

    p = env.process(proc())
    assert env.run_until_process(p) == (5.0, ["a", "b", "c"])


def test_all_of_empty_completes_immediately():
    env = Environment()

    def proc():
        yield env.all_of([])
        return env.now

    p = env.process(proc())
    assert env.run_until_process(p) == 0.0


def test_any_of_returns_first():
    env = Environment()

    def proc():
        value = yield env.any_of([env.timeout(4, "slow"), env.timeout(1, "fast")])
        return (env.now, value)

    p = env.process(proc())
    assert env.run_until_process(p) == (1.0, "fast")


def test_any_of_requires_events():
    env = Environment()
    with pytest.raises(ValueError):
        env.any_of([])


def test_interrupt_raises_in_process():
    env = Environment()
    caught = []

    def sleeper():
        try:
            yield env.timeout(100.0)
        except Interrupt as interrupt:
            caught.append((env.now, interrupt.cause))

    def interrupter(target):
        yield env.timeout(2.0)
        target.interrupt("shutdown")

    p = env.process(sleeper())
    env.process(interrupter(p))
    env.run()
    assert caught == [(2.0, "shutdown")]


def test_interrupt_dead_process_is_noop():
    env = Environment()

    def quick():
        yield env.timeout(1.0)

    p = env.process(quick())
    env.run()
    p.interrupt("late")  # must not raise
    env.run()


def test_yield_non_event_fails_process():
    env = Environment()

    def bad():
        yield 42

    p = env.process(bad())
    with pytest.raises(TypeError):
        env.run_until_process(p)


def test_tie_break_is_insertion_order():
    env = Environment()
    trace = []

    def make(tag):
        def proc():
            yield env.timeout(1.0)
            trace.append(tag)
        return proc

    for tag in "abc":
        env.process(make(tag)())
    env.run()
    assert trace == ["a", "b", "c"]


def test_determinism_across_runs():
    def scenario():
        env = Environment()
        trace = []

        def worker(name, delay):
            yield env.timeout(delay)
            trace.append((env.now, name))

        for i in range(10):
            env.process(worker(f"w{i}", (i * 7) % 5 + 0.5))
        env.run()
        return trace

    assert scenario() == scenario()


def test_deadlock_detection_in_run_until_process():
    env = Environment()

    def stuck():
        yield env.event()  # never triggered

    p = env.process(stuck())
    with pytest.raises(RuntimeError, match="deadlock"):
        env.run_until_process(p)


def test_unwaited_process_failure_surfaces():
    """A failed fire-and-forget process must not vanish silently."""
    env = Environment()

    def doomed():
        yield env.timeout(1.0)
        raise ValueError("orphan failure")

    env.process(doomed())
    with pytest.raises(ValueError, match="orphan failure"):
        env.run()


def test_events_carry_no_instance_dict():
    env = Environment()

    def proc():
        yield env.timeout(1.0)

    events = [env.event(), env.timeout(1.0), env.process(proc()),
              env.all_of([]), env.any_of([env.timeout(2.0)])]
    assert not any(hasattr(event, "__dict__") for event in events)


def test_urgent_work_runs_before_a_timed_entry_due_at_the_same_instant():
    env = Environment()
    trace = []
    gate = env.event()

    def sleeper():
        yield env.timeout(0.0)
        trace.append("timeout")

    def waiter():
        yield gate
        trace.append("gate")

    env.process(sleeper())
    env.process(waiter())
    env.run(until=0.0)
    assert trace == ["timeout"]
    env.timeout(0.0).callbacks.append(lambda _event: trace.append("timed"))
    gate.succeed()
    env.run()
    assert trace == ["timeout", "gate", "timed"]
    assert env.steps == 7


def test_every_calls_after_delay_then_each_period():
    env = Environment()
    calls = []
    env.every(2.0, calls.append, "a", delay=0.5)
    env.every(2.0, calls.append, "b")
    env.every(3.0, calls.append, "c", delay=0.0)
    env.run(until=6.0)
    assert calls == ["c", "a", "b", "a", "c", "b", "a", "c", "b"]


def test_every_call_is_one_kernel_step():
    env = Environment()
    env.every(1.0, lambda _arg: None)
    env.run(until=10.0)
    # One start hop, then one entry per call at t = 1..10.
    assert env.steps == 11


@pytest.mark.parametrize("period, delay", [(0.0, None), (-1.0, None), (1.0, -0.5)])
def test_every_rejects_a_non_positive_period_or_negative_delay(period, delay):
    env = Environment()
    with pytest.raises(ValueError):
        env.every(period, lambda _arg: None, delay=delay)
    assert env.steps == 0 and env.run() == 0.0


def test_every_each_rejects_a_group_delay_past_the_period():
    env = Environment()
    with pytest.raises(ValueError):
        env.every_each(1.0, lambda _arg: None, [("a", 0.5), ("b", 1.5)])
    env.every_each(1.0, lambda _arg: None, [("a", 1.5)])  # a lone member may
    assert env.run(until=1.5) == 1.5 and env.steps == 2


def test_a_group_starts_in_one_hop_and_calls_in_rotation():
    env = Environment()
    calls = []
    env.every_each(1.0, lambda arg: calls.append((env.now, arg)),
                   [("a", 0.5), ("b", 0.5), ("c", 1.0)])
    env.run(until=3.0)
    assert calls == [(t + d, m) for t in (0.0, 1.0, 2.0)
                     for m, d in (("a", 0.5), ("b", 0.5), ("c", 1.0))]
    # One start hop, then one step per call.
    assert env.steps == 10
