"""Unit tests for Resource and ServiceCenter."""

import pytest

from repro.sim import Environment, Interrupt, Resource, ServiceCenter
from tests.sim_reference import ProcessServiceCenter


# -- Resource -----------------------------------------------------------------


def test_resource_capacity_validated():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, 0)


def test_resource_immediate_acquire_under_capacity():
    env = Environment()
    res = Resource(env, 2)
    a = res.acquire()
    b = res.acquire()
    assert a.triggered and b.triggered
    assert res.in_use == 2


def test_resource_blocks_at_capacity_and_fifo_handoff():
    env = Environment()
    res = Resource(env, 1)
    order = []

    def user(name, hold):
        yield res.acquire()
        order.append(("got", name, env.now))
        yield env.timeout(hold)
        res.release()

    env.process(user("a", 3))
    env.process(user("b", 1))
    env.process(user("c", 1))
    env.run()
    assert order == [("got", "a", 0.0), ("got", "b", 3.0), ("got", "c", 4.0)]


def test_resource_release_without_acquire_rejected():
    env = Environment()
    res = Resource(env, 1)
    with pytest.raises(RuntimeError):
        res.release()


def test_resource_queue_length():
    env = Environment()
    res = Resource(env, 1)
    res.acquire()
    res.acquire()
    res.acquire()
    assert res.queue_length == 2


# -- ServiceCenter --------------------------------------------------------------


def test_service_center_serial_service():
    env = Environment()
    center = ServiceCenter(env, servers=1)
    done = []

    def job(name, service):
        yield center.request(service)
        done.append((name, env.now))

    env.process(job("a", 2.0))
    env.process(job("b", 3.0))
    env.run()
    assert done == [("a", 2.0), ("b", 5.0)]


def test_service_center_parallel_servers():
    env = Environment()
    center = ServiceCenter(env, servers=2)
    done = []

    def job(name, service):
        yield center.request(service)
        done.append((name, env.now))

    for name in ("a", "b", "c"):
        env.process(job(name, 2.0))
    env.run()
    assert done == [("a", 2.0), ("b", 2.0), ("c", 4.0)]


def test_service_center_negative_time_rejected():
    env = Environment()
    center = ServiceCenter(env)
    with pytest.raises(ValueError):
        center.request(-1.0)


def test_service_center_tracks_busy_time_and_jobs():
    env = Environment()
    center = ServiceCenter(env, servers=1)

    def job():
        yield center.request(4.0)

    env.process(job())
    env.run()
    assert center.busy_time == 4.0
    assert center.jobs_served == 1


# -- ServiceCenter parity with the process-per-job reference ----------------------


@pytest.mark.parametrize("center_cls", [ServiceCenter, ProcessServiceCenter])
def test_service_center_busy_time_and_jobs_accrue_at_departure(center_cls):
    env = Environment()
    center = center_cls(env, servers=1)
    center.request(4.0)
    center.request(2.0)
    env.run(until=3.0)
    assert (center.busy_time, center.jobs_served) == (0.0, 0)
    env.run(until=5.0)
    assert (center.busy_time, center.jobs_served) == (4.0, 1)
    env.run()
    assert (env.now, center.busy_time, center.jobs_served) == (6.0, 6.0, 2)


@pytest.mark.parametrize("center_cls", [ServiceCenter, ProcessServiceCenter])
def test_service_center_queue_length_counts_waiting_jobs(center_cls):
    env = Environment()
    center = center_cls(env, servers=2)
    for _ in range(5):
        center.request(2.0)
    lengths = []
    for until in (1.0, 3.0, 5.0, 7.0):
        env.run(until=until)
        lengths.append(center.queue_length)
    assert lengths == [3, 1, 0, 0]


@pytest.mark.parametrize("servers", [0, -1])
def test_service_center_needs_a_server(servers):
    with pytest.raises(ValueError):
        ServiceCenter(Environment(), servers=servers)


@pytest.mark.parametrize("center_cls", [ServiceCenter, ProcessServiceCenter])
def test_service_center_zero_service_time(center_cls):
    env = Environment()
    center = center_cls(env, servers=1)
    done = []

    def job(name):
        yield center.request(0.0)
        done.append((name, env.now))

    env.process(job("a"))
    env.process(job("b"))
    env.run()
    assert done == [("a", 0.0), ("b", 0.0)]
    assert (center.busy_time, center.jobs_served, center.queue_length) == (0.0, 2, 0)


@pytest.mark.parametrize("center_cls", [ServiceCenter, ProcessServiceCenter])
def test_interrupt_detaches_a_waiter_from_a_service_event(center_cls):
    env = Environment()
    center = center_cls(env, servers=1)
    trace = []

    def client():
        job = center.request(5.0)
        try:
            yield job
            trace.append(("served", env.now))
        except Interrupt as interrupt:
            trace.append((interrupt.cause, env.now))
        yield env.timeout(10.0)
        trace.append(("done", env.now))

    proc = env.process(client())
    env.run(until=1.0)
    proc.interrupt("cancel")
    env.run()
    # The job itself still runs to completion; the client is not resumed
    # by its departure at t=5.
    assert trace == [("cancel", 1.0), ("done", 11.0)]
    assert (center.busy_time, center.jobs_served) == (5.0, 1)

