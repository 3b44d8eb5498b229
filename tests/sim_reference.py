"""Process-based designs the kernel replaced, kept as differential references.

``ServiceCenter`` used to run every job as a kernel process: acquire a
server slot, hold it for a timeout, release it.  Heartbeats, monitor
ticks and iostat sampling each used to run as a generator loop that
sleeps a fixed period between calls.  The closed-form center in
:mod:`repro.sim.resources` and :meth:`Environment.every` must reproduce
those designs' event order exactly, same-instant ties included, so the
tests keep copies of them to compare against.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.sim import Environment, Event, Resource


class ProcessServiceCenter:
    """A FIFO service center that spawns one process per job."""

    def __init__(self, env: Environment, servers: int = 1, name: str = ""):
        self.env = env
        self.name = name
        self._slots = Resource(env, servers)
        self.busy_time = 0.0
        self.jobs_served = 0

    @property
    def queue_length(self) -> int:
        return self._slots.queue_length

    def request(self, service_time: float) -> Event:
        if service_time < 0:
            raise ValueError(f"negative service time: {service_time!r}")
        return self.env.process(self._serve(service_time))

    def _serve(self, service_time: float) -> Generator:
        yield self._slots.acquire()
        try:
            yield self.env.timeout(service_time)
        finally:
            self._slots.release()
        self.busy_time += service_time
        self.jobs_served += 1


def periodic_loop(
    env: Environment,
    period: float,
    fn: Callable[[Any], None],
    arg: Any = None,
    delay: Optional[float] = None,
) -> Generator:
    """The generator loop ``Environment.every`` replaces; run it as a process."""
    if delay is None:
        delay = period
    if delay > 0:
        yield env.timeout(delay)
    while True:
        fn(arg)
        yield env.timeout(period)
