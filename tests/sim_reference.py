"""The process-per-job service center, kept as a differential reference.

``ServiceCenter`` used to run every job as a kernel process: acquire a
server slot, hold it for a timeout, release it.  The closed-form center
in :mod:`repro.sim.resources` must reproduce that design's event order
exactly, same-instant ties included, so the tests keep this copy of it
to compare against.
"""

from __future__ import annotations

from typing import Generator

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
