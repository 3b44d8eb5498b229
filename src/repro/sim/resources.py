"""Contention primitives built on the simulation kernel.

Two building blocks cover everything the cluster model needs:

* :class:`Resource` — a counted semaphore with a FIFO waiter queue.  OSD
  recovery slots (``osd_recovery_max_active``) and per-host backfill
  reservations are plain resources.
* :class:`ServiceCenter` — a multi-server FIFO queue where each job brings
  its own service time.  Disks and NICs are service centers: the device
  model converts an I/O (operation count + byte count) into a service time
  and the center serialises concurrent users, which is where queueing delay
  — the phenomenon behind most of the paper's configuration effects —
  comes from.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from .engine import Environment, Event, _process_event

__all__ = ["Resource", "ServiceCenter"]


class Resource:
    """A counted resource with FIFO acquisition order.

    Usage from a process::

        yield resource.acquire()
        try:
            ...
        finally:
            resource.release()
    """

    def __init__(self, env: Environment, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        """Return an event that fires once a slot is held by the caller."""
        event = self.env.event()
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Release one held slot, handing it to the oldest waiter if any."""
        if self._in_use <= 0:
            raise RuntimeError("release() without a matching acquire()")
        if self._waiters:
            # Hand the slot directly to the next waiter: _in_use stays put.
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1


class ServiceCenter:
    """A FIFO service center with ``servers`` parallel servers.

    ``request(service_time)`` returns an event that fires when the job has
    waited for a server and then been served.  Total busy time is tracked
    so callers can compute utilisation.

    The queue is closed-form: a job costs one timed kernel entry, its
    departure, and no process.  A job that finds a free server departs
    at ``now + service_time``; a job that finds every server busy waits
    in a FIFO and starts inside the departure that frees its server,
    before that departure's waiters run.  The event order, same-instant
    ties included, is the one a process per job (acquire a slot, hold it
    for a timeout, release it) produces.
    """

    def __init__(self, env: Environment, servers: int = 1, name: str = ""):
        if servers < 1:
            raise ValueError(f"servers must be >= 1, got {servers}")
        self.env = env
        self.name = name
        self.servers = servers
        self.busy_time = 0.0
        self.jobs_served = 0
        self._busy = 0
        self._waiting: Deque[_Job] = deque()

    @property
    def queue_length(self) -> int:
        """Jobs waiting for a server (not counting those in service)."""
        return len(self._waiting)

    def request(self, service_time: float) -> Event:
        """Submit a job; the returned event fires when service completes."""
        if service_time < 0:
            raise ValueError(f"negative service time: {service_time!r}")
        job = _Job(self.env, service_time)
        if self._busy < self.servers:
            self._busy += 1
            # The departure is scheduled two same-instant urgent hops
            # from now: that fixes its tie-break sequence among timed
            # entries to the one a process per job gives it (bootstrap,
            # then slot grant, then the timeout).
            self.env._urgent.append((self._hop, job))
        else:
            self._waiting.append(job)
        return job

    def _hop(self, job: "_Job") -> None:
        self.env._urgent.append((self._start, job))

    def _start(self, job: "_Job") -> None:
        env = self.env
        env._schedule(env._now + job.service_time, self._depart, job)

    def _depart(self, job: "_Job") -> None:
        if self._waiting:
            # Hand the server straight to the oldest waiter.
            self._start(self._waiting.popleft())
        else:
            self._busy -= 1
        self.busy_time += job.service_time
        self.jobs_served += 1
        job._ok = True
        _process_event(job)


class _Job(Event):
    """One service-center job: the event its submitter waits on."""

    __slots__ = ("service_time",)

    def __init__(self, env: Environment, service_time: float):
        super().__init__(env)
        self.service_time = service_time

