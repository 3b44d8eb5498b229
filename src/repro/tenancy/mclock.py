"""mClock-style QoS scheduling of per-OSD I/O admission.

Gulati et al.'s mClock (OSDI '10) — the algorithm behind Ceph's
``osd_op_queue = mclock_scheduler`` — arbitrates one shared resource
between competing classes, each declaring a *reservation* (minimum
service share it must receive), a *limit* (maximum share it may
receive), and a *weight* (its fraction of whatever is left).  Every
arriving request is stamped with three tags; with ``cost`` the request's
service time and ``prev`` the class's previous tag of the same kind::

    R = max(now, prev_R + cost / reservation)     (infinity when r = 0)
    L = max(now, prev_L + cost / limit)           (-infinity when unlimited)
    P = max(now, prev_P + cost / weight)

Dispatch is two-phase.  *Constraint phase*: among queue heads whose R
tag is due (R <= now), serve the smallest R tag — reservations are met
first, by deadline order.  *Weight phase*: otherwise, among heads whose
L tag is due (the class is under its limit), serve the smallest P tag —
spare capacity splits by weight.  A request served from the weight
phase credits its class's later R tags by ``cost / reservation`` so
weight-phase service is not double-charged against the reservation
(mClock's tag-adjustment rule).  Ties break deterministically on
``(tag, class name, arrival sequence)``, so the scheduler is
byte-reproducible under the simulation's deterministic event order.

Here reservation and limit are expressed as *work shares* — service-
seconds per second of wall clock, i.e. the fraction of the underlying
server's capacity — because every caller already converts bytes to
service time through its own rate model (recovery rates, scrub rate,
the scheduler's client rate).  A class with ``reservation=0.5`` is
guaranteed half the server; weights are dimensionless.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Generator, Optional, Tuple

from ..sim import Environment, Event

__all__ = ["QosClass", "QosClassStats", "MClockScheduler"]


@dataclass(frozen=True)
class QosClass:
    """One competing class: reservation/limit shares and a weight.

    ``reservation`` and ``limit`` are fractions of the server's capacity
    (service-seconds per second); ``reservation=0`` guarantees nothing,
    ``limit=0`` means unlimited.  ``weight`` splits spare capacity.
    """

    name: str
    reservation: float = 0.0
    weight: float = 1.0
    limit: float = 0.0

    def __post_init__(self):
        if not self.name:
            raise ValueError("class name must be non-empty")
        if self.reservation < 0:
            raise ValueError("reservation must be >= 0")
        if self.limit < 0:
            raise ValueError("limit must be >= 0 (0 = unlimited)")
        if self.limit and self.limit < self.reservation:
            raise ValueError("limit must be >= reservation")
        if self.weight <= 0:
            raise ValueError("weight must be positive")


@dataclass
class QosClassStats:
    """Observable per-class behaviour (the fairness invariant's input)."""

    enqueued: int = 0
    served: int = 0
    busy_time: float = 0.0
    total_wait: float = 0.0
    max_wait: float = 0.0


@dataclass
class _Job:
    """One queued request with its three tags."""

    cost: float
    arrived: float
    seqno: int
    r_tag: float
    l_tag: float
    p_tag: float
    done: Event


@dataclass
class _ClassState:
    spec: QosClass
    queue: Deque[_Job] = field(default_factory=deque)
    #: Last-assigned tags (the ``prev`` of the tag formula).
    r_tag: float = -math.inf
    l_tag: float = -math.inf
    p_tag: float = -math.inf
    stats: QosClassStats = field(default_factory=QosClassStats)


class MClockScheduler:
    """One mClock-arbitrated admission server.

    ``submit(class_name, service_time)`` returns an event that fires
    once the request has been admitted *and* served for ``service_time``
    — the same contract as ``ServiceCenter.request``, so the OSD grant
    methods can route through either transparently.  Unknown classes are
    admitted with :attr:`default_class` semantics (weight 1, no
    reservation), so attaching QoS never breaks an unconfigured caller.
    """

    def __init__(
        self,
        env: Environment,
        classes: Tuple[QosClass, ...] = (),
        name: str = "",
        client_rate: float = 100e6,
    ):
        if client_rate <= 0:
            raise ValueError("client_rate must be positive")
        self.env = env
        self.name = name
        #: Bytes/second used to convert client transfer sizes into
        #: admission service time (recovery and scrub bring their own
        #: rate models).
        self.client_rate = client_rate
        self._classes: Dict[str, _ClassState] = {}
        for spec in classes:
            if spec.name in self._classes:
                raise ValueError(f"duplicate QoS class {spec.name!r}")
            self._classes[spec.name] = _ClassState(spec=spec)
        self._seqno = 0
        self._arrival: Optional[Event] = None
        self._dispatcher = env.process(self._dispatch())

    # -- introspection -----------------------------------------------------------

    @property
    def classes(self) -> Dict[str, QosClassStats]:
        """Per-class stats, keyed by class name (deterministic order)."""
        return {name: state.stats for name, state in sorted(self._classes.items())}

    @property
    def pending(self) -> int:
        return sum(len(state.queue) for state in self._classes.values())

    def client_cost(self, nbytes: int) -> float:
        """Admission service time for a client transfer of ``nbytes``."""
        return nbytes / self.client_rate

    # -- submission --------------------------------------------------------------

    def submit(self, class_name: str, service_time: float) -> Event:
        """Queue one request; the event fires when it finishes service."""
        if service_time < 0:
            raise ValueError(f"negative service time: {service_time!r}")
        state = self._classes.get(class_name)
        if state is None:
            state = _ClassState(spec=QosClass(name=class_name))
            self._classes[class_name] = state
        now = self.env.now
        spec = state.spec
        r_tag = (
            max(now, state.r_tag + service_time / spec.reservation)
            if spec.reservation > 0
            else math.inf
        )
        l_tag = (
            max(now, state.l_tag + service_time / spec.limit)
            if spec.limit > 0
            else -math.inf
        )
        p_tag = max(now, state.p_tag + service_time / spec.weight)
        if spec.reservation > 0:
            state.r_tag = r_tag
        if spec.limit > 0:
            state.l_tag = l_tag
        state.p_tag = p_tag
        job = _Job(
            cost=service_time,
            arrived=now,
            seqno=self._seqno,
            r_tag=r_tag,
            l_tag=l_tag,
            p_tag=p_tag,
            done=self.env.event(),
        )
        self._seqno += 1
        state.queue.append(job)
        state.stats.enqueued += 1
        if self._arrival is not None and not self._arrival.triggered:
            self._arrival.succeed()
        return job.done

    # -- dispatch ----------------------------------------------------------------

    def _pick(self, now: float):
        """(state, job, phase) to serve now, or the next eligible time.

        Returns ``(state, job, weight_phase, None)`` when a head is
        eligible, else ``(None, None, False, wake_at)`` where ``wake_at``
        is the earliest instant any head becomes eligible (None when no
        job is queued at all).
        """
        best_r = None  # (r_tag, name, seqno, state, job)
        best_p = None  # (p_tag, name, seqno, state, job)
        wake_at = None
        for name in sorted(self._classes):
            state = self._classes[name]
            if not state.queue:
                continue
            job = state.queue[0]
            if job.r_tag <= now:
                key = (job.r_tag, name, job.seqno)
                if best_r is None or key < best_r[:3]:
                    best_r = (*key, state, job)
            if job.l_tag <= now:
                key = (job.p_tag, name, job.seqno)
                if best_p is None or key < best_p[:3]:
                    best_p = (*key, state, job)
            eligible_at = min(
                job.r_tag if math.isfinite(job.r_tag) else math.inf,
                job.l_tag if job.l_tag > now else now,
            )
            if math.isfinite(eligible_at):
                wake_at = eligible_at if wake_at is None else min(wake_at, eligible_at)
        if best_r is not None:
            return best_r[3], best_r[4], False, None
        if best_p is not None:
            return best_p[3], best_p[4], True, None
        return None, None, False, wake_at

    def _dispatch(self) -> Generator:
        while True:
            state, job, weight_phase, wake_at = self._pick(self.env.now)
            if job is None:
                self._arrival = self.env.event()
                if wake_at is None:
                    yield self._arrival
                else:
                    # Every queued head is tag-gated (limits or future
                    # reservations): sleep to the earliest eligibility,
                    # but wake early on a new arrival.
                    yield self.env.any_of(
                        [self._arrival, self.env.timeout(wake_at - self.env.now)]
                    )
                self._arrival = None
                continue
            state.queue.popleft()
            if weight_phase and state.spec.reservation > 0:
                # mClock tag adjustment: weight-phase service must not
                # count against the reservation, so later R deadlines of
                # this class move earlier by the share just consumed.
                credit = job.cost / state.spec.reservation
                for queued in state.queue:
                    queued.r_tag -= credit
                state.r_tag -= credit
            wait = self.env.now - job.arrived
            stats = state.stats
            stats.total_wait += wait
            stats.max_wait = max(stats.max_wait, wait)
            yield self.env.timeout(job.cost)
            stats.served += 1
            stats.busy_time += job.cost
            job.done.succeed()
