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
from typing import Any, Deque, Dict, List, Optional, Tuple

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


class _Job(Event):
    """One queued request with its three tags: the event its submitter
    waits on, succeeded when its service ends."""

    __slots__ = ("cost", "arrived", "seqno", "r_tag", "l_tag", "p_tag", "stats")

    def __init__(self, env: Environment, cost: float, seqno: int,
                 r_tag: float, l_tag: float, p_tag: float,
                 stats: QosClassStats):
        super().__init__(env)
        self.cost = cost
        self.arrived = env._now
        self.seqno = seqno
        self.r_tag = r_tag
        self.l_tag = l_tag
        self.p_tag = p_tag
        self.stats = stats


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

    The server is closed-form, like
    :class:`~repro.sim.resources.ServiceCenter`: it runs no process.
    Its kernel entries are the ones a dispatcher process looping
    *pick, serve for the job's cost, succeed the job* would make, so
    the event order, same-instant ties included, and
    :attr:`~repro.sim.Environment.steps` are that process's:

    * the server starts through one urgent hop at construction, the
      dispatcher's bootstrap;
    * each job gets one timed departure entry, scheduled when it is
      picked, with the ``seq`` the dispatcher's service timeout took;
      the departure succeeds the job and picks the next one in place;
    * an arrival at an idle server costs one urgent hop, the wake-up of
      a dispatcher waiting on an arrival event;
    * when every queued head is tag-gated, the wait costs one wake
      entry at ``now + (wake_at - now)``, as the dispatcher's timeout,
      and one relay hop when it fires; an arrival that beats it costs
      the two relay hops of the arrival event and the ``AnyOf`` the
      dispatcher waited on, and the wake entry, now stale, stays a
      no-op step.
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
        #: ``(name, state)`` by class name: the pick's scan and tie order.
        self._order: List[Tuple[str, _ClassState]] = sorted(self._classes.items())
        self._seqno = 0
        #: Whether the server is waiting for an arrival: idle, or gated.
        self._armed = False
        #: The gated wait's token, which its wake entry carries; None
        #: when the server is not gated.
        self._gate: Optional[object] = None
        env._urgent.append((self._pick_next, None))

    # -- introspection -----------------------------------------------------------

    @property
    def classes(self) -> Dict[str, QosClassStats]:
        """Per-class stats, keyed by class name (deterministic order)."""
        return {name: state.stats for name, state in self._order}

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
            self._order = sorted(self._classes.items())
        env = self.env
        now = env._now
        spec = state.spec
        if spec.reservation > 0:
            r_tag = state.r_tag = max(
                now, state.r_tag + service_time / spec.reservation
            )
        else:
            r_tag = math.inf
        if spec.limit > 0:
            l_tag = state.l_tag = max(now, state.l_tag + service_time / spec.limit)
        else:
            l_tag = -math.inf
        p_tag = state.p_tag = max(now, state.p_tag + service_time / spec.weight)
        job = _Job(env, service_time, self._seqno, r_tag, l_tag, p_tag,
                   state.stats)
        self._seqno += 1
        state.queue.append(job)
        state.stats.enqueued += 1
        if self._armed:
            self._armed = False
            if self._gate is None:
                env._urgent.append((self._pick_next, None))
            else:
                self._gate = None
                env._urgent.append((self._relay, None))
        return job

    # -- dispatch ----------------------------------------------------------------

    def _pick(self, now: float):
        """(state, job, phase) to serve now, or the next eligible time.

        Returns ``(state, job, weight_phase, None)`` when a head is
        eligible, else ``(None, None, False, wake_at)`` where ``wake_at``
        is the earliest instant any head becomes eligible (None when no
        job is queued at all).  The scan runs in class-name order, so a
        strictly smaller tag is what beats the best so far: ties break
        on ``(tag, class name, seqno)``.
        """
        best_r = best_p = r_state = p_state = None
        wake_at = None
        for _name, state in self._order:
            queue = state.queue
            if not queue:
                continue
            job = queue[0]
            r_tag = job.r_tag
            if r_tag <= now and (best_r is None or r_tag < best_r.r_tag):
                best_r, r_state = job, state
            l_tag = job.l_tag
            if l_tag <= now and (best_p is None or job.p_tag < best_p.p_tag):
                best_p, p_state = job, state
            eligible_at = min(
                r_tag if math.isfinite(r_tag) else math.inf,
                l_tag if l_tag > now else now,
            )
            if math.isfinite(eligible_at):
                wake_at = eligible_at if wake_at is None else min(wake_at, eligible_at)
        if best_r is not None:
            return r_state, best_r, False, None
        if best_p is not None:
            return p_state, best_p, True, None
        return None, None, False, wake_at

    def _pick_next(self, _arg: Any) -> None:
        """Serve the best eligible head, or wait for an arrival or a wake."""
        env = self.env
        now = env._now
        state, job, weight_phase, wake_at = self._pick(now)
        if job is None:
            self._armed = True
            if wake_at is not None:
                # Every queued head is tag-gated (limits or future
                # reservations): sleep to the earliest eligibility, but
                # wake early on a new arrival.
                self._gate = gate = object()
                env._schedule(now + (wake_at - now), self._wake, gate)
            return
        state.queue.popleft()
        if weight_phase and state.spec.reservation > 0:
            # mClock tag adjustment: weight-phase service must not count
            # against the reservation, so later R deadlines of this
            # class move earlier by the share just consumed.
            credit = job.cost / state.spec.reservation
            for queued in state.queue:
                queued.r_tag -= credit
            state.r_tag -= credit
        wait = now - job.arrived
        stats = job.stats
        stats.total_wait += wait
        stats.max_wait = max(stats.max_wait, wait)
        env._schedule(now + job.cost, self._depart, job)

    def _relay(self, _arg: Any) -> None:
        """An arrival beat the wake entry: the ``AnyOf``'s relay hop."""
        self.env._urgent.append((self._pick_next, None))

    def _wake(self, gate: object) -> None:
        """The gated wait's wake entry: a no-op once an arrival beat it."""
        if gate is self._gate:
            self._gate = None
            self._armed = False
            self.env._urgent.append((self._pick_next, None))

    def _depart(self, job: _Job) -> None:
        stats = job.stats
        stats.served += 1
        stats.busy_time += job.cost
        job.succeed()
        self._pick_next(None)
