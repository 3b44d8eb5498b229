"""Deterministic discrete-event simulation kernel.

The kernel follows the classic event-list design: a virtual clock driven
by two queues of ``(fn, arg)`` work items, and *processes* that are plain
Python generators which ``yield`` events they want to wait for.  The
design is intentionally close to SimPy's core so that the higher layers
(disks, NICs, OSD daemons) read naturally, but it is self-contained: the
reproduction must not depend on packages that are not installed in the
evaluation environment.

* **Urgent work** — triggered events, process starts and resumes,
  interrupts — is always due *now* and always runs before any timed
  entry due now, so it lives in a FIFO deque rather than the heap.
* **Timed work** — timeouts, service-center departures and periodic
  group calls — sits in a heap of ``(when, seq, fn, arg)`` entries;
  ``seq`` is a global insertion counter, so same-instant ties break by
  insertion order.
* **Chains** (:class:`Chain`) are operations — a fabric transfer, a
  helper pull, a client read or write and its shard I/O — whose steps
  are plain callbacks, each run where the generator of a process doing
  the same work would have resumed, so they keep a process's event
  order with no generator.
* **Periodic groups** (:meth:`Environment.every_each`) are fixed-period
  work such as heartbeats and monitor ticks: same-period members share
  one heap entry, with no process, timeout or generator, and make each
  next call in place while nothing else is due before it.
  :meth:`Environment.every` is a one-member group.

Determinism matters here: every experiment in the paper is re-run and
averaged, and our tests assert exact recovery timelines.  A simulation
with the same seed always produces the same trace.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Generator, Iterable, List, Optional, Tuple, Union

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Chain",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "Environment",
]

_INF = float("inf")


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The ``cause`` attribute carries whatever object the interrupter passed,
    typically a short reason string such as ``"node shutdown"``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    triggers it, schedules its callbacks, and freezes its value.  Waiting on
    an already-triggered event resumes the waiter immediately (at the current
    simulation time), which is what makes ``yield store.get()`` style code
    race-free.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None

    @property
    def triggered(self) -> bool:
        """Whether the event has been succeeded or failed."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """Whether the event succeeded.  Only meaningful once triggered."""
        return bool(self._ok)

    @property
    def value(self) -> Any:
        if self._ok is None:
            raise RuntimeError("event value is not available before trigger")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, waking all waiters."""
        if self._ok is not None:
            raise RuntimeError("event already triggered")
        self._ok = True
        self._value = value
        self.env._urgent.append((_process_event, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception; waiters see it raised."""
        if self._ok is not None:
            raise RuntimeError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._urgent.append((_process_event, self))
        return self


def _process_event(event: Event) -> None:
    """Run a triggered event's callbacks, once."""
    callbacks = event.callbacks
    event.callbacks = None
    if callbacks:
        for callback in callbacks:
            callback(event)
    elif event._ok is False and isinstance(event, (Process, Chain)):
        # A process or chain died and nothing was waiting for it.
        # Silently dropping the exception would leave the simulation
        # hung or subtly wrong, so surface it immediately (SimPy
        # semantics).
        raise event._value


#: What every new process is resumed with: an event that has already
#: fired with value None and belongs to no environment.  Shared, because
#: a process only reads its outcome.
_BOOTSTRAP = Event(None)  # type: ignore[arg-type]
_BOOTSTRAP._ok = True
_BOOTSTRAP.callbacks = None


class Timeout(Event):
    """An event that triggers automatically after ``delay`` time units."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(env._now + delay, _process_event, self)


class Process(Event):
    """Wraps a generator so it can run as a simulation process.

    The process itself is an event that triggers when the generator returns
    (successfully, carrying the return value) or raises (failed, carrying
    the exception).  This lets a parent do ``result = yield child``.
    """

    __slots__ = ("_generator", "_waiting_on")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "send"):
            raise TypeError("Process requires a generator")
        super().__init__(env)
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        # Kick off the generator at the current time.
        env._urgent.append((self._resume, _BOOTSTRAP))

    @property
    def is_alive(self) -> bool:
        return self._ok is None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            return
        target = self._waiting_on
        if target is not None and not target.processed:
            # Detach from the event we were waiting on so a later trigger
            # does not resume a process that has already been interrupted.
            if target.callbacks is not None:
                target.callbacks = [
                    cb for cb in target.callbacks if getattr(cb, "__self__", None) is not self
                ]
        self._waiting_on = None
        self.env._urgent.append((self._throw, Interrupt(cause)))

    # -- internal machinery -------------------------------------------------

    def _resume(self, event: Event) -> None:
        if self._ok is not None:  # no longer alive
            return
        self._waiting_on = None
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via event
            self.fail(exc)
            return
        self._wait_for(target)

    def _throw(self, exc: BaseException) -> None:
        if self._ok is not None:  # no longer alive
            return
        try:
            target = self._generator.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as raised:  # noqa: BLE001
            self.fail(raised)
            return
        self._wait_for(target)

    def _wait_for(self, target: Any) -> None:
        if not isinstance(target, Event):
            self._throw(TypeError(f"process yielded a non-event: {target!r}"))
            return
        if target.env is not self.env:
            self._throw(RuntimeError("event belongs to a different environment"))
            return
        self._waiting_on = target
        if target.callbacks is None:
            # Already fired and its callback pass is done: resume now.
            self.env._urgent.append((self._resume, target))
        else:
            target.callbacks.append(self._resume)


class Chain(Event):
    """An event its own callback steps trigger: a process without a generator.

    An operation that would be a process — wait on a job, sleep, wait
    on another job, retry, return — can run as a chain of steps instead,
    each a plain callable placed exactly where that process's generator
    would have resumed.  The event order, same-instant ties
    included, and :attr:`Environment.steps` are then the process's:

    * the first step runs one urgent hop after :meth:`start`, called at
      creation, where the process's bootstrap was;
    * :meth:`wait` runs the next step from the awaited event's
      callbacks, or one urgent hop later if that event was already
      processed, as a waiting process resumes;
    * :meth:`sleep` runs it from one timed entry scheduled at once,
      with the ``seq`` the process's :class:`Timeout` would take;
    * the chain ends with :meth:`succeed` or :meth:`fail`, whose urgent
      hop is the one a finished process took.

    A step that would have raised inside the generator must fail the
    chain instead: an exception that leaves a step leaves
    :meth:`Environment.run`.
    """

    __slots__ = ()

    def start(self, step: Callable[[None], None]) -> None:
        """Run ``step(None)`` one urgent hop from now."""
        self.env._urgent.append((step, None))

    def wait(self, event: Event, step: Callable[[Event], None]) -> None:
        """Run ``step(event)`` where a process waiting on ``event`` resumes."""
        if event.callbacks is None:
            self.env._urgent.append((step, event))
        else:
            event.callbacks.append(step)

    def sleep(
        self, delay: float, step: Callable[[Any], None], arg: Any = None
    ) -> None:
        """Run ``step(arg)`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative sleep delay: {delay!r}")
        env = self.env
        env._schedule(env._now + delay, step, arg)


class AllOf(Event):
    """Triggers when every child event has succeeded.

    Fails fast with the first child failure.  The value is a list of child
    values in the order the children were given.
    """

    __slots__ = ("_children", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._children = list(events)
        self._pending = 0
        for child in self._children:
            if child.processed:
                if not child._ok:
                    raise RuntimeError("AllOf over an already-failed event")
                continue
            self._pending += 1
            child.callbacks.append(self._on_child)
        if self._pending == 0:
            self.succeed([c._value for c in self._children])

    def _on_child(self, child: Event) -> None:
        if self.triggered:
            return
        if not child._ok:
            self.fail(child._value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([c._value for c in self._children])


class AnyOf(Event):
    """Triggers when the first child event triggers (success or failure)."""

    __slots__ = ("_children",)

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._children = list(events)
        if not self._children:
            raise ValueError("AnyOf requires at least one event")
        fired = [c for c in self._children if c.processed]
        if fired:
            first = fired[0]
            if first._ok:
                self.succeed(first._value)
            else:
                self.fail(first._value)
            return
        for child in self._children:
            child.callbacks.append(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self.triggered:
            return
        if child._ok:
            self.succeed(child._value)
        else:
            self.fail(child._value)


class Environment:
    """The simulation environment: clock, event list, and process factory."""

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        #: Timed entries ``(when, seq, fn, arg)``, a heap.
        self._queue: List[Tuple[float, int, Callable[[Any], None], Any]] = []
        #: Work due now, ahead of every timed entry: ``(fn, arg)``, FIFO.
        self._urgent: Deque[Tuple[Callable[[Any], None], Any]] = deque()
        self._seq = 0
        self._steps = 0
        #: The running loop's last due time: a periodic group makes a
        #: call in place only up to it (see :func:`_fire_group`).
        self._horizon = _INF

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def steps(self) -> int:
        """Total queue entries executed so far, urgent and timed alike.

        A cost counter for profiling, not a contract: a kernel or
        service-center change that leaves every simulated time unchanged
        may still change it, so outcome hashes leave it out.
        """
        return self._steps

    # -- public API ----------------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Launch ``generator`` as a process, returning its process event."""
        return Process(self, generator)

    def every(
        self,
        period: float,
        fn: Callable[[Any], None],
        arg: Any = None,
        delay: Optional[float] = None,
    ) -> None:
        """Call ``fn(arg)`` after ``delay``, then every ``period`` seconds.

        ``delay`` defaults to ``period``; 0 makes the first call at once.
        Each later call comes ``period`` after the previous call returns,
        with no process, timeout or generator.  The event order,
        same-instant ties included, is the one this process gives::

            if delay > 0:
                yield env.timeout(delay)
            while True:
                fn(arg)
                yield env.timeout(period)

        A one-member :meth:`every_each`, so it starts through one urgent
        hop, as that process starts through its bootstrap, and its first
        entry takes the same ``seq``.
        """
        self.every_each(period, fn, ((arg, period if delay is None else delay),))

    def every_each(
        self,
        period: float,
        fn: Callable[[Any], None],
        delays: Iterable[Tuple[Any, float]],
    ) -> None:
        """``every(period, fn, arg, delay)`` for each ``(arg, delay)``, in order.

        The members form one periodic group with a single heap entry, due
        at the earliest member's next call.  Each call is one kernel step
        and keeps the ``seq`` the member's own timer would take: it is
        reserved when the member's previous call returns.  After a call
        the group makes the next member's call in place, with no heap
        round trip, while no urgent work is pending, that call sorts
        before the heap head and it lies within the running loop's
        horizon; otherwise it pushes its entry.  So the event order is
        exactly that of one :meth:`every` per member.

        The group starts through one urgent hop that reserves the
        members' first ``seq`` in order (making delay-0 members' first
        calls), as one hop per member would; only :attr:`steps` sees the
        difference.  With more than one member every delay must lie in
        ``[0, period]``, which keeps the members in a fixed rotation.  A
        call that raises ends only its own member.
        """
        if period <= 0:
            raise ValueError(f"timer period must be positive: {period!r}")
        members = deque(delays)
        for _arg, delay in members:
            if delay < 0:
                raise ValueError(f"negative timer delay: {delay!r}")
            if delay > period and len(members) > 1:
                raise ValueError(
                    f"group delay {delay!r} exceeds the period {period!r}"
                )
        if members:
            self._urgent.append((_start_group, _Group(self, period, fn, members)))

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # The step loop is written out in both run methods: it is the hottest
    # code in the simulator, and a method call per step costs more than
    # the duplication.

    def run(self, until: Optional[float] = None) -> float:
        """Execute events until the queue drains or ``until`` is reached.

        Returns the simulation time at which execution stopped.  An
        ``until`` behind the clock raises :class:`ValueError`: the clock
        never runs backwards.
        """
        if until is not None and until < self._now:
            raise ValueError(f"until={until} is before now={self._now}")
        self._horizon = _INF if until is None else until
        urgent, queue = self._urgent, self._queue
        popleft, heappop = urgent.popleft, heapq.heappop
        while True:
            if urgent:
                fn, arg = popleft()
            elif queue:
                if until is not None and queue[0][0] > until:
                    self._now = until
                    return until
                when, _seq, fn, arg = heappop(queue)
                if when < self._now:
                    raise RuntimeError("event scheduled in the past")
                self._now = when
            else:
                break
            self._steps += 1
            fn(arg)
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def run_until_process(self, process: Union[Process, Chain]) -> Any:
        """Run until ``process`` completes; return its value or re-raise.

        ``process`` is a :class:`Process` or a :class:`Chain` (such as a
        client read or a load generator's run): either ends by
        succeeding or failing, and a failure is raised here.
        """
        self._horizon = _INF
        urgent, queue = self._urgent, self._queue
        popleft, heappop = urgent.popleft, heapq.heappop
        while process._ok is None:
            if urgent:
                fn, arg = popleft()
            elif queue:
                when, _seq, fn, arg = heappop(queue)
                if when < self._now:
                    raise RuntimeError("event scheduled in the past")
                self._now = when
            else:
                raise RuntimeError("deadlock: process never completed")
            self._steps += 1
            fn(arg)
        # Drain the trigger's callback pass so resource state settles.
        self._horizon = self._now
        while urgent or (queue and queue[0][0] == self._now):
            if urgent:
                fn, arg = popleft()
            else:
                _when, _seq, fn, arg = heappop(queue)
            self._steps += 1
            fn(arg)
        if process._ok:
            return process._value
        raise process._value

    # -- internal scheduling ---------------------------------------------------

    def _schedule(self, when: float, fn: Callable[[Any], None], arg: Any) -> None:
        """Add a timed entry: ``fn(arg)`` runs at ``when``."""
        self._seq += 1
        heapq.heappush(self._queue, (when, self._seq, fn, arg))


class _Group:
    """The members of one :meth:`Environment.every_each` call."""

    __slots__ = ("env", "period", "fn", "pending", "due")

    def __init__(self, env: Environment, period: float,
                 fn: Callable[[Any], None], pending: Deque[Tuple[Any, float]]):
        self.env = env
        self.period = period
        self.fn = fn
        #: ``(arg, delay)`` of members the start hop has not reached.
        self.pending = pending
        #: ``(when, seq, arg)``: each started member's next call, in
        #: ``(when, seq)`` order.  A call reserves its member's next one
        #: ``period`` later, at or after every other member's, so the
        #: order holds by appending.
        self.due: Deque[Tuple[float, int, Any]] = deque()


def _start_group(group: _Group) -> None:
    """The urgent hop: reserve each member's first call, in order.

    A delay-0 member makes its first call here, then reserves the next.
    If that call raises, the members not yet reached start in a hop at
    the head of the urgent queue, where their own hops would be.
    """
    env, pending, due = group.env, group.pending, group.due
    try:
        while pending:
            arg, delay = pending.popleft()
            if delay > 0:
                env._seq += 1
                due.append((env._now + delay, env._seq, arg))
            else:
                group.fn(arg)
                env._seq += 1
                due.append((env._now + group.period, env._seq, arg))
    finally:
        if pending:
            env._urgent.appendleft((_start_group, group))
        elif due:
            group.due = due = deque(sorted(due))
            when, seq, _arg = due[0]
            heapq.heappush(env._queue, (when, seq, _fire_group, group))


def _fire_group(group: _Group) -> None:
    """Make the due member's call, then the next ones in place while allowed.

    A next call runs in place, setting the clock and counting one step
    as the run loop would, only when the loop would pop it next: no
    urgent work is pending, its ``(when, seq)`` sorts before the heap
    head, and ``when`` lies within the loop's horizon.
    """
    env, due, fn, period = group.env, group.due, group.fn, group.period
    urgent, queue, horizon = env._urgent, env._queue, env._horizon
    while True:
        arg = due.popleft()[2]
        try:
            fn(arg)
        except BaseException:
            if due:
                when, seq, _arg = due[0]
                heapq.heappush(queue, (when, seq, _fire_group, group))
            raise
        env._seq += 1
        due.append((env._now + period, env._seq, arg))
        when, seq, _arg = due[0]
        entry = (when, seq, _fire_group, group)
        if urgent or when > horizon or (queue and queue[0] < entry):
            heapq.heappush(queue, entry)
            return
        env._now = when
        env._steps += 1
