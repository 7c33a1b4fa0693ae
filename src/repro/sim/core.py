"""Core event loop: environment, events, timeouts, and processes.

The engine executes a classic discrete-event loop: events are scheduled
at absolute simulated times, popped in time order, and their callbacks
run with the clock set to the event's time.  Processes are Python
generators that ``yield`` events to wait on them; a process is itself an
event that triggers when its generator returns.

The design mirrors simpy's public surface (``Environment.process``,
``timeout``, ``run(until=...)``, ``AnyOf``/``AllOf``, ``Interrupt``) so
that the component models in the rest of the package read naturally, but
the implementation here is self-contained and dependency-free.

Every pending event is popped in the exact ``(time, priority, insertion
id)`` total order.  The environment owns one calendar/bucket queue
(:mod:`repro.sim.calendar`, O(1) amortized insert and pop at fleet
scale) and keeps its hottest traffic out of it:

* ``URGENT`` events (process starts, interrupts, resumes on events that
  are already over) are always due *now* and ahead of everything else,
  so they wait as bare events in a FIFO deque — no tuple, no insertion
  id, no comparison.
* Delay-0 ``NORMAL`` events (``succeed``, process completion) are
  appended straight onto the queue's FIFO immediate region.

Each ``run()`` mode is one fused loop: pop, advance the clock, run the
callbacks, in a single frame per event.  Bulk producers (trace replay,
batched arrival injection) should prefer
:meth:`Environment.schedule_batch` / :meth:`Environment.timeout_batch`,
which insert N pre-sorted events in one queue pass.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import (
    Any,
    Callable,
    Deque,
    Generator,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.sim.calendar import GROW_FACTOR, MAX_BUCKETS, CalendarQueue

#: Event priorities: interrupts must preempt normal callbacks scheduled
#: for the same instant, so they are queued with ``URGENT`` priority.
URGENT = 0
NORMAL = 1


class SimulationError(Exception):
    """Raised for misuse of the engine (e.g. running an empty queue)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    ``cause`` carries the interrupter's reason (any object).
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


#: First-class name for the exception a cancelled process catches.
#: ``Interrupt`` mirrors simpy; cancellation sites in the platform code
#: read better catching ``Interrupted`` (same class, both importable).
Interrupted = Interrupt


# Event lifecycle states.  The engine compares them by identity.
PENDING = "pending"
TRIGGERED = "triggered"
PROCESSED = "processed"

_new = object.__new__


class Event:
    """A condition that may occur at some point in simulated time.

    An event starts *pending*.  It becomes *triggered* when given a value
    (:meth:`succeed`) or an exception (:meth:`fail`) and scheduled, and
    *processed* once its callbacks have run.  Processes wait on events by
    yielding them.
    """

    # Events are the engine's unit of allocation — tens of thousands per
    # simulated second — so every subclass stays dict-free via __slots__.
    __slots__ = ("env", "callbacks", "_value", "_ok", "_state", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: bool = True
        self._state: str = PENDING
        #: Set when a failure was delivered to at least one waiter (or
        #: explicitly defused); prevents "unhandled failure" noise.
        self._defused = False

    # -- introspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._state is not PENDING

    @property
    def processed(self) -> bool:
        return self._state is PROCESSED

    @property
    def ok(self) -> bool:
        if self._state is PENDING:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._state is PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering ---------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self._state = TRIGGERED
        env = self.env
        env._eid = eid = env._eid + 1
        env._immediate.append((env.now, NORMAL, eid, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Any process waiting on the event will have the exception raised
        at its ``yield``.
        """
        if self._state is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self._state = TRIGGERED
        env = self.env
        env._eid = eid = env._eid + 1
        env._immediate.append((env.now, NORMAL, eid, self))
        return self

    def __repr__(self) -> str:
        return f"<{type(self).__name__} at {id(self):#x} state={self._state}>"


class Timeout(Event):
    """An event that triggers ``delay`` milliseconds in the future.

    ``Timeout(env, delay, value)`` is :meth:`Environment.timeout`, which
    builds and schedules the event in one frame.
    """

    __slots__ = ("delay",)

    def __new__(cls, env: "Environment", delay: float, value: Any = None):
        return env.timeout(delay, value)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        pass  # already built and scheduled by ``__new__``


class Initialize(Event):
    """The urgent event that starts a freshly created process."""

    __slots__ = ()


class Process(Event):
    """A running generator; also an event that triggers on its return.

    The generator yields :class:`Event` objects to wait on them.  When a
    yielded event triggers, the generator is resumed with the event's
    value (or the event's exception is thrown into it).  The value of
    the generator's ``return`` statement becomes the process's value.
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not hasattr(generator, "send"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        start = _new(Initialize)
        start.env = env
        start.callbacks = [self._resume]
        start._value = None
        start._ok = True
        start._state = TRIGGERED
        start._defused = False
        env._urgent.append(start)

    @property
    def is_alive(self) -> bool:
        return self._state is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process as soon as possible."""
        if self._state is not PENDING:
            raise SimulationError("cannot interrupt a finished process")
        if self._generator.gi_running:
            raise SimulationError("a process cannot interrupt itself")
        interruption = Event(self.env)
        interruption._ok = False
        interruption._value = Interrupt(cause)
        interruption._state = TRIGGERED
        interruption._defused = True
        interruption.callbacks.append(self._resume)
        self.env._urgent.append(interruption)

    def cancel(self, cause: Any = None) -> bool:
        """Interrupt the process if it is still alive.

        The tolerant form of :meth:`interrupt` for cancellation races:
        cancelling work that already finished (or that is the currently
        running process) is a no-op rather than an error.  Returns
        whether an interrupt was actually delivered.
        """
        if self._state is not PENDING or self._generator.gi_running:
            return False
        self.interrupt(cause)
        return True

    def _resume(self, event: Event) -> None:
        if self._state is not PENDING:
            # A late interrupt raced with completion (two cancellers at
            # the same instant): the generator already returned, so
            # there is nothing left to throw into.
            return
        # If we were interrupted while waiting, detach from the old target
        # so its eventual trigger does not resume us twice.
        target = self._target
        if target is not event and target is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass

        env = self.env
        env._active_process = self
        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                event._defused = True
                next_event = self._generator.throw(event._value)
        except StopIteration as stop:
            env._active_process = None
            self._ok = True
            self._value = stop.value
        except BaseException as exc:
            env._active_process = None
            self._ok = False
            self._value = exc
        else:
            env._active_process = None
            if not isinstance(next_event, Event):
                raise SimulationError(
                    f"process yielded non-event {next_event!r}; "
                    f"yield Event objects"
                )
            if next_event._state is PROCESSED:
                # Already over: resume at the head of the next iteration.
                immediate = Event(env)
                immediate._ok = next_event._ok
                immediate._value = next_event._value
                immediate._state = TRIGGERED
                if not next_event._ok:
                    immediate._defused = True
                    next_event._defused = True
                immediate.callbacks.append(self._resume)
                env._urgent.append(immediate)
                next_event = immediate
            else:
                next_event.callbacks.append(self._resume)
            self._target = next_event
            return
        # The generator returned or raised: the process triggers now.
        self._target = None
        self._state = TRIGGERED
        env._eid = eid = env._eid + 1
        env._immediate.append((env.now, NORMAL, eid, self))


class Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf` composite events.

    A component event counts once it is *processed* (its callbacks have
    run), not merely scheduled — a freshly created Timeout is scheduled
    immediately but must not satisfy a condition until it fires.
    """

    __slots__ = ("_events", "_outstanding")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = events = list(events)
        for event in events:
            if event.env is not env:
                raise SimulationError("events belong to different environments")
        #: Components not yet seen processed; each decrements it once.
        self._outstanding = len(events)
        check = self._check
        for event in events:
            if event._state is not PROCESSED:
                event.callbacks.append(check)
        # Only once every pending component is subscribed: a condition
        # settled here must still defuse their later failures.
        for event in events:
            if event._state is PROCESSED:
                check(event)
        if not events:
            self.succeed({})

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    def _settle(self) -> dict:
        """Detach the settled condition; return its processed values.

        Unsubscribes from every component already triggered OK (a
        scheduled timeout, a finished process): it can no longer fail,
        so it needs no defusing, and left subscribed it would keep this
        condition — and through ``_events`` every other component, such
        as the process that won a deadline race — alive until it fires.
        It still fires, as an empty event, so event counts and insertion
        ids are unchanged.  Pending components stay subscribed: their
        later failure must still be defused.
        """
        check = self._check
        values = {}
        for event in self._events:
            state = event._state
            if state is PROCESSED:
                values[event] = event._value
            elif state is TRIGGERED and event._ok:
                event.callbacks.remove(check)
        return values


class AllOf(Condition):
    """Triggers once every component event has been processed OK.

    Fails as soon as any component fails.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if not event._ok:
            event._defused = True
            if self._state is PENDING:
                self.fail(event._value)
                self._settle()
            return
        self._outstanding -= 1
        if not self._outstanding and self._state is PENDING:
            self.succeed(self._settle())


class AnyOf(Condition):
    """Triggers as soon as any component event is processed."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if not event._ok:
            event._defused = True
            if self._state is PENDING:
                self.fail(event._value)
                self._settle()
        elif self._state is PENDING:
            self.succeed(self._settle())


class Environment:
    """The simulation clock and its pending events."""

    def __init__(self, initial_time: float = 0.0) -> None:
        #: Current simulated time in milliseconds.  A plain attribute,
        #: not a property: models read it millions of times per sweep.
        #: Only the engine advances it.
        self.now = float(initial_time)
        self._pending = CalendarQueue(start=self.now)
        #: The queue's FIFO region for delay-0 NORMAL entries; triggered
        #: events and finished processes are appended to it directly.
        self._immediate = self._pending._immediate
        #: URGENT events, due now ahead of everything else: bare events.
        self._urgent: Deque[Event] = deque()
        self._eid = 0
        self._active_process: Optional[Process] = None
        self._events_processed = 0

    @property
    def events_processed(self) -> int:
        """Total events processed since construction (a cost measure)."""
        return self._events_processed

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- factories ----------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that triggers ``delay`` milliseconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        timeout = _new(Timeout)
        timeout.env = self
        timeout.callbacks = []
        timeout._value = value
        timeout._ok = True
        timeout._state = TRIGGERED
        timeout._defused = False
        timeout.delay = delay
        self._eid = eid = self._eid + 1
        now = self.now
        if not delay:
            self._immediate.append((now, NORMAL, eid, timeout))
            return timeout
        # CalendarQueue.push inlined for its non-immediate regions:
        # timeouts are the engine's busiest insert.
        when = now + delay
        pending = self._pending
        idx = int((when - pending._base) / pending._width)
        pending._size = size = pending._size + 1
        if idx <= pending._active:
            heappush(pending._near, (when, NORMAL, eid, timeout))
            return timeout
        nbuckets = pending._nbuckets
        if idx < nbuckets:
            pending._buckets[idx].append((when, NORMAL, eid, timeout))
        else:
            heappush(pending._overflow, (when, NORMAL, eid, timeout))
        if size > GROW_FACTOR * nbuckets and nbuckets < MAX_BUCKETS:
            pending._resize(now)
        return timeout

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------
    def schedule_batch(self, items: Iterable[Tuple[float, Event]]) -> None:
        """Schedule pre-triggered events at ascending absolute times.

        ``items`` yields ``(when, event)`` pairs sorted by ``when``
        ascending, with every ``when >= now``.  The batch is inserted in
        one queue pass, assigning insertion ids in iteration order — so
        the resulting schedule is exactly what N sequential
        single-event schedules at ``when - now`` would have built, at a
        fraction of the cost.

        The events must already carry their value/outcome (like a
        Timeout does); the engine will fire them as-is.
        """
        now = self.now
        eid = self._eid
        entries: List[Tuple[float, int, int, Event]] = []
        append = entries.append
        last = now
        for when, event in items:
            if when < last:
                raise ValueError(
                    f"schedule_batch times must be ascending and >= now "
                    f"(got {when} after {last})"
                )
            last = when
            if event._state is PENDING:
                event._state = TRIGGERED
            eid += 1
            append((when, NORMAL, eid, event))
        self._eid = eid
        self._pending.push_sorted(entries, now)

    def timeout_batch(
        self,
        delays: Sequence[float],
        value: Any = None,
        callback: Optional[Callable[[Event], None]] = None,
    ) -> List[Timeout]:
        """Create N timeouts from ascending delays in one queue pass.

        Equivalent to ``[self.timeout(d, value) for d in delays]`` —
        same objects, same firing order, same insertion ids — but the
        queue insert is a single bulk pass and the per-timeout
        constructor overhead is stripped.  ``delays`` must be sorted
        ascending and non-negative.

        ``callback``, when given, is pre-seeded as each timeout's first
        callback — the same effect as appending it to every returned
        timeout, without a second million-element pass at fleet scale.
        """
        now = self.now
        eid = self._eid
        timeouts: List[Timeout] = []
        entries: List[Tuple[float, int, int, Event]] = []
        t_append = timeouts.append
        e_append = entries.append
        prev = 0.0
        for delay in delays:
            if delay < prev:
                if delay < 0:
                    raise ValueError(f"negative delay {delay}")
                raise ValueError(
                    f"timeout_batch delays must be ascending "
                    f"(got {delay} after {prev})"
                )
            prev = delay
            timeout = _new(Timeout)
            timeout.env = self
            timeout.callbacks = [] if callback is None else [callback]
            timeout._value = value
            timeout._ok = True
            timeout._state = TRIGGERED
            timeout._defused = False
            timeout.delay = delay
            eid += 1
            e_append((now + delay, NORMAL, eid, timeout))
            t_append(timeout)
        self._eid = eid
        self._pending.push_sorted(entries, now)
        return timeouts

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._urgent:
            return self.now
        head = self._pending.head()
        return head[0] if head is not None else float("inf")

    def step(self) -> None:
        """Process the single next event."""
        if self._urgent:
            event = self._urgent.popleft()
        else:
            try:
                self.now, _, _, event = self._pending.pop()
            except IndexError:
                raise SimulationError("event queue is empty") from None
        self._events_processed += 1
        callbacks, event.callbacks = event.callbacks, []
        event._state = PROCESSED
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            raise event._value

    def run(self, until: Any = None, limit: Optional[int] = None) -> Any:
        """Run until ``until`` (a time, an event, or queue exhaustion).

        * ``until`` is ``None``: run until no events remain.
        * ``until`` is a number: run until the clock reaches it.
        * ``until`` is an :class:`Event`: run until it is processed and
          return its value (raising its exception if it failed).

        ``limit`` bounds the number of events processed by this call —
        a guard against accidentally unbounded simulations (e.g. a
        monitor process that never stops).

        Each mode is one loop with :meth:`step`'s body inlined: urgent
        events pop straight off their deque, the rest off the calendar
        queue, and the processed count is written back once, in a
        ``finally``, so it stays exact when a callback raises.
        """
        budget = limit if limit is not None else -1
        count = 0
        urgent = self._urgent
        popleft = urgent.popleft
        pending = self._pending
        pop = pending.pop

        if isinstance(until, Event):
            try:
                while until._state is not PROCESSED:
                    if count == budget and (urgent or pending):
                        raise SimulationError(
                            f"event limit of {limit} reached at t={self.now}"
                        )
                    if urgent:
                        event = popleft()
                    else:
                        try:
                            self.now, _, _, event = pop()
                        except IndexError:
                            raise SimulationError(
                                "event queue empty before target event "
                                "triggered"
                            ) from None
                    count += 1
                    callbacks = event.callbacks
                    event.callbacks = []
                    event._state = PROCESSED
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        if event is not until:
                            raise event._value
            finally:
                self._events_processed += count
            if not until._ok:
                until._defused = True
                raise until._value
            return until._value

        if until is None:
            try:
                while True:
                    if count == budget and (urgent or pending):
                        raise SimulationError(
                            f"event limit of {limit} reached at t={self.now}"
                        )
                    if urgent:
                        event = popleft()
                    else:
                        try:
                            self.now, _, _, event = pop()
                        except IndexError:
                            return None
                    count += 1
                    callbacks = event.callbacks
                    event.callbacks = []
                    event._state = PROCESSED
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        raise event._value
            finally:
                self._events_processed += count

        deadline = float(until)
        if deadline < self.now:
            raise ValueError(f"until={deadline} is in the past (now={self.now})")
        head = pending.head
        try:
            while True:
                if not urgent:
                    entry = head()
                    if entry is None or entry[0] > deadline:
                        break
                if count == budget:
                    raise SimulationError(
                        f"event limit of {limit} reached at t={self.now}"
                    )
                if urgent:
                    event = popleft()
                else:
                    self.now, _, _, event = pop()
                count += 1
                callbacks = event.callbacks
                event.callbacks = []
                event._state = PROCESSED
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
        finally:
            self._events_processed += count
        self.now = deadline
        return None
