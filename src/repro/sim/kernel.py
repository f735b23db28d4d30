"""The discrete-event simulation kernel.

:class:`Environment` owns the simulation clock and the pending-event
queue.  Time advances only when :meth:`Environment.run` pops the next
scheduled event; between events, time is frozen.  This lets the
runtime-system models execute workloads of hundreds of thousands of
180-second sleep tasks on a simulated 1024-node machine in
milliseconds of wall time while preserving all ordering, queueing and
contention behaviour.

Determinism
-----------
Events scheduled for the same simulated time are processed in
``(priority, insertion order)``, so two runs of the same program with
the same RNG seeds produce byte-identical traces.  This property is
exercised by the property-based tests in ``tests/sim``.

Performance
-----------
``run`` is the hottest function in the whole codebase (every
simulated event passes through it).  It normalises ``until`` to a
``(horizon, stop)`` pair once, then its one loop inlines the
single-event dispatch instead of calling :meth:`step`, binds
``heapq.heappop`` and the queue to locals, and branches on the
queue-entry shape directly.  ``step`` remains the
readable, fully-checked reference implementation used by external
callers and tests.  See ``docs/MODEL.md`` ("Performance model of the
simulator itself") for the full picture.
"""

from __future__ import annotations

from heapq import heappop
from typing import Any, List, Optional, Tuple

from ..exceptions import SimulationError
from .events import (
    AllOf,
    AnyOf,
    Event,
    NORMAL,
    Timeout,
    URGENT,
    _Deferred,
    push_entry5,
    push_event,
)
from .process import Process, ProcessGenerator, _INIT

#: Queue entries: (time, priority, sequence, event).  Two entry kinds
#: carry a 5th marker element and no Event at position 3: process
#: bootstraps (marker ``True``, see ``_enqueue_bootstrap``) and deferred
#: callbacks (marker ``False``, see ``schedule_callback``).
_QueueItem = Tuple[float, int, int, Event]

_INF = float("inf")
#: The ``stop`` of runs that await no event: it is never processed.
_NEVER = Event(None)


class Environment:
    """A discrete-event simulation environment.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock, in seconds.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List[_QueueItem] = []
        self._seq = 0
        self._active_process: Optional[Process] = None

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- event factories -----------------------------------------------------

    def event(self) -> Event:
        """Create an untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator) -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator)

    def all_of(self, events) -> AllOf:
        """Event that fires once all ``events`` have succeeded."""
        return AllOf(self, list(events))

    def any_of(self, events) -> AnyOf:
        """Event that fires once any of ``events`` has succeeded."""
        return AnyOf(self, list(events))

    def schedule(self, delay: float, callback, *args: Any) -> Event:
        """Run ``callback(*args)`` after ``delay`` seconds; returns the event.

        Negative delays are rejected by :class:`Timeout` itself — the
        single validation point for all time-based scheduling.
        """
        ev = Timeout(self, delay)
        ev.callbacks.append(_Deferred(callback, args))
        return ev

    def schedule_callback(self, delay: float, callback, *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` seconds, eventlessly.

        The fire-and-forget variant of :meth:`schedule` for hot paths
        (event-stream deliveries): the queue entry carries the bound
        callback directly, so no :class:`Timeout` and no callback list
        are allocated.  Use :meth:`schedule` when the caller needs the
        returned event (to wait on or to add further callbacks).
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        push_entry5(self, delay, NORMAL, _Deferred(callback, args), False)

    # -- kernel internals ----------------------------------------------------

    def _enqueue_event(self, event: Event, priority: int, delay: float = 0.0) -> None:
        push_event(self, delay, priority, event)

    def _enqueue_bootstrap(self, process: Process) -> None:
        """Schedule a process's first resume without allocating an Event.

        The queue entry carries the process itself plus a length-5
        marker; dispatch resumes the generator with the shared ``_INIT``
        sentinel (see :func:`~repro.sim.events.push_entry5`).
        """
        push_entry5(self, 0.0, URGENT, process, True)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def snapshot(self) -> dict:
        """The clock and the global sequence counter (how many queue
        entries the run has pushed).  Read-only."""
        return {"now": self._now, "seq": self._seq}

    def step(self) -> None:
        """Process exactly one event, advancing the clock to its time."""
        if not self._queue:
            raise SimulationError("no more events")
        entry = heappop(self._queue)
        when = entry[0]
        if when < self._now:  # pragma: no cover - defensive
            raise SimulationError("event scheduled in the past")
        self._now = when
        event = entry[3]
        if len(entry) == 5:
            if entry[4]:
                # Process bootstrap: resume the generator directly.
                event._resume(_INIT)
            else:
                # Deferred callback (schedule_callback): invoke as-is.
                event(None)
            return
        callbacks = event.callbacks
        event.callbacks = None
        assert callbacks is not None
        for cb in callbacks:
            cb(event)
        if event._ok is False and not callbacks and not event._defused:
            # A failure nobody waited for: surface it instead of silently
            # swallowing a crashed process.
            raise event._value

    def run(self, until: Optional[Any] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a finite
        number (run until that simulated time) or an :class:`Event` (run
        until it is processed, returning its value).
        """
        # The dispatch body is inlined here (and must match step()
        # semantically): calling self.step() per event instead runs a
        # kernel-only microbenchmark 4-7% slower (EXPERIMENTS.md, "One
        # dispatch loop").
        horizon, stop = self._bounds(until)
        queue = self._queue
        pop = heappop
        while queue and queue[0][0] <= horizon and stop.callbacks is not None:
            entry = pop(queue)
            self._now = entry[0]
            event = entry[3]
            if len(entry) == 5:
                if entry[4]:
                    event._resume(_INIT)
                else:
                    event(None)
                continue
            callbacks = event.callbacks
            event.callbacks = None
            for cb in callbacks:
                cb(event)
            if event._ok is False and not callbacks and not event._defused:
                raise event._value
        return self._finish(horizon, stop)

    def _bounds(self, until: Optional[Any]) -> Tuple[float, Event]:
        """Normalise ``until`` to ``(horizon, stop)``: the dispatch loop
        runs while the next event is due by ``horizon`` and ``stop`` is
        unprocessed."""
        if until is None:
            return _INF, _NEVER
        if isinstance(until, Event):
            return _INF, until
        horizon = float(until)
        if horizon < self._now:
            raise SimulationError(
                f"cannot run until {horizon} (already at {self._now})")
        if not horizon < _INF:  # inf or nan
            raise SimulationError(f"cannot run until {horizon}: horizons "
                                  f"must be finite; run() drains the queue")
        return horizon, _NEVER

    def _finish(self, horizon: float, stop: Event) -> Any:
        """The dispatch loop's epilogue: the awaited event's
        value (or failure, or deadlock), else the clock moved forward
        to a finite horizon."""
        if stop is _NEVER:
            # Only move the clock forward: run(until=now) with nothing
            # left to do must leave it bit-for-bit untouched.
            if _INF > horizon > self._now:
                self._now = horizon
            return None
        if stop.callbacks is not None:
            raise SimulationError("simulation ran out of events before "
                                  "the awaited event triggered (deadlock?)")
        if stop._ok:
            return stop._value
        if isinstance(stop._value, BaseException):
            raise stop._value
        raise SimulationError(f"awaited event failed: {stop._value!r}")
