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
simulated event passes through it), so its three loops inline the
single-event dispatch instead of calling :meth:`step`, bind
``heapq.heappop`` and the queue to locals, and branch on the
queue-entry shape directly.  ``step`` remains the readable,
fully-checked reference implementation used by external callers and
tests.  See ``docs/MODEL.md`` ("Performance model of the simulator
itself") for the full picture.
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

#: Dispatch count between firings of the telemetry probe
#: (``Environment._probe``) inside the instrumented loops.  The probe
#: itself rate-limits on wall time; the stride only bounds how often
#: that wall-clock check runs, so it can stay coarse.
PROBE_STRIDE = 4096


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
        #: Optional kernel instrumentation (see
        #: :class:`repro.observability.metrics.KernelInstrument`).
        #: ``None`` keeps the fast dispatch loops below untouched; the
        #: check happens once per :meth:`run` call, not per event.
        self._instrument = None
        #: Optional zero-argument telemetry heartbeat, called every
        #: :data:`PROBE_STRIDE` dispatches by the *instrumented* loops
        #: only (telemetry implies observability).  The probe must be
        #: read-only: no scheduling, no RNG, no clock writes — the
        #: determinism tests pin that instrumented runs with a probe
        #: attached stay byte-identical.
        self._probe = None

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
        """Structural snapshot of kernel state for checkpoint headers.

        Live Python generator frames make the event heap unpicklable,
        so a checkpoint cannot *serialize* it; what it can do is pin
        its deterministic shape: the clock, the global sequence
        counter, and a digest over every pending entry's
        ``(time, priority, seq, kind)`` signature.  Two runs of the
        same seed that agree on this snapshot at the same sim time
        have dispatched the same events in the same order — which is
        what resume-by-replay verifies against (see
        ``docs/RESILIENCE.md``).  Read-only: does not perturb the
        queue, the clock, or event ordering.
        """
        import hashlib

        signatures = []
        for entry in self._queue:
            if len(entry) == 5:
                kind = "bootstrap" if entry[4] else "callback"
            else:
                kind = "event"
            signatures.append((entry[0], entry[1], entry[2], kind))
        signatures.sort()
        digest = hashlib.sha256(
            repr(signatures).encode("utf-8")).hexdigest()
        return {
            "now": self._now,
            "seq": self._seq,
            "queue_len": len(self._queue),
            "queue_digest": digest,
        }

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

        ``until`` may be ``None`` (run until the queue drains), a number
        (run until that simulated time) or an :class:`Event` (run until
        it is processed, returning its value).
        """
        # The dispatch body is intentionally inlined in each loop (and
        # must match step() semantically): at ~1e6 events/s of kernel
        # throughput, a method call per event costs double-digit
        # percentages of total runtime.
        if self._instrument is not None:
            return self._run_instrumented(until)
        queue = self._queue
        pop = heappop

        if until is None:
            while queue:
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
            return None

        if isinstance(until, Event):
            stop = until
            while stop.callbacks is not None:  # i.e. not yet processed
                if not queue:
                    raise SimulationError(
                        "simulation ran out of events before the awaited "
                        "event triggered (deadlock?)"
                    )
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
            if stop._ok:
                return stop._value
            if isinstance(stop._value, BaseException):
                raise stop._value
            raise SimulationError(f"awaited event failed: {stop._value!r}")

        horizon = float(until)
        if horizon < self._now:
            raise SimulationError(
                f"cannot run until {horizon} (already at {self._now})"
            )
        while queue and queue[0][0] <= horizon:
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
        if horizon > self._now:
            # Only move the clock forward; run(until=now) with nothing
            # left to do must leave the clock bit-for-bit untouched.
            self._now = horizon
        return None

    def _run_instrumented(self, until: Optional[Any] = None) -> Any:
        """The metered twin of :meth:`run` (observability enabled).

        Mirrors ``run``'s inlined dispatch loops exactly — nothing here
        touches event ordering, RNG state or the clock beyond what
        ``run`` does, so instrumented runs produce byte-identical
        traces.  The metering itself is O(1) per ``run()`` call, not
        per event: kind counts and queue-depth extremes accumulate in
        plain locals and are folded into the registry once, via
        :meth:`KernelInstrument.flush`, when the loop exits.
        """
        from time import perf_counter

        ins = self._instrument
        queue = self._queue
        pop = heappop
        n_events = n_bootstraps = n_callbacks = 0
        depth_max = depth_last = 0
        depth_min = -1  # -1 = no event dispatched yet
        sim0 = self._now
        wall0 = perf_counter()
        probe = self._probe
        # inf sentinel: with no probe the countdown never reaches zero,
        # so the per-event cost is one subtract and one compare.
        stride = PROBE_STRIDE if probe is not None else float("inf")
        tick = stride
        try:
            if until is None:
                while queue:
                    tick -= 1.0
                    if tick <= 0.0:
                        probe()
                        tick = stride
                    depth_last = len(queue)
                    if depth_last > depth_max:
                        depth_max = depth_last
                    if depth_min < 0 or depth_last < depth_min:
                        depth_min = depth_last
                    entry = pop(queue)
                    self._now = entry[0]
                    event = entry[3]
                    if len(entry) == 5:
                        if entry[4]:
                            n_bootstraps += 1
                            event._resume(_INIT)
                        else:
                            n_callbacks += 1
                            event(None)
                        continue
                    n_events += 1
                    callbacks = event.callbacks
                    event.callbacks = None
                    for cb in callbacks:
                        cb(event)
                    if event._ok is False and not callbacks and not event._defused:
                        raise event._value
                return None

            if isinstance(until, Event):
                stop = until
                while stop.callbacks is not None:
                    if not queue:
                        raise SimulationError(
                            "simulation ran out of events before the "
                            "awaited event triggered (deadlock?)"
                        )
                    tick -= 1.0
                    if tick <= 0.0:
                        probe()
                        tick = stride
                    depth_last = len(queue)
                    if depth_last > depth_max:
                        depth_max = depth_last
                    if depth_min < 0 or depth_last < depth_min:
                        depth_min = depth_last
                    entry = pop(queue)
                    self._now = entry[0]
                    event = entry[3]
                    if len(entry) == 5:
                        if entry[4]:
                            n_bootstraps += 1
                            event._resume(_INIT)
                        else:
                            n_callbacks += 1
                            event(None)
                        continue
                    n_events += 1
                    callbacks = event.callbacks
                    event.callbacks = None
                    for cb in callbacks:
                        cb(event)
                    if event._ok is False and not callbacks and not event._defused:
                        raise event._value
                if stop._ok:
                    return stop._value
                if isinstance(stop._value, BaseException):
                    raise stop._value
                raise SimulationError(
                    f"awaited event failed: {stop._value!r}")

            horizon = float(until)
            if horizon < self._now:
                raise SimulationError(
                    f"cannot run until {horizon} (already at {self._now})"
                )
            while queue and queue[0][0] <= horizon:
                tick -= 1.0
                if tick <= 0.0:
                    probe()
                    tick = stride
                depth_last = len(queue)
                if depth_last > depth_max:
                    depth_max = depth_last
                if depth_min < 0 or depth_last < depth_min:
                    depth_min = depth_last
                entry = pop(queue)
                self._now = entry[0]
                event = entry[3]
                if len(entry) == 5:
                    if entry[4]:
                        n_bootstraps += 1
                        event._resume(_INIT)
                    else:
                        n_callbacks += 1
                        event(None)
                    continue
                n_events += 1
                callbacks = event.callbacks
                event.callbacks = None
                for cb in callbacks:
                    cb(event)
                if event._ok is False and not callbacks and not event._defused:
                    raise event._value
            if horizon > self._now:
                self._now = horizon
            return None
        finally:
            ins.flush(n_events, n_bootstraps, n_callbacks,
                      depth_max, depth_min, depth_last)
            ins.account(self._now - sim0, perf_counter() - wall0)
