"""Flux job event stream (pub/sub).

RP's Flux executor never polls: it subscribes to the instance's job
event stream and consumes lifecycle events asynchronously (§3.2.1).
We model the stream as a fan-out of FIFO stores with a small RPC
delivery delay per event.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple

from ..sim import Environment, Store

#: Default per-event RPC delivery delay of the job event stream [s].
DELIVERY_DELAY = 0.3e-3

#: Canonical job event names (mirrors flux job-manager events).
EV_SUBMIT = "submit"
EV_ALLOC = "alloc"
EV_START = "start"
EV_FINISH = "finish"
EV_RELEASE = "release"
EV_EXCEPTION = "exception"


class JobEvent(NamedTuple):
    """One job lifecycle event as delivered to subscribers.

    A named tuple rather than a (frozen) dataclass: instances are
    created once per lifecycle transition of every job, and tuple
    construction is several times cheaper than the ``object.__setattr__``
    dance a frozen dataclass performs per field.
    """

    job_id: str
    name: str
    time: float
    meta: Dict[str, Any] = {}


class EventStream:
    """Fan-out event bus: each subscriber gets every event it asked
    for, in publication order."""

    def __init__(self, env: Environment,
                 delivery_delay: float = DELIVERY_DELAY) -> None:
        self.env = env
        self.delivery_delay = delivery_delay
        #: (sink, wanted-names) pairs; a sink is any callable taking
        #: one event (a queue's ``put`` or a plain callback); ``None``
        #: names = all events.
        self._subscribers: List[tuple] = []
        #: Union of all subscribed names (``None`` once any subscriber
        #: wants everything) — lets ``publish`` skip scheduling a
        #: delivery nobody will read, which matters because the
        #: executor only consumes 3 of the 5+ lifecycle events each job
        #: emits.
        self._wanted: Any = frozenset()

    def subscribe(self, names: Any = None) -> Store:
        """Register a new subscriber; returns its event queue.

        ``names`` optionally restricts delivery to those event names;
        events the subscriber would ignore are then never queued for
        it.
        """
        queue = Store(self.env)
        want = None if names is None else frozenset(names)
        self._subscribers.append((queue.put, want))
        self._wanted = (None if (want is None or self._wanted is None)
                        else self._wanted | want)
        return queue

    def subscribe_callback(self, fn: Any, names: Any = None) -> None:
        """Register ``fn(event)`` to be called at delivery time.

        Same delivery latency and ordering as a queue subscriber, but
        without a waiting process: the callback runs directly when the
        delivery timer fires.  ``fn`` must not block (it cannot yield);
        handlers that need to wait should use :meth:`subscribe`.
        """
        want = None if names is None else frozenset(names)
        self._subscribers.append((fn, want))
        self._wanted = (None if (want is None or self._wanted is None)
                        else self._wanted | want)

    def publish(self, job_id: str, name: str, **meta: Any) -> JobEvent:
        """Emit an event; it reaches subscribers after ``delivery_delay``."""
        event = JobEvent(job_id, name, self.env._now, meta)
        wanted = self._wanted
        if wanted is None or name in wanted:
            if self.delivery_delay > 0:
                self.env.schedule_callback(self.delivery_delay,
                                           self._deliver, event)
            else:
                self._deliver(event)
        return event

    def _deliver(self, event: JobEvent) -> None:
        name = event.name
        for sink, want in self._subscribers:
            if want is None or name in want:
                sink(event)
