"""Hierarchical sim-time spans over the runtime's task lifecycle.

A :class:`Span` is a named sim-time interval with a parent, children
and attributes.  Spans have one source: :func:`spans_from_events`
reconstructs the session → pilot → backend → task → phase hierarchy
from the flat :class:`~repro.analytics.events.TraceEvent` stream the
:class:`~repro.analytics.profiler.Profiler` records.  Every span is
therefore a pure function of the profile — a bundle's ``spans.json``
can always be rebuilt from its ``profile.jsonl`` — and observing a
run never touches the simulation.

The per-task phase taxonomy maps the four intervals the trace makes
observable (cf. RADICAL-Analytics' state-transition durations):

========== ============================== ==========================
phase      boundary events                what it measures
========== ============================== ==========================
schedule   task_created -> task_scheduled  TMGR accept + agent
                                           dispatch + staging-in
launch     task_scheduled -> exec_start    backend queueing + launch
exec       exec_start -> exec_stop         payload runtime
collect    exec_stop -> final state        completion collection +
                                           staging-out
========== ============================== ==========================

Phase boundaries are clamped monotonically, so the phase durations of
any task sum *exactly* to its lifetime (first event -> final event) —
the invariant the observability tests pin.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Any, Dict, Iterable, Iterator, List, Optional, Tuple,
)

from ..analytics import events as tev

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analytics.events import TraceEvent

#: Span categories, used as Perfetto track/categorisation keys.
CAT_SESSION = "session"
CAT_PILOT = "pilot"
CAT_BACKEND = "backend"
CAT_TASK = "task"
CAT_PHASE = "phase"

#: Task phase names, in lifecycle order.
PHASES: Tuple[str, ...] = ("schedule", "launch", "exec", "collect")

_FINAL_EVENTS = {tev.TASK_DONE, tev.TASK_FAILED, tev.TASK_CANCELED}


class Span:
    """One named sim-time interval in the span tree."""

    __slots__ = ("name", "cat", "start", "end", "parent", "children",
                 "attrs")

    def __init__(self, name: str, cat: str, start: float,
                 end: Optional[float] = None,
                 parent: Optional["Span"] = None,
                 attrs: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.cat = cat
        self.start = start
        self.end = end
        self.parent = parent
        self.children: List[Span] = []
        self.attrs: Dict[str, Any] = attrs or {}
        if parent is not None:
            parent.children.append(self)

    @property
    def duration(self) -> float:
        """Length [s]; open spans report 0 until closed."""
        return (self.end - self.start) if self.end is not None else 0.0

    def child(self, name: str, cat: str, start: float,
              end: Optional[float] = None, **attrs: Any) -> "Span":
        return Span(name, cat, start, end, parent=self, attrs=attrs)

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for c in self.children:
            yield from c.walk()

    def find(self, cat: str) -> List["Span"]:
        """All descendant spans (incl. self) of one category."""
        return [s for s in self.walk() if s.cat == cat]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready nested representation (bundle ``spans.json``)."""
        return {
            "name": self.name,
            "cat": self.cat,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
            "children": [c.to_dict() for c in self.children],
        }

    def __repr__(self) -> str:
        end = f"{self.end:.4f}" if self.end is not None else "..."
        return f"<Span {self.cat}:{self.name} [{self.start:.4f}, {end}]>"


def _task_boundaries(events: List["TraceEvent"]
                     ) -> Optional[Tuple[List[float], str, Optional[str]]]:
    """(phase boundaries b0..b4, final event name, backend) for a task.

    Boundaries are clamped to be monotonic: a missing intermediate
    event collapses its phase to zero length instead of breaking the
    sum-to-lifetime invariant.  Retried tasks use the first schedule /
    first exec-start / last exec-stop, so retry round-trips show up in
    the launch and exec phases.
    """
    created = scheduled = exec_start = exec_stop = None
    final_t = None
    final_name = None
    backend = None
    for ev in events:
        name = ev.name
        if name == tev.TASK_CREATED:
            if created is None:
                created = ev.time
        elif name == tev.TASK_SCHEDULED:
            if scheduled is None:
                scheduled = ev.time
        elif name == tev.TASK_EXEC_START:
            if exec_start is None:
                exec_start = ev.time
        elif name == tev.TASK_EXEC_STOP:
            exec_stop = ev.time
        if name in _FINAL_EVENTS:
            final_t = ev.time
            final_name = name
        b = ev.meta.get("backend")
        if b:
            backend = b
    if created is None:
        created = events[0].time
    if final_t is None:
        # Task never finalized (e.g. still running when the profile
        # was cut): close the span at its last event.
        final_t = events[-1].time
        final_name = "open"
    b0 = created
    b1 = scheduled if scheduled is not None else b0
    b1 = max(b1, b0)
    b2 = exec_start if exec_start is not None else b1
    b2 = max(b2, b1)
    b3 = exec_stop if exec_stop is not None else b2
    b3 = min(max(b3, b2), final_t) if final_t >= b2 else max(b3, b2)
    b4 = max(final_t, b3)
    return [b0, b1, b2, b3, b4], final_name, backend


def spans_from_events(events: Iterable["TraceEvent"],
                      session_uid: str = "session") -> Span:
    """Reconstruct the span hierarchy from a flat trace-event stream.

    Returns the session root span.  The hierarchy is

        session -> pilot(s) -> backend groups -> tasks -> phases

    with backend *instances* (each Flux partition, each Dragon
    runtime, the srun facility) as ``backend`` spans carrying their
    bootstrap sub-span, and each task attached to the group of the
    backend that executed it (tasks that never reached a backend hang
    off the pilot directly under the ``"unrouted"`` group).
    """
    events = list(events)
    if not events:
        return Span(session_uid, CAT_SESSION, 0.0, 0.0)

    by_entity: Dict[str, List] = {}
    for ev in events:
        by_entity.setdefault(ev.entity, []).append(ev)

    t_lo = min(ev.time for ev in events)
    t_hi = max(ev.time for ev in events)
    root = Span(session_uid, CAT_SESSION, t_lo, t_hi)

    # -- pilots ----------------------------------------------------------
    pilots: List[Span] = []
    for entity, evs in by_entity.items():
        names = {ev.name for ev in evs}
        if tev.PILOT_ACTIVE not in names and tev.PILOT_DONE not in names:
            continue
        start = evs[0].time
        done = [ev for ev in evs if ev.name == tev.PILOT_DONE]
        end = done[-1].time if done else t_hi
        active = [ev for ev in evs if ev.name == tev.PILOT_ACTIVE]
        span = root.child(entity, CAT_PILOT, start, end)
        if active:
            span.attrs["nodes"] = active[0].meta.get("nodes")
        pilots.append(span)
    anchor = pilots[0] if len(pilots) == 1 else root

    # -- backend instances ----------------------------------------------
    backend_names = {tev.BACKEND_START, tev.BACKEND_READY,
                     tev.BACKEND_STOP, tev.BACKEND_FAILED}
    groups: Dict[str, Span] = {}

    def group(kind: str) -> Span:
        span = groups.get(kind)
        if span is None:
            span = anchor.child(kind, "backend_group", t_lo, t_hi)
            groups[kind] = span
        return span

    for entity, evs in by_entity.items():
        bevs = [ev for ev in evs if ev.name in backend_names]
        if not bevs:
            continue
        kind = bevs[0].meta.get("kind") or entity.rsplit(".", 1)[-1]
        start = bevs[0].time
        stops = [ev for ev in bevs
                 if ev.name in (tev.BACKEND_STOP, tev.BACKEND_FAILED)]
        end = stops[-1].time if stops else t_hi
        span = group(kind).child(entity, CAT_BACKEND, start, end,
                                 kind=kind)
        ready = [ev for ev in bevs if ev.name == tev.BACKEND_READY]
        if ready:
            span.child("bootstrap", CAT_PHASE, start, ready[0].time)
            # Sorted, as the profile file stores metas, so a tree built
            # from live events equals one built from the saved profile.
            span.attrs.update(sorted(
                (k, v) for k, v in ready[0].meta.items() if k != "kind"))
        if any(ev.name == tev.BACKEND_FAILED for ev in bevs):
            span.attrs["failed"] = True

    # -- tasks + phases ---------------------------------------------------
    task_names = {tev.TASK_CREATED, tev.TASK_SCHEDULED, tev.TASK_EXEC_START,
                  tev.TASK_EXEC_STOP} | _FINAL_EVENTS
    for entity, evs in by_entity.items():
        tevs = [ev for ev in evs if ev.name in task_names]
        if not tevs:
            continue
        bounds, final_name, backend = _task_boundaries(tevs)
        b0, b1, b2, b3, b4 = bounds
        parent = group(backend) if backend else group("unrouted")
        span = parent.child(entity, CAT_TASK, b0, b4,
                            final=final_name, backend=backend)
        span.child("schedule", CAT_PHASE, b0, b1)
        span.child("launch", CAT_PHASE, b1, b2)
        if b3 > b2 or final_name == tev.TASK_DONE:
            span.child("exec", CAT_PHASE, b2, b3)
        span.child("collect", CAT_PHASE, b3, b4)

    return root


def spans_from_profiler(profiler, session_uid: str = "session") -> Span:
    """Convenience wrapper: reconstruct spans from a live profiler."""
    return spans_from_events(iter(profiler), session_uid=session_uid)


def phase_rollup(root: Span) -> Dict[str, Dict[str, float]]:
    """Aggregate task-phase durations across the whole span tree.

    Returns ``{phase: {count, total, mean, max}}`` for the four task
    phases — the derived durations (schedule wait, launch latency,
    execution time, collection) the paper's characterization uses.
    """
    acc: Dict[str, List[float]] = {p: [] for p in PHASES}
    for task in root.find(CAT_TASK):
        for phase in task.children:
            if phase.cat == CAT_PHASE and phase.name in acc:
                acc[phase.name].append(phase.duration)
    out: Dict[str, Dict[str, float]] = {}
    for phase, durations in acc.items():
        n = len(durations)
        total = sum(durations)
        out[phase] = {
            "count": float(n),
            "total": total,
            "mean": total / n if n else 0.0,
            "max": max(durations) if durations else 0.0,
        }
    return out
