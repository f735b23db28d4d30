"""Critical-path extraction over a run's span tree.

The span hierarchy (session → pilot → backend group → backend → task
→ phase, see :mod:`repro.observability.spans`) records *where* time
went; the critical path answers *what actually gated the makespan*:
the chain of spans ending latest at every level, from the session
root down to the leaf phase whose completion released the final
result.  On a healthy run that is the last-finishing task's collect
phase; on a degraded one it may be a backend that bootstrapped late,
or a pilot that came up late, which shows as the session root's
exclusive time — the chain makes the blocker and its per-level
contribution explicit.

Spans are consumed duck-typed (``name``/``cat``/``start``/``end``/
``children`` attributes), so this module works on the
:class:`~repro.observability.spans.Span` trees that
:func:`~repro.observability.spans.spans_from_events` rebuilds from a
profile, and on anything shaped like them — without importing the
observability package (the dependency points the other way:
observability builds on analytics).

The walk is deterministic: a child qualifies for the chain only if it
ends at-or-after its parent (earlier-ending children cannot gate the
parent's completion); among qualifiers the latest-ending wins, ties
broken by the longest continuing chain (so the path reaches the task
and phase leaves instead of stopping at a container span), then by
latest start, then by name — the same tree always yields the same
chain (``trace critical`` reruns are reproducible, and the fixture
test pins the exact chain).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List

__all__ = ["CriticalStep", "critical_path", "format_critical_path"]


@dataclass(frozen=True)
class CriticalStep:
    """One level of the blocking chain."""

    name: str
    cat: str
    start: float
    end: float
    duration: float       #: inclusive span length [s]
    #: Time this level contributed *beyond* its on-path child [s]:
    #: ``duration - child.duration``, clamped at zero (a child may
    #: start before its parent in grafted trees).  For the leaf this
    #: is the whole duration.  The exclusive column is where to look
    #: for the actual blocker.
    exclusive: float
    depth: int            #: 0 = root


def _closed(span: Any) -> bool:
    return getattr(span, "end", None) is not None


def _gating(span: Any) -> List[Any]:
    """Children that can gate ``span``'s completion: closed and ending
    at-or-after it (grafted subtrees may legitimately overhang)."""
    return [c for c in span.children if _closed(c) and c.end >= span.end]


def _chain_len(span: Any, memo: dict) -> int:
    """Longest gating chain rooted at ``span`` (memoized by id)."""
    key = id(span)
    length = memo.get(key)
    if length is None:
        tails = _gating(span)
        length = 1 + (max(_chain_len(c, memo) for c in tails)
                      if tails else 0)
        memo[key] = length
    return length


def critical_path(root: Any) -> List[CriticalStep]:
    """The root→leaf chain of spans that gated the run's completion.

    At each level the on-path child is chosen among the gating
    children (closed, ending at-or-after the parent) by latest
    ``end``, then longest continuing chain, then latest ``start``,
    then greatest ``name``; the walk stops when no child gates the
    parent — its own tail was the blocker.  Open spans never gate a
    finished run and are skipped.  Returns one :class:`CriticalStep`
    per level, root first.
    """
    steps: List[CriticalStep] = []
    memo: dict = {}
    span = root
    depth = 0
    while span is not None and _closed(span):
        child = max(
            _gating(span),
            key=lambda c: (c.end, _chain_len(c, memo), c.start, c.name),
            default=None)
        duration = span.end - span.start
        exclusive = (max(duration - (child.end - child.start), 0.0)
                     if child is not None else duration)
        steps.append(CriticalStep(
            name=span.name, cat=getattr(span, "cat", "span"),
            start=span.start, end=span.end, duration=duration,
            exclusive=exclusive, depth=depth))
        span = child
        depth += 1
    return steps


def format_critical_path(steps: List[CriticalStep]) -> str:
    """Fixed-width table of the chain, indented by depth."""
    from .report import format_table

    rows = [("  " * step.depth + step.name, step.cat, step.start,
             step.end, step.duration, step.exclusive)
            for step in steps]
    return format_table(
        ["span", "cat", "start[s]", "end[s]", "dur[s]", "excl[s]"], rows)
