"""The trace recorder shared by all stack components.

One :class:`Profiler` exists per session.  Components call
:meth:`Profiler.record`; analysis code queries with
:meth:`Profiler.events_named` / :meth:`Profiler.timeline` or converts
to numpy arrays for the metric functions.
"""

from __future__ import annotations

from pathlib import Path
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterator, List,
                    Optional)

import numpy as np

from .events import TraceEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.kernel import Environment

#: Default number of in-memory events before a spilling profiler
#: writes a chunk to disk (~40 MB of records at typical meta sizes).
SPILL_THRESHOLD = 200_000

#: Records between firings of an attached telemetry probe (see
#: :meth:`Profiler.attach_probe`).  The probe rate-limits on wall time
#: itself; the stride only bounds how often that check runs.
PROBE_STRIDE = 4096


class Profiler:
    """Append-only trace store keyed by event name and entity.

    ``record`` sits on the per-task hot path (5+ events per task), so
    it does the minimum possible work: construct the record and append
    it to one list.  The by-name / by-entity indexes that the query
    methods need are built lazily, catching up on the un-indexed tail
    the first time a query runs after new records arrived.  Spilling
    and the telemetry probe share one per-record compare against
    ``_mark``, the in-memory length at which :meth:`_tick` next has
    work; with neither armed it is infinity.

    Parameters
    ----------
    spill_dir:
        Streaming mode for full-machine runs whose traces do not fit
        in memory: every ``spill_threshold`` records the in-memory
        tail is flushed to a chunked JSONL file (standard profile
        record format, no header) under this directory, bounding RSS
        at O(threshold) regardless of run size.  Queries transparently
        re-read the chunks — lazily, keeping only matching events —
        and :func:`~repro.analytics.export.save_profile` concatenates
        the chunks verbatim, so exported profiles are byte-identical
        to the in-memory profiler's.
    """

    def __init__(self, env: "Environment",
                 spill_dir: Optional[Any] = None,
                 spill_threshold: int = SPILL_THRESHOLD) -> None:
        self._env = env
        self._events: List[TraceEvent] = []
        self._by_name: Dict[str, List[TraceEvent]] = {}
        self._by_entity: Dict[str, List[TraceEvent]] = {}
        # Watermarks into _events up to which each index is current.
        # They advance independently: metric pipelines typically only
        # query by name, so the (larger) per-entity index is often
        # never built at all.
        self._indexed_name = 0
        self._indexed_entity = 0
        self._spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._spill_at = (max(1, int(spill_threshold))
                          if spill_dir is not None else float("inf"))
        self._chunks: List[Path] = []
        self._n_spilled = 0
        self._probe: Optional[Callable[[], None]] = None
        #: Record count (spilled included) at which the probe next fires.
        self._probe_due = 0
        self._mark = self._spill_at

    # -- threshold --------------------------------------------------------

    def attach_probe(self, probe: Callable[[], None]) -> None:
        """Call ``probe()`` once every :data:`PROBE_STRIDE` records.

        The probe must be read-only (no scheduling, no RNG, no clock
        writes), so a run's trace is byte-identical with it attached.
        """
        self._probe = probe
        self._probe_due = len(self) + PROBE_STRIDE
        self._arm()

    def _arm(self) -> None:
        mark = self._spill_at
        if self._probe is not None:
            mark = min(mark, self._probe_due - self._n_spilled)
        self._mark = mark

    def _tick(self) -> None:
        """The in-memory tail reached ``_mark``: spill and/or probe."""
        if len(self._events) >= self._spill_at:
            self._spill()
        if self._probe is not None:
            n = len(self)
            if n >= self._probe_due:
                self._probe_due = n + PROBE_STRIDE
                self._probe()
        self._arm()

    # -- spilling ---------------------------------------------------------

    @property
    def spilling(self) -> bool:
        """True when this profiler streams chunks to disk."""
        return self._spill_dir is not None

    @property
    def spilled_chunks(self) -> List[Path]:
        """Paths of the chunk files written so far (record order)."""
        return list(self._chunks)

    def _spill(self) -> None:
        """Flush the in-memory tail to the next chunk file."""
        if not self._events:
            return
        from .export import write_event_lines

        self._spill_dir.mkdir(parents=True, exist_ok=True)
        path = self._spill_dir / f"chunk-{len(self._chunks):06d}.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            write_event_lines(fh, self._events)
        self._chunks.append(path)
        self._n_spilled += len(self._events)
        self._events.clear()
        # Spilled events leave the lazy indexes: queries on a spilling
        # profiler stream the chunks instead (see _iter_spilled).
        self._by_name.clear()
        self._by_entity.clear()
        self._indexed_name = 0
        self._indexed_entity = 0

    def flush(self) -> None:
        """Force any in-memory tail out to disk (spilling mode only)."""
        if self._spill_dir is not None:
            self._spill()
            self._arm()

    def _iter_spilled(self, contains: str = None) -> Iterator[TraceEvent]:
        """Lazily re-read spilled chunks as trace events.

        ``contains`` prefilters raw lines before JSON decoding (see
        :func:`~repro.analytics.export.iter_event_lines`).
        """
        from .export import iter_event_lines

        for path in self._chunks:
            with path.open("r", encoding="utf-8") as fh:
                yield from iter_event_lines(fh, contains=contains)

    # -- recording --------------------------------------------------------

    def record(self, entity: str, name: str, at: Optional[float] = None,
               **meta: Any) -> TraceEvent:
        """Record ``name`` for ``entity`` and return the event.

        ``at`` overrides the timestamp (default: current simulated
        time) — used when the observing component learns about an
        event after it physically happened (e.g. completion messages
        arriving over a pipe), so traces carry the true event time.
        """
        ev = TraceEvent(time=self._env._now if at is None else at,
                        entity=entity, name=name, meta=meta)
        self._events.append(ev)
        if len(self._events) >= self._mark:
            self._tick()
        return ev

    def record_event(self, entity: str, name: str, meta: Dict[str, Any],
                     at: Optional[float] = None) -> TraceEvent:
        """Like :meth:`record`, but takes the meta dict directly.

        The hottest recording sites (task state transitions) build
        their payload dict anyway; passing it by reference skips the
        ``**kwargs`` re-packing of :meth:`record`.  The caller must
        hand over a fresh dict (it is stored, not copied).
        """
        ev = TraceEvent(self._env._now if at is None else at,
                        entity, name, meta)
        self._events.append(ev)
        if len(self._events) >= self._mark:
            self._tick()
        return ev

    def _index_names(self) -> None:
        """Bring the by-name index up to date."""
        events = self._events
        start = self._indexed_name
        if start == len(events):
            return
        by_name = self._by_name.setdefault
        for ev in events[start:]:
            by_name(ev[2], []).append(ev)     # ev.name
        self._indexed_name = len(events)

    def _index_entities(self) -> None:
        """Bring the by-entity index up to date."""
        events = self._events
        start = self._indexed_entity
        if start == len(events):
            return
        by_entity = self._by_entity.setdefault
        for ev in events[start:]:
            by_entity(ev[1], []).append(ev)   # ev.entity
        self._indexed_entity = len(events)

    # -- queries ----------------------------------------------------------

    def __len__(self) -> int:
        return self._n_spilled + len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        if self._n_spilled:
            return self._iter_all()
        return iter(self._events)

    def _iter_all(self) -> Iterator[TraceEvent]:
        yield from self._iter_spilled()
        yield from self._events

    def _named(self, name: str) -> List[TraceEvent]:
        """All events with the given name (internal, no defensive copy).

        A spilling profiler streams its chunks and keeps only the
        matches, so a query's footprint is O(matches), not O(trace).
        """
        if self._n_spilled:
            import json

            # write_event_lines spells every record with sorted keys,
            # ": " / ", " separators and ASCII-escaped strings, which
            # is json.dumps' default spelling of this field, so the
            # needle never under-matches; the field check below
            # handles needle text inside meta values.
            needle = '"name": ' + json.dumps(name)
            out = [ev for ev in self._iter_spilled(needle)
                   if ev[2] == name]
            out.extend(ev for ev in self._events if ev[2] == name)
            return out
        self._index_names()
        return self._by_name.get(name, [])

    def events_named(self, name: str) -> List[TraceEvent]:
        """All events with the given name, in record order."""
        return list(self._named(name))

    def events_for(self, entity: str) -> List[TraceEvent]:
        """All events of one entity, in record order."""
        return list(self._for_entity(entity))

    def _for_entity(self, entity: str) -> List[TraceEvent]:
        if self._n_spilled:
            import json

            needle = '"entity": ' + json.dumps(entity)
            out = [ev for ev in self._iter_spilled(needle)
                   if ev[1] == entity]
            out.extend(ev for ev in self._events if ev[1] == entity)
            return out
        self._index_entities()
        return self._by_entity.get(entity, [])

    def times(self, name: str) -> np.ndarray:
        """Timestamps of all events named ``name`` as a sorted array."""
        ts = np.array([ev.time for ev in self._named(name)], dtype=float)
        ts.sort()
        return ts

    def first(self, name: str) -> Optional[TraceEvent]:
        evs = self._named(name)
        return evs[0] if evs else None

    def last(self, name: str) -> Optional[TraceEvent]:
        evs = self._named(name)
        return evs[-1] if evs else None

    def duration(self, entity: str, start_name: str, stop_name: str) -> float:
        """Time between two events of one entity (first occurrences).

        Raises ``KeyError`` when either event is missing.
        """
        start = stop = None
        for ev in self._for_entity(entity):
            if start is None and ev.name == start_name:
                start = ev.time
            elif start is not None and ev.name == stop_name:
                stop = ev.time
                break
        if start is None or stop is None:
            raise KeyError(
                f"{entity}: missing {start_name!r}..{stop_name!r} interval"
            )
        return stop - start

    def timeline(self, entity: str) -> List[tuple]:
        """(time, name) pairs for one entity, in record order."""
        return [(ev.time, ev.name) for ev in self._for_entity(entity)]
