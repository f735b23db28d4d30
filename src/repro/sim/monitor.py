"""Periodic sampling of simulation state into time series.

Tests and examples frequently want "sample X every N seconds while
the simulation runs" (peak concurrency, queue depths, free cores).
:class:`Monitor` packages that pattern: register named probes, and it
samples them on a fixed cadence until stopped or until the predicate
says the run is over.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterator, List,
                    Optional, Tuple)

from ..analytics.events import TraceEvent
from ..exceptions import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Environment


class Monitor:
    """Samples named probes every ``interval`` simulated seconds.

    ``spill_dir`` turns on streaming mode for long full-machine runs:
    whole sweeps are flushed to chunked JSONL files (profile record
    format) once ``spill_threshold`` samples are buffered, bounding
    RSS; queries lazily re-read the chunks and :meth:`export` output
    is byte-identical to the in-memory monitor's.  Values must be
    JSON-representable to round-trip exactly (numbers — the typical
    probe output — always do).
    """

    def __init__(self, env: "Environment", interval: float = 1.0,
                 spill_dir=None, spill_threshold: int = 100_000) -> None:
        if interval <= 0:
            raise SimulationError(f"interval must be > 0, got {interval}")
        self.env = env
        self.interval = interval
        self._probes: Dict[str, Callable[[], Any]] = {}
        self._samples: Dict[str, List[Tuple[float, Any]]] = {}
        self._running = False
        self._stop_when: Optional[Callable[[], bool]] = None
        from pathlib import Path

        self._spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._spill_threshold = (max(1, int(spill_threshold))
                                 if spill_dir is not None else float("inf"))
        self._chunks: List[Any] = []
        self._n_buffered = 0

    # -- spilling ----------------------------------------------------------

    def _spill(self) -> None:
        """Flush buffered sweeps to the next chunk file.

        Only called between sweeps, so every chunk holds whole sweeps:
        concatenated chunks plus the tail reproduce exactly the
        time-sorted, probe-registration-ordered record stream
        :meth:`export` writes.
        """
        if not self._n_buffered:
            return
        from ..analytics.export import write_event_lines

        self._spill_dir.mkdir(parents=True, exist_ok=True)
        path = self._spill_dir / f"monitor-{len(self._chunks):06d}.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            write_event_lines(fh, self._sorted_records())
        self._chunks.append(path)
        for name in self._samples:
            self._samples[name] = []
        self._n_buffered = 0

    def _sorted_records(self) -> Iterator[TraceEvent]:
        """Buffered samples as profile records (``entity`` =
        ``monitor.<probe>``, the value under ``meta["value"]``),
        time-sorted with probe registration order breaking ties
        (stable sort)."""
        samples: List[Tuple[float, str, Any]] = []
        for name in self._probes:
            for t, v in self._samples[name]:
                samples.append((t, name, v))
        samples.sort(key=lambda r: r[0])
        for t, name, v in samples:
            yield TraceEvent(t, f"monitor.{name}", "sample", {"value": v})

    def _spilled_samples(self, name: str) -> List[Tuple[float, Any]]:
        """Lazily re-read one probe's samples from the spill chunks."""
        import json

        from ..analytics.export import iter_event_lines

        entity = f"monitor.{name}"
        needle = '"entity": ' + json.dumps(entity)
        out: List[Tuple[float, Any]] = []
        for path in self._chunks:
            with path.open("r", encoding="utf-8") as fh:
                for ev in iter_event_lines(fh, contains=needle):
                    if ev.entity == entity:
                        out.append((ev.time, ev.meta["value"]))
        return out

    def probe(self, name: str, fn: Callable[[], Any]) -> None:
        """Register a probe (must be added before :meth:`start`)."""
        if self._running:
            raise SimulationError("cannot add probes while running")
        if name in self._probes:
            raise SimulationError(f"duplicate probe {name!r}")
        self._probes[name] = fn
        self._samples[name] = []

    def start(self, stop_when: Optional[Callable[[], bool]] = None):
        """Begin sampling; returns the monitor process.

        ``stop_when`` is evaluated after each sweep; the monitor ends
        once it returns true (or runs until :meth:`stop`).
        """
        if self._running:
            raise SimulationError("monitor already running")
        if not self._probes:
            raise SimulationError("no probes registered")
        self._running = True
        self._stop_when = stop_when
        return self.env.process(self._loop())

    def stop(self) -> None:
        self._running = False

    def _loop(self):
        while self._running:
            for name, fn in self._probes.items():
                self._samples[name].append((self.env.now, fn()))
            self._n_buffered += len(self._probes)
            if self._n_buffered >= self._spill_threshold:
                self._spill()
            if self._stop_when is not None and self._stop_when():
                self._running = False
                return
            yield self.env.timeout(self.interval)

    # -- results ----------------------------------------------------------

    def samples(self, name: str) -> List[Tuple[float, Any]]:
        """(time, value) pairs recorded for one probe."""
        try:
            tail = self._samples[name]
        except KeyError:
            raise SimulationError(f"unknown probe {name!r}") from None
        if self._chunks:
            return self._spilled_samples(name) + list(tail)
        return list(tail)

    def values(self, name: str) -> List[Any]:
        return [v for _, v in self.samples(name)]

    def peak(self, name: str) -> Any:
        vals = self.values(name)
        if not vals:
            raise SimulationError(f"probe {name!r} has no samples")
        return max(vals)

    def mean(self, name: str) -> float:
        vals = self.values(name)
        if not vals:
            raise SimulationError(f"probe {name!r} has no samples")
        return sum(vals) / len(vals)

    def to_series(self, name: str):
        """One probe as an :class:`~repro.analytics.timeseries.Series`
        (the same shape the figure pipeline plots)."""
        import numpy as np

        from ..analytics.timeseries import Series

        samples = self.samples(name)
        times = np.asarray([t for t, _ in samples], dtype=float)
        values = np.asarray([v for _, v in samples], dtype=float)
        return Series(times, values)

    def export(self, path) -> int:
        """Write all samples as profile-format JSON lines.

        Each sample becomes one trace-event record
        (``entity="monitor.<probe>"``, ``name="sample"``, the value
        under ``meta["value"]``), with the standard schema header —
        the file loads through
        :func:`~repro.analytics.export.load_events` and merges with
        task traces in offline analysis.  Returns the number of
        samples written.
        """
        from pathlib import Path

        from ..analytics.export import write_profile_lines

        with Path(path).open("w", encoding="utf-8") as fh:
            # Chunks hold whole sweeps already in the sorted record
            # order, so concatenating them verbatim before the sorted
            # tail reproduces the in-memory output byte for byte.
            return write_profile_lines(fh, self._chunks,
                                       self._sorted_records())
