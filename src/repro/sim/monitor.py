"""Periodic sampling of simulation state into time series.

Tests and examples frequently want "sample X every N seconds while
the simulation runs" (peak concurrency, queue depths, free cores).
:class:`Monitor` packages that pattern: register named probes, and it
samples them on a fixed cadence until stopped or until the predicate
says the run is over.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ..analytics.profiler import Profiler
from ..exceptions import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Environment


class Monitor:
    """Samples named probes every ``interval`` simulated seconds.

    Each sample is one record in the monitor's own
    :class:`~repro.analytics.profiler.Profiler`: ``entity`` is
    ``monitor.<probe>``, ``name`` is ``"sample"`` and the value sits
    under ``meta["value"]``.  Sweeps append in time order, then probe
    registration order, so the record order is the export order.

    ``spill_dir``/``spill_threshold`` pass straight to that profiler:
    streaming mode for long full-machine runs, where queries re-read
    the spilled chunks and :meth:`export` is byte-identical to the
    in-memory monitor's.  Values must be JSON-representable to
    round-trip exactly (numbers — the typical probe output — always
    do).
    """

    def __init__(self, env: "Environment", interval: float = 1.0,
                 spill_dir=None, spill_threshold: int = 100_000) -> None:
        if interval <= 0:
            raise SimulationError(f"interval must be > 0, got {interval}")
        self.env = env
        self.interval = interval
        self.profiler = Profiler(env, spill_dir=spill_dir,
                                 spill_threshold=spill_threshold)
        self._probes: Dict[str, Callable[[], Any]] = {}
        self._running = False
        self._stop_when: Optional[Callable[[], bool]] = None

    def probe(self, name: str, fn: Callable[[], Any]) -> None:
        """Register a probe (must be added before :meth:`start`)."""
        if self._running:
            raise SimulationError("cannot add probes while running")
        if name in self._probes:
            raise SimulationError(f"duplicate probe {name!r}")
        self._probes[name] = fn

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
        record = self.profiler.record_event
        while self._running:
            for name, fn in self._probes.items():
                record("monitor." + name, "sample", {"value": fn()})
            if self._stop_when is not None and self._stop_when():
                self._running = False
                return
            yield self.env.timeout(self.interval)

    # -- results ----------------------------------------------------------

    def samples(self, name: str) -> List[Tuple[float, Any]]:
        """(time, value) pairs recorded for one probe."""
        if name not in self._probes:
            raise SimulationError(f"unknown probe {name!r}")
        return [(ev.time, ev.meta["value"])
                for ev in self.profiler.events_for("monitor." + name)]

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
        from ..analytics.export import save_profile

        return save_profile(self.profiler, path)
