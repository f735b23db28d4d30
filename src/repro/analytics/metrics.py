"""Performance metrics: the paper's three core quantities (§4).

1. **throughput** — tasks launched per second, independent of their
   execution duration (average over the launch window, plus the peak
   rate over fixed-width bins);
2. **resource utilization** — percentage of allocated compute
   resources actively used over time;
3. **runtime overhead** — infrastructure setup time before workflow
   execution begins (agent + backend bootstrap).

All metrics are pure functions of task exec intervals / trace events,
so they apply identically across backends — exactly how
RADICAL-Analytics derives the paper's plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import events as tev

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.task import Task
    from .profiler import Profiler


# ---------------------------------------------------------------------------
# extraction helpers
# ---------------------------------------------------------------------------

def exec_start_times(tasks: Iterable["Task"]) -> np.ndarray:
    """Sorted payload start timestamps of the tasks that executed."""
    ts = np.array(sorted(
        t.exec_start for t in tasks if t.exec_start is not None), dtype=float)
    return ts


def exec_intervals(tasks: Iterable["Task"]) -> np.ndarray:
    """(start, stop, cores, gpus) rows for every executed task."""
    rows = [
        (t.exec_start, t.exec_stop,
         t.description.resources.cores, t.description.resources.gpus)
        for t in tasks
        if t.exec_start is not None and t.exec_stop is not None
    ]
    if not rows:
        return np.empty((0, 4), dtype=float)
    return np.array(rows, dtype=float)


# ---------------------------------------------------------------------------
# throughput
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThroughputStats:
    """Average and peak task launch rates."""

    n_tasks: int
    window: float       #: width of the launch window [s]
    avg: float          #: tasks/s over the launch window
    peak: float         #: max binned rate [tasks/s]
    bin_width: float


def throughput(start_times: np.ndarray,
               bin_width: float = 1.0) -> ThroughputStats:
    """Launch throughput from sorted start timestamps.

    ``avg`` spans first to last start; ``peak`` is the maximum count
    in any ``bin_width`` window.  Degenerate inputs (0 or 1 task)
    yield zero rates rather than raising.
    """
    n = int(start_times.size)
    if n < 2:
        return ThroughputStats(n, 0.0, 0.0, 0.0, bin_width)
    window = float(start_times[-1] - start_times[0])
    if window <= 0.0:
        # All tasks started within one instant: rate is bounded by the
        # bin, not the window.
        return ThroughputStats(n, 0.0, float("inf"), n / bin_width, bin_width)
    edges = np.arange(start_times[0], start_times[-1] + bin_width, bin_width)
    counts, _ = np.histogram(start_times, bins=edges)
    peak = float(counts.max()) / bin_width if counts.size else 0.0
    return ThroughputStats(n, window, n / window, peak, bin_width)


def task_throughput(tasks: Iterable["Task"],
                    bin_width: float = 1.0) -> ThroughputStats:
    """Convenience wrapper over :func:`throughput`."""
    return throughput(exec_start_times(tasks), bin_width)


# ---------------------------------------------------------------------------
# utilization
# ---------------------------------------------------------------------------

def utilization(tasks: Iterable["Task"], total_cores: int,
                span: Optional[Tuple[float, float]] = None,
                resource: str = "cores") -> float:
    """Fraction of allocated resource-time actively used, in [0, 1].

    Parameters
    ----------
    tasks:
        Tasks whose exec intervals count as "actively used".
    total_cores:
        Allocated capacity of the chosen resource (cores or gpus).
    span:
        (t0, t1) accounting window; defaults to [first exec start,
        last exec stop].  Intervals are clipped to the span.
    resource:
        ``cores`` or ``gpus``.
    """
    return utilization_from_intervals(exec_intervals(tasks), total_cores,
                                      span=span, resource=resource)


def utilization_from_intervals(iv: np.ndarray, total_cores: int,
                               span: Optional[Tuple[float, float]] = None,
                               resource: str = "cores") -> float:
    """:func:`utilization` over precomputed ``(start, stop, cores,
    gpus)`` rows (see :func:`exec_intervals`).

    The array-level entry point lets callers that already hold the
    exec intervals as columns — the vectorized ensemble engine
    computes them for every member at once — reuse the exact same
    accounting (same row order, same float operations) as the
    task-object path.
    """
    if total_cores <= 0:
        raise ValueError(f"total_cores must be positive, got {total_cores}")
    col = {"cores": 2, "gpus": 3}[resource]
    if iv.shape[0] == 0:
        return 0.0
    if span is None:
        t0, t1 = float(iv[:, 0].min()), float(iv[:, 1].max())
    else:
        t0, t1 = span
    if t1 <= t0:
        return 0.0
    starts = np.clip(iv[:, 0], t0, t1)
    stops = np.clip(iv[:, 1], t0, t1)
    busy = float(np.sum((stops - starts) * iv[:, col]))
    return busy / (total_cores * (t1 - t0))


# ---------------------------------------------------------------------------
# overhead / makespan
# ---------------------------------------------------------------------------

def startup_overheads(profiler: "Profiler", kind: Optional[str] = None
                      ) -> List[Tuple[str, float]]:
    """(instance_id, bootstrap seconds) for every backend instance.

    ``kind`` filters on the backend type recorded in the event meta
    (``flux``, ``dragon``, ``srun``).
    """
    started = {ev.entity: ev for ev in profiler.events_named(tev.BACKEND_START)}
    out: List[Tuple[str, float]] = []
    for ev in profiler.events_named(tev.BACKEND_READY):
        if kind is not None and ev.meta.get("kind") != kind:
            continue
        begin = started.get(ev.entity)
        if begin is not None:
            out.append((ev.entity, ev.time - begin.time))
    return out


def makespan(tasks: Iterable["Task"]) -> float:
    """Workflow makespan: first submission to last payload stop."""
    tasks = list(tasks)
    submit = [t.created for t in tasks]
    stops = [t.exec_stop for t in tasks if t.exec_stop is not None]
    if not submit or not stops:
        return 0.0
    return max(stops) - min(submit)
