"""Time-series views of a run: concurrency, launch-rate and backlog
curves.

These regenerate the paper's Fig. 8 panels: running-task concurrency
(green, left axis) and execution start rate (red, right axis) over
the workflow's lifetime, from task lists, and the scheduling backlog
behind them, from the run's profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable

import numpy as np

from . import events as tev
from .metrics import exec_intervals, exec_start_times

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.task import Task
    from .events import TraceEvent

#: The task state events the profile records.
_STATE_EVENTS = frozenset({
    tev.TASK_CREATED, tev.TASK_SCHEDULED, tev.TASK_EXEC_START,
    tev.TASK_DONE, tev.TASK_FAILED, tev.TASK_CANCELED,
})
_BACKLOG_EXITS = frozenset({
    tev.TASK_EXEC_START, tev.TASK_FAILED, tev.TASK_CANCELED,
})


@dataclass(frozen=True)
class Series:
    """A sampled time series (times[i] -> values[i])."""

    times: np.ndarray
    values: np.ndarray

    def max(self) -> float:
        return float(self.values.max()) if self.values.size else 0.0

    def mean(self) -> float:
        return float(self.values.mean()) if self.values.size else 0.0


def _open_count(iv: np.ndarray, resolution: float) -> Series:
    """How many ``[start, stop)`` rows of ``iv`` are open at each
    ``resolution``-spaced sample from the first start to the last
    stop."""
    if iv.shape[0] == 0:
        return Series(np.empty(0), np.empty(0))
    t0, t1 = float(iv[:, 0].min()), float(iv[:, 1].max())
    samples = np.arange(t0, t1 + resolution, resolution)
    # Vectorized interval stabbing: count starts <= t < stops.
    count = (np.searchsorted(np.sort(iv[:, 0]), samples, side="right")
             - np.searchsorted(np.sort(iv[:, 1]), samples, side="right"))
    return Series(samples, count.astype(float))


def concurrency_series(tasks: Iterable["Task"],
                       resolution: float = 60.0) -> Series:
    """Number of concurrently *running* tasks sampled every
    ``resolution`` seconds (the paper's green curves)."""
    return _open_count(exec_intervals(tasks), resolution)


def start_rate_series(tasks: Iterable["Task"],
                      bin_width: float = 60.0) -> Series:
    """Task launch rate [tasks/s] in fixed bins (the red curves)."""
    ts = exec_start_times(tasks)
    if ts.size == 0:
        return Series(np.empty(0), np.empty(0))
    edges = np.arange(ts[0], ts[-1] + bin_width, bin_width)
    if edges.size < 2:
        edges = np.array([ts[0], ts[0] + bin_width])
    counts, _ = np.histogram(ts, bins=edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return Series(centers, counts / bin_width)


def backlog_series(events: Iterable["TraceEvent"],
                   resolution: float = 60.0) -> Series:
    """How many tasks of a run's profile wait in AGENT_SCHEDULING over
    time: Fig. 8's scheduled-vs-running gap, where a slow launcher
    piles tasks up while the running count trails behind.

    A task waits from each ``task_scheduled`` (a retry re-enters) to
    its next ``task_exec_start``, ``task_failed`` or ``task_canceled``
    (the only successors of AGENT_SCHEDULING); one still waiting at
    the end counts up to the latest task state event.
    """
    entered: Dict[str, float] = {}
    rows = []
    horizon = 0.0
    for ev in events:
        name = ev.name
        if name not in _STATE_EVENTS:
            continue
        if ev.time > horizon:
            horizon = ev.time
        if name == tev.TASK_SCHEDULED:
            entered[ev.entity] = ev.time
        elif name in _BACKLOG_EXITS and ev.entity in entered:
            rows.append((entered.pop(ev.entity), ev.time))
    rows.extend((start, horizon) for start in entered.values())
    return _open_count(np.array(rows, dtype=float), resolution)


def resource_usage_series(tasks: Iterable["Task"], total: int,
                          resolution: float = 60.0,
                          resource: str = "cores") -> Series:
    """Fraction of the allocation's cores/gpus busy over time."""
    col = {"cores": 2, "gpus": 3}[resource]
    iv = exec_intervals(tasks)
    if iv.shape[0] == 0 or total <= 0:
        return Series(np.empty(0), np.empty(0))
    t0, t1 = float(iv[:, 0].min()), float(iv[:, 1].max())
    samples = np.arange(t0, t1 + resolution, resolution)
    order_start = np.argsort(iv[:, 0])
    order_stop = np.argsort(iv[:, 1])
    starts = iv[order_start, 0]
    stops = iv[order_stop, 1]
    w_start = np.concatenate([[0.0], np.cumsum(iv[order_start, col])])
    w_stop = np.concatenate([[0.0], np.cumsum(iv[order_stop, col])])
    started = w_start[np.searchsorted(starts, samples, side="right")]
    stopped = w_stop[np.searchsorted(stops, samples, side="right")]
    return Series(samples, (started - stopped) / total)
