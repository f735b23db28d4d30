"""Whole-session summaries: task counts, per-backend breakdowns and
throughput.

RADICAL-Analytics' most common use is a per-run report: how many tasks
ran where, how fast, and how busy the allocation was.  This module
builds that from :class:`~repro.core.task.Task` lists, complementing
the single-number metrics in :mod:`repro.analytics.metrics`.  Where
task time went (the schedule/launch/exec/collect phases) is a function
of the profile: :func:`repro.observability.phase_rollup`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..core.states import TaskState
from .metrics import task_throughput, utilization
from .report import format_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.task import Task


@dataclass(frozen=True)
class BackendSummary:
    """Per-backend slice of a run."""

    backend: str
    n_tasks: int
    n_done: int
    n_failed: int
    n_canceled: int
    throughput_avg: float
    throughput_peak: float


@dataclass(frozen=True)
class SessionSummary:
    """A run report's task counts, per-backend slices and utilization."""

    n_tasks: int
    n_done: int
    n_failed: int
    n_canceled: int
    backends: Tuple[BackendSummary, ...]
    utilization_cores: Optional[float] = None

    def to_text(self) -> str:
        """Render as the tables a run report prints."""
        out: List[str] = []
        out.append(format_table(
            ["tasks", "done", "failed", "canceled"],
            [(self.n_tasks, self.n_done, self.n_failed, self.n_canceled)]))
        if self.backends:
            out.append("")
            out.append(format_table(
                ["backend", "tasks", "done", "failed", "canceled",
                 "avg/s", "peak/s"],
                [(b.backend, b.n_tasks, b.n_done, b.n_failed, b.n_canceled,
                  b.throughput_avg, b.throughput_peak)
                 for b in self.backends]))
        if self.utilization_cores is not None:
            out.append("")
            out.append(f"core utilization: "
                       f"{100 * self.utilization_cores:.1f} %")
        return "\n".join(out)


def summarize(tasks: Iterable["Task"],
              total_cores: Optional[int] = None) -> SessionSummary:
    """Build a :class:`SessionSummary` from a task list."""
    tasks = list(tasks)
    by_backend: Dict[str, List["Task"]] = {}
    for task in tasks:
        by_backend.setdefault(task.backend or "(unrouted)", []).append(task)

    backends = []
    for backend in sorted(by_backend):
        group = by_backend[backend]
        stats = task_throughput(group)
        backends.append(BackendSummary(
            backend=backend,
            n_tasks=len(group),
            n_done=sum(t.state == TaskState.DONE for t in group),
            n_failed=sum(t.state == TaskState.FAILED for t in group),
            n_canceled=sum(t.state == TaskState.CANCELED for t in group),
            throughput_avg=stats.avg if np.isfinite(stats.avg) else 0.0,
            throughput_peak=stats.peak,
        ))

    return SessionSummary(
        n_tasks=len(tasks),
        n_done=sum(t.state == TaskState.DONE for t in tasks),
        n_failed=sum(t.state == TaskState.FAILED for t in tasks),
        n_canceled=sum(t.state == TaskState.CANCELED for t in tasks),
        backends=tuple(backends),
        utilization_cores=(utilization(tasks, total_cores)
                           if total_cores else None),
    )
