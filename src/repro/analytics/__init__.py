"""Trace recording and performance metrics (RADICAL-Analytics analogue)."""

from . import events
from .critical_path import CriticalStep, critical_path, format_critical_path
from .events import TraceEvent
from .export import load_events, save_profile
from .metrics import (
    ThroughputStats,
    exec_intervals,
    exec_start_times,
    makespan,
    startup_overheads,
    task_throughput,
    throughput,
    utilization,
    utilization_from_intervals,
)
from .profiler import Profiler
from .summary import (
    BackendSummary,
    SessionSummary,
    summarize,
)
from .timeseries import (
    Series,
    backlog_series,
    concurrency_series,
    resource_usage_series,
    start_rate_series,
)
from .validate import Violation, assert_valid_trace, validate_trace

__all__ = [
    "BackendSummary",
    "CriticalStep",
    "Profiler",
    "Series",
    "SessionSummary",
    "summarize",
    "ThroughputStats",
    "TraceEvent",
    "Violation",
    "assert_valid_trace",
    "backlog_series",
    "concurrency_series",
    "critical_path",
    "events",
    "format_critical_path",
    "exec_intervals",
    "exec_start_times",
    "load_events",
    "makespan",
    "save_profile",
    "resource_usage_series",
    "start_rate_series",
    "startup_overheads",
    "task_throughput",
    "throughput",
    "utilization",
    "utilization_from_intervals",
    "validate_trace",
]
