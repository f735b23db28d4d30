"""Observability: spans, run manifests, live telemetry.

Every instrument in this package reads the run's one record, the task
profile, or live state the stack already keeps:

* a **span model** (:mod:`~repro.observability.spans`) — hierarchical
  sim-time spans over the task lifecycle, rebuilt from the recorded
  trace events;
* **run manifests** (:mod:`~repro.observability.manifest`) — the
  machine-readable bundle (manifest + spans + Perfetto trace +
  profile + telemetry) the harness writes per run;
* a **telemetry bus** (:mod:`~repro.observability.telemetry`) — rate-
  limited progress snapshots, fired by the profiler's per-record
  threshold every :data:`~repro.analytics.profiler.PROBE_STRIDE`
  records.

All of them only read: same-seed traces are byte-identical with any
of them on or off.
"""

from __future__ import annotations

from .export import (
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from .manifest import (
    BUNDLE_VERSION,
    build_manifest,
    package_versions,
    read_manifest,
    write_bundle,
)
from .spans import (
    PHASES,
    Span,
    phase_rollup,
    spans_from_events,
    spans_from_profiler,
)
from .telemetry import (
    TELEMETRY_SCHEMA,
    EtaEstimator,
    HostProfiler,
    RunTelemetry,
    SessionSampler,
    SweepTelemetry,
    TelemetryBus,
    read_telemetry,
    render_progress_line,
    validate_telemetry,
)

__all__ = [
    "BUNDLE_VERSION",
    "EtaEstimator",
    "HostProfiler",
    "PHASES",
    "RunTelemetry",
    "SessionSampler",
    "Span",
    "SweepTelemetry",
    "TELEMETRY_SCHEMA",
    "TelemetryBus",
    "build_manifest",
    "chrome_trace",
    "package_versions",
    "phase_rollup",
    "read_manifest",
    "read_telemetry",
    "render_progress_line",
    "spans_from_events",
    "spans_from_profiler",
    "validate_chrome_trace",
    "validate_telemetry",
    "write_bundle",
    "write_chrome_trace",
]
