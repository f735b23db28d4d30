"""Unified observability: spans, metrics, manifests.

One :class:`Observability` object per session bundles the three
instruments this package provides:

* a **span model** (:mod:`~repro.observability.spans`) — hierarchical
  sim-time spans over the task lifecycle, rebuilt from the recorded
  trace events;
* a **metrics registry** (:mod:`~repro.observability.metrics`) —
  labeled counters/gauges/histograms updated live by the kernel,
  executors, Flux instances, the Dragon pool and the srun facility;
* **run manifests** (:mod:`~repro.observability.manifest`) — the
  machine-readable bundle (manifest + metrics + spans + Perfetto
  trace + profile) the harness writes per run.

Observability is **disabled by default** and engineered to be
near-free when off: components hold ``None`` instead of metric
handles and guard each update with one identity check, the kernel's
plain dispatch loop is untouched (its instrumented twin is a separate
code path selected once per ``run()`` call), and same-seed traces are
byte-identical with observability on, off, or absent — instruments
observe the simulation, they never perturb it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .export import (
    chrome_trace,
    metrics_json,
    prometheus_text,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics,
)
from .manifest import (
    BUNDLE_VERSION,
    build_manifest,
    package_versions,
    read_manifest,
    write_bundle,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    KernelInstrument,
    MetricFamily,
    MetricsRegistry,
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

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.kernel import Environment

__all__ = [
    "BUNDLE_VERSION",
    "Counter",
    "EtaEstimator",
    "Gauge",
    "Histogram",
    "HostProfiler",
    "KernelInstrument",
    "MetricFamily",
    "MetricsRegistry",
    "Observability",
    "PHASES",
    "RunTelemetry",
    "SessionSampler",
    "Span",
    "SweepTelemetry",
    "TELEMETRY_SCHEMA",
    "TelemetryBus",
    "build_manifest",
    "chrome_trace",
    "metrics_json",
    "package_versions",
    "phase_rollup",
    "prometheus_text",
    "read_manifest",
    "read_telemetry",
    "render_progress_line",
    "spans_from_events",
    "spans_from_profiler",
    "validate_chrome_trace",
    "validate_telemetry",
    "write_bundle",
    "write_chrome_trace",
    "write_metrics",
]


class Observability:
    """Per-session observability facade.

    ``enabled`` gates the metrics registry; components
    receive ``obs.registry`` (``None`` when disabled) and guard their
    updates on it, so a disabled session pays nothing beyond object
    construction.
    """

    def __init__(self, env: "Environment", enabled: bool = False) -> None:
        self.env = env
        self.enabled = enabled
        self.registry: Optional[MetricsRegistry] = (
            MetricsRegistry() if enabled else None)

    def attach_kernel(self, env: Optional["Environment"] = None) -> None:
        """Instrument a simulation kernel with event/queue metrics.

        Selects the kernel's instrumented dispatch loop; a no-op when
        observability is disabled (the plain loop stays in place).
        """
        if not self.enabled:
            return
        target = env if env is not None else self.env
        assert self.registry is not None
        target._instrument = KernelInstrument(self.registry)
