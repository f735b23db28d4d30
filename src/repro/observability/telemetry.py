"""The live telemetry bus: streaming progress snapshots from a run.

The post-hoc instruments in this package answer questions after a run
finished; the telemetry bus answers *"how far along is it?"* while
one is still going.  It is pull-based: nothing in the simulation ever
pushes a record — instead a *sampler* reads live state (task
counters, per-backend occupancy, node health, host wall time, RSS)
and a :class:`TelemetryBus` decides, on a **wall-clock** rate limit,
when a snapshot is actually taken and emitted.  Sampling only reads;
it never schedules events, draws randomness, or touches the simulated
clock, so same-seed traces are byte-identical with telemetry on or
off (pinned by ``tests/observability/test_telemetry.py``).

Emission points, one per execution shape, all speaking the same
record schema (:data:`TELEMETRY_SCHEMA`):

* plain runs — the profiler fires a probe every
  :data:`~repro.analytics.profiler.PROBE_STRIDE` records
  (:meth:`TelemetryBus.probe`, :meth:`~repro.analytics.profiler.
  Profiler.attach_probe`);
* ensembles — the engines report per-seed / per-cohort progress;
* ``run_repetitions(parallel=)`` — the parent process emits one
  record per completed repetition.

Records go to any number of subscribers (the CLI line renderer, a
JSONL stream, the in-memory buffer the bundle writer reads) — the
exact feed a service front door would forward over SSE.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, TextIO

__all__ = [
    "TELEMETRY_SCHEMA",
    "TELEMETRY_SOURCES",
    "EtaEstimator",
    "HostProfiler",
    "RunTelemetry",
    "SessionSampler",
    "SweepTelemetry",
    "TelemetryBus",
    "host_rss_mb",
    "jsonl_sink",
    "line_sink",
    "read_telemetry",
    "render_progress_line",
    "validate_telemetry",
]

#: Telemetry record schema version, bumped on field changes.
TELEMETRY_SCHEMA = 1

#: Values the ``source`` field may take — one per execution shape.
TELEMETRY_SOURCES = ("plain", "ensemble", "parallel")

#: Default wall-clock poll interval [s]: snapshots are taken at most
#: this often no matter how fast the probe fires.
DEFAULT_INTERVAL = 0.25


def host_rss_mb() -> float:
    """Peak resident-set size of this process [MB] (0.0 off-POSIX).

    Peak, not current — a single cheap ``getrusage`` syscall.
    """
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    except Exception:  # pragma: no cover - non-POSIX
        return 0.0


class HostProfiler:
    """Wall-clock phase timers + RSS sampling for the host process.

    Sim-time profiling cannot see where *wall* time goes (workload
    construction, the kernel loop, metric computation, bundle
    writing); this accumulates it per named phase so sim-throughput
    vs. wall-throughput divergence is visible live in every telemetry
    record and post-hoc in the final one.  Phases may be re-entered;
    durations accumulate.
    """

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self._clock = clock
        self._t0 = clock()
        self.phases: Dict[str, float] = {}
        self._open: Dict[str, float] = {}

    def start(self, name: str) -> None:
        self._open[name] = self._clock()

    def stop(self, name: str) -> float:
        """Close one phase; returns the increment added [s]."""
        begun = self._open.pop(name, None)
        if begun is None:
            return 0.0
        delta = self._clock() - begun
        self.phases[name] = self.phases.get(name, 0.0) + delta
        return delta

    def phase(self, name: str) -> "_PhaseContext":
        """``with profiler.phase("run"): ...`` — wall-clock scoped."""
        return _PhaseContext(self, name)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready state: elapsed wall, per-phase totals, RSS.

        Open phases are included at their running duration, so a
        snapshot taken mid-run attributes the wall time spent so far.
        """
        now = self._clock()
        phases = dict(self.phases)
        for name, begun in self._open.items():
            phases[name] = phases.get(name, 0.0) + (now - begun)
        return {
            "wall_seconds": round(now - self._t0, 6),
            "phases": {k: round(v, 6) for k, v in sorted(phases.items())},
            "rss_mb": round(host_rss_mb(), 3),
        }


class _PhaseContext:
    __slots__ = ("_profiler", "_name")

    def __init__(self, profiler: HostProfiler, name: str) -> None:
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> None:
        self._profiler.start(self._name)

    def __exit__(self, *exc) -> None:
        self._profiler.stop(self._name)


class EtaEstimator:
    """Remaining-time estimate from the task-completion rate.

    Early in a run the observed rate is noise (or undefined), so the
    estimate blends a *prior* — the
    :class:`~repro.ensemble.surrogate.FluidSurrogate` makespan
    prediction, when one exists for the config — with the observed
    rate, weighting the observation by the completed fraction: at 0%%
    done the ETA is pure prior, at 100%% pure measurement.

    ``estimate`` is a pure function of its arguments (plus the fixed
    total/prior), so the estimator works against either clock: feed it
    sim time for kernel runs, wall time for ensembles.
    """

    def __init__(self, total: Optional[int],
                 prior_makespan: Optional[float] = None) -> None:
        self.total = total
        self.prior = prior_makespan

    def estimate(self, elapsed: float, done: int) -> Optional[float]:
        """Estimated remaining seconds, ``None`` when unknowable."""
        total = self.total
        if total is None or total <= 0:
            return None
        if done >= total:
            return 0.0
        prior_left = (max(self.prior - elapsed, 0.0)
                      if self.prior is not None else None)
        if done <= 0 or elapsed <= 0.0:
            return prior_left
        observed = (total - done) * (elapsed / done)
        if prior_left is None:
            return observed
        weight = done / total
        return weight * observed + (1.0 - weight) * prior_left


class TelemetryBus:
    """Rate-limited snapshot emission to a set of subscribers.

    ``poll`` is the hot entry point: it returns immediately (two
    comparisons) unless ``interval`` wall seconds have passed since
    the last emission, and only then calls the sampler — so sampling
    cost is bounded by wall time, never by event count.  ``emit``
    bypasses the limiter for must-have records (the final one).
    Records are retained on :attr:`records` for the bundle writer.
    """

    def __init__(self, source: str, interval: float = DEFAULT_INTERVAL,
                 sink: Optional[Callable[[Dict[str, Any]], None]] = None,
                 clock: Callable[[], float] = perf_counter) -> None:
        if source not in TELEMETRY_SOURCES:
            raise ValueError(f"unknown telemetry source {source!r}; "
                             f"pick from {TELEMETRY_SOURCES}")
        self.source = source
        self.interval = float(interval)
        self.records: List[Dict[str, Any]] = []
        self._subscribers: List[Callable[[Dict[str, Any]], None]] = []
        if sink is not None:
            self._subscribers.append(sink)
        self._clock = clock
        self._t0 = clock()
        self._last = float("-inf")
        self._seq = 0

    def subscribe(self, sink: Callable[[Dict[str, Any]], None]) -> None:
        self._subscribers.append(sink)

    def elapsed(self) -> float:
        """Wall seconds since the bus was created."""
        return self._clock() - self._t0

    def emit(self, fields: Dict[str, Any]) -> Dict[str, Any]:
        """Stamp ``fields`` into a record and dispatch it (no limit)."""
        now = self._clock()
        self._last = now
        record = {
            "schema": TELEMETRY_SCHEMA,
            "source": self.source,
            "seq": self._seq,
            "wall_time": round(now - self._t0, 6),
        }
        record.update(fields)
        self._seq += 1
        self.records.append(record)
        for sink in self._subscribers:
            sink(record)
        return record

    def poll(self, sampler: Callable[[], Dict[str, Any]]
             ) -> Optional[Dict[str, Any]]:
        """Emit ``sampler()`` if the poll interval elapsed, else no-op."""
        if self._clock() - self._last < self.interval:
            return None
        return self.emit(sampler())

    def probe(self, sampler: Callable[[], Dict[str, Any]]
              ) -> Callable[[], None]:
        """A zero-argument closure for the profiler's heartbeat hook
        (:meth:`~repro.analytics.profiler.Profiler.attach_probe`)."""
        def fire() -> None:
            self.poll(sampler)
        return fire


class SessionSampler:
    """Live-state snapshots of one kernel-backed session.

    Reads (never writes) the counters the stack already maintains:
    the agent's task ledger, each executor's active/queued occupancy,
    the allocation's node health and the sim clock.  Construction is
    cheap; the sampler is consulted only when the bus's rate limiter
    fires.
    """

    def __init__(self, session, pilot=None,
                 tasks_total: Optional[int] = None,
                 eta: Optional[EtaEstimator] = None,
                 host: Optional[HostProfiler] = None) -> None:
        self.session = session
        self.pilot = pilot
        self.tasks_total = tasks_total
        self.eta = eta if eta is not None else EtaEstimator(tasks_total)
        self.host = host

    def sample(self) -> Dict[str, Any]:
        session = self.session
        sim_time = session.env.now
        agent = self.pilot.agent if self.pilot is not None else None
        done = failed = 0
        backends: Dict[str, Dict[str, int]] = {}
        if agent is not None:
            done = agent.n_done
            failed = agent.n_failed
            for name in sorted(agent.executors):
                ex = agent.executors[name]
                backends[name] = {"active": int(ex.n_active),
                                  "queued": int(ex.outstanding)}
        nodes_down = 0
        if self.pilot is not None and self.pilot.allocation is not None:
            nodes_down = self.pilot.allocation.n_down_nodes
        total = self.tasks_total
        self.eta.total = total
        record: Dict[str, Any] = {
            "sim_time": round(sim_time, 9),
            "tasks_total": total,
            "tasks_done": done,
            "tasks_failed": failed,
            "progress": round(done / total, 6) if total else 0.0,
            "eta_seconds": self.eta.estimate(sim_time, done),
            "eta_basis": "sim",
            "backends": backends,
            "nodes_down": nodes_down,
            "rss_mb": round(host_rss_mb(), 3),
        }
        if self.host is not None:
            record["host"] = self.host.snapshot()
        return record


class RunTelemetry:
    """One run's telemetry plumbing: a bus bound to its sampler.

    The harness hangs this on ``session.telemetry`` and its
    :meth:`probe` on the session's profiler.
    """

    def __init__(self, bus: TelemetryBus, sampler: SessionSampler) -> None:
        self.bus = bus
        self.sampler = sampler

    @property
    def records(self) -> List[Dict[str, Any]]:
        return self.bus.records

    def tick(self) -> Optional[Dict[str, Any]]:
        """Rate-limited snapshot (probe firings)."""
        return self.bus.poll(self.sampler.sample)

    def flush(self) -> Dict[str, Any]:
        """Unconditional snapshot — every run emits at least one."""
        return self.bus.emit(self.sampler.sample())

    def probe(self) -> Callable[[], None]:
        return self.bus.probe(self.sampler.sample)


class SweepTelemetry:
    """Progress over a multi-member sweep (ensemble seeds, parallel
    repetitions).

    Members are whole experiment runs, so ETA comes from the *wall*
    clock member-completion rate (``eta_basis: "wall"``) — the sim
    clock is meaningless across members.  The vectorized ensemble
    engine also reports intra-cohort task progress via
    :meth:`cohort`, which fills the task counters before any member
    has formally completed.
    """

    def __init__(self, source: str, members_total: int,
                 bus: Optional[TelemetryBus] = None,
                 sink: Optional[Callable[[Dict[str, Any]], None]] = None,
                 interval: float = DEFAULT_INTERVAL) -> None:
        self.bus = bus if bus is not None else TelemetryBus(
            source, interval=interval, sink=sink)
        self.members_total = int(members_total)
        self.members_done = 0
        self.tasks_total: Optional[int] = None
        self.tasks_done = 0
        self.tasks_failed = 0
        #: ``(done, total)`` task counts from a lock-stepped engine's
        #: mid-flight cohort hook; superseded once members complete.
        self._cohort: Optional[tuple] = None
        #: Members delivered without simulating: run-store hits and
        #: sweep-ledger rehydrations (see ``ExperimentResult.provenance``).
        self.members_cached = 0
        self.members_resumed = 0
        self.eta = EtaEstimator(self.members_total)

    @classmethod
    def create(cls, source: str, members_total: int, progress
               ) -> "SweepTelemetry":
        """Coerce a ``run_experiment``-style ``progress`` value (a
        :class:`TelemetryBus`, a callable sink, or a truthy flag)."""
        if isinstance(progress, TelemetryBus):
            return cls(source, members_total, bus=progress)
        return cls(source, members_total,
                   sink=progress if callable(progress) else None)

    @property
    def records(self) -> List[Dict[str, Any]]:
        return self.bus.records

    def _sample(self) -> Dict[str, Any]:
        done, total = self.members_done, self.members_total
        tasks_done, tasks_total = self.tasks_done, self.tasks_total
        if done == 0 and self._cohort is not None:
            tasks_done, tasks_total = self._cohort
        return {
            "members_done": done,
            "members_total": total,
            "tasks_total": tasks_total,
            "tasks_done": tasks_done,
            "tasks_failed": self.tasks_failed,
            "members_cached": self.members_cached,
            "members_resumed": self.members_resumed,
            "progress": round(done / total, 6) if total else 0.0,
            "eta_seconds": self.eta.estimate(self.bus.elapsed(), done),
            "eta_basis": "wall",
            "rss_mb": round(host_rss_mb(), 3),
        }

    def member_done(self, result) -> Optional[Dict[str, Any]]:
        """Record one completed member's
        :class:`~repro.experiments.harness.ExperimentResult`; emits
        unconditionally when it is the last one so every sweep
        produces at least one record.

        ``"cached"`` (run-store hit) and ``"resumed"`` (sweep-ledger
        rehydration) members, by ``result.provenance``, are counted
        separately so the stream shows how much of a sweep was
        actually simulated."""
        self.members_done += 1
        provenance = result.provenance
        if provenance == "cached":
            self.members_cached += 1
        elif provenance == "resumed":
            self.members_resumed += 1
        self.tasks_total = (self.tasks_total or 0) + int(result.n_tasks)
        self.tasks_done += int(result.n_done)
        self.tasks_failed += int(result.n_failed)
        if self.members_done >= self.members_total:
            return self.bus.emit(self._sample())
        return self.bus.poll(self._sample)

    def cohort(self, tasks_done: int, tasks_total: int
               ) -> Optional[Dict[str, Any]]:
        """Mid-flight task progress from a lock-stepped engine: all
        members advance together, so counts are cohort-index times
        member count.  Rate-limited; read-only on engine state."""
        self._cohort = (int(tasks_done), int(tasks_total))
        return self.bus.poll(self._sample)

    def tick(self) -> Optional[Dict[str, Any]]:
        """Rate-limited heartbeat with the current counters."""
        return self.bus.poll(self._sample)


# ---------------------------------------------------------------------------
# Rendering and consumption
# ---------------------------------------------------------------------------


def _fmt_eta(seconds: Optional[float]) -> str:
    if seconds is None:
        return "?"
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.1f}s"


def render_progress_line(record: Dict[str, Any]) -> str:
    """One human-readable status line for a telemetry record."""
    done = record.get("tasks_done", 0)
    total = record.get("tasks_total")
    frac = f"{record.get('progress', 0.0):.1%}"
    counts = f"{done}/{total if total is not None else '?'}"
    parts = [f"[{record.get('wall_time', 0.0):8.2f}s]",
             record.get("source", "?"), f"{counts} ({frac})"]
    sim = record.get("sim_time")
    if sim is not None:
        parts.append(f"sim {sim:.1f}s")
    eta = record.get("eta_seconds")
    basis = record.get("eta_basis", "sim")
    parts.append(f"eta[{basis}] {_fmt_eta(eta)}")
    backends = record.get("backends") or {}
    for name, occ in backends.items():
        parts.append(f"{name} a{occ.get('active', 0)}/q{occ.get('queued', 0)}")
    members = record.get("members_total")
    if members is not None:
        parts.append(f"seeds {record.get('members_done', 0)}/{members}")
        cached = record.get("members_cached", 0)
        resumed = record.get("members_resumed", 0)
        if cached:
            parts.append(f"cached {cached}")
        if resumed:
            parts.append(f"resumed {resumed}")
    if record.get("nodes_down"):
        parts.append(f"down {record['nodes_down']}")
    parts.append(f"rss {record.get('rss_mb', 0.0):.0f}MB")
    return "  ".join(str(p) for p in parts)


def line_sink(stream: Optional[TextIO] = None
              ) -> Callable[[Dict[str, Any]], None]:
    """A subscriber printing one rendered line per record."""
    out = stream if stream is not None else sys.stderr

    def write(record: Dict[str, Any]) -> None:
        print(render_progress_line(record), file=out, flush=True)
    return write


def jsonl_sink(stream: Optional[TextIO] = None
               ) -> Callable[[Dict[str, Any]], None]:
    """A subscriber printing one JSON object per record (the machine
    feed ``run --progress jsonl`` exposes)."""
    out = stream if stream is not None else sys.stderr

    def write(record: Dict[str, Any]) -> None:
        print(json.dumps(record, sort_keys=True), file=out, flush=True)
    return write


def read_telemetry(path) -> List[Dict[str, Any]]:
    """Load a ``telemetry.jsonl`` file (one record per line)."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


# ---------------------------------------------------------------------------
# Schema validation
# ---------------------------------------------------------------------------

_NUMBER = (int, float)


def validate_telemetry(record: Dict[str, Any]) -> List[str]:
    """Schema-check one record; returns a list of problems (empty =
    valid).  This is the stability contract consumers (the CLI
    renderer, the future SSE forwarder) rely on, pinned by the
    observability tests for every execution shape.
    """
    problems: List[str] = []

    def need(field: str, kinds, none_ok: bool = False) -> Any:
        if field not in record:
            problems.append(f"missing field {field!r}")
            return None
        value = record[field]
        if value is None:
            if not none_ok:
                problems.append(f"{field}: must not be null")
            return None
        if not isinstance(value, kinds) or isinstance(value, bool):
            problems.append(f"{field}: bad type {type(value).__name__}")
            return None
        return value

    if need("schema", int) != TELEMETRY_SCHEMA:
        problems.append(f"schema: expected {TELEMETRY_SCHEMA}")
    source = need("source", str)
    if source is not None and source not in TELEMETRY_SOURCES:
        problems.append(f"source: unknown {source!r}")
    seq = need("seq", int)
    if seq is not None and seq < 0:
        problems.append("seq: negative")
    wall = need("wall_time", _NUMBER)
    if wall is not None and wall < 0:
        problems.append("wall_time: negative")
    need("tasks_done", int)
    need("tasks_total", int, none_ok=True)
    need("tasks_failed", int)
    progress = need("progress", _NUMBER)
    if progress is not None and not 0.0 <= progress <= 1.0:
        problems.append(f"progress: {progress} outside [0, 1]")
    need("eta_seconds", _NUMBER, none_ok=True)
    basis = need("eta_basis", str)
    if basis is not None and basis not in ("sim", "wall"):
        problems.append(f"eta_basis: unknown {basis!r}")
    need("rss_mb", _NUMBER)

    if source == "plain":
        need("sim_time", _NUMBER)
        backends = need("backends", dict)
        if backends is not None:
            for name, occ in backends.items():
                if not isinstance(occ, dict) or \
                        not {"active", "queued"} <= set(occ):
                    problems.append(f"backends[{name!r}]: needs "
                                    "active/queued")
        need("nodes_down", int)
    if source in ("ensemble", "parallel"):
        need("members_done", int)
        need("members_total", int)
    return problems
