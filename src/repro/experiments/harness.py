"""The experiment harness: config -> full stack run -> metrics.

:func:`run_experiment` builds a session on a Frontier-like cluster,
submits a pilot with the configured backend partitions, generates the
workload, executes it, and returns an :class:`ExperimentResult` with
the paper's three metrics plus the raw task list for time-series
analysis.  :func:`run_repetitions` aggregates several seeds the way
the paper reports average and maximum throughput across repetitions:
it is :func:`run_ensemble`'s aggregate, so every multi-seed sweep
runs through the one ensemble path (vectorized where the config
qualifies, per-seed replay otherwise; in-process or pooled; memoized
per seed by the run store).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..analytics.metrics import (
    ThroughputStats,
    makespan,
    startup_overheads,
    task_throughput,
    utilization,
)
from ..core.description import (
    PartitionSpec,
    PilotDescription,
    TaskDescription,
)
from ..core.session import Session
from ..core.task import Task
from ..exceptions import ConfigurationError
from ..faults import FaultReport
from ..platform.latency import FRONTIER_LATENCIES, LatencyModel
from ..platform.profiles import FRONTIER_CORES_PER_NODE, frontier
from ..workloads.impeccable import CampaignRunner
from ..workloads.synthetic import (
    dummy_workload,
    mixed_workload,
    task_count,
)
from .configs import (
    LAUNCHER_DRAGON,
    LAUNCHER_FLUX,
    LAUNCHER_HYBRID,
    LAUNCHER_PRRTE,
    LAUNCHER_SRUN,
    WORKLOAD_DUMMY,
    WORKLOAD_IMPECCABLE,
    WORKLOAD_MIXED,
    WORKLOAD_NULL,
    ExperimentConfig,
)


@dataclass
class ExperimentResult:
    """Metrics and raw data from one experiment run."""

    config: ExperimentConfig
    n_tasks: int
    n_done: int
    n_failed: int
    throughput: ThroughputStats
    utilization_cores: float
    utilization_gpus: float
    makespan: float
    startup_overheads: List[Tuple[str, float]]
    tasks: List[Task] = field(repr=False, default_factory=list)
    session: Optional[Session] = field(repr=False, default=None)
    wall_seconds: float = 0.0
    #: Fault-injection summary; ``None`` when the run had no fault model.
    faults: Optional[FaultReport] = None
    #: How this result was produced: ``"fresh"`` (simulated in this
    #: call) or ``"cached"`` (delivered from a content-addressed run
    #: store).  Identical metrics either way — provenance is
    #: bookkeeping, never a behavior difference.
    provenance: str = "fresh"
    #: Run-store interaction record (``None`` when caching was off):
    #: ``{"digest": ..., "hit": bool}`` plus ``"stored"`` on misses
    #: that populated the store.
    cache: Optional[dict] = None

    @property
    def throughput_avg(self) -> float:
        return self.throughput.avg

    @property
    def throughput_peak(self) -> float:
        return self.throughput.peak


def build_pilot_description(cfg: ExperimentConfig) -> PilotDescription:
    """Backend partitioning for one launcher configuration."""
    # Heterogeneous IMPECCABLE mixes need backfill; the homogeneous
    # synthetic workloads use plain FCFS (nothing to backfill).
    policy = "easy" if cfg.workload == WORKLOAD_IMPECCABLE else "fcfs"
    if cfg.launcher == LAUNCHER_SRUN:
        parts = (PartitionSpec("srun"),)
    elif cfg.launcher == LAUNCHER_FLUX:
        parts = (PartitionSpec("flux", n_instances=cfg.n_partitions,
                               policy=policy),)
    elif cfg.launcher == LAUNCHER_DRAGON:
        parts = (PartitionSpec("dragon", n_instances=cfg.n_partitions),)
    elif cfg.launcher == LAUNCHER_PRRTE:
        parts = (PartitionSpec("prrte"),)
    elif cfg.launcher == LAUNCHER_HYBRID:
        # Equal node shares and equal instance counts per runtime (§4.1.5).
        parts = (
            PartitionSpec("flux", n_instances=cfg.n_partitions),
            PartitionSpec("dragon", n_instances=cfg.n_partitions),
        )
    else:  # pragma: no cover - guarded by config validation
        raise ConfigurationError(f"unknown launcher {cfg.launcher!r}")
    return PilotDescription(nodes=cfg.n_nodes, partitions=parts)


def build_workload(cfg: ExperimentConfig,
                   cores_per_node: int = FRONTIER_CORES_PER_NODE
                   ) -> List[TaskDescription]:
    """The task set for one synthetic experiment run."""
    n = task_count(cfg.n_nodes, cores_per_node, cfg.waves)
    if cfg.workload == WORKLOAD_NULL:
        return dummy_workload(n, duration=0.0)
    if cfg.workload == WORKLOAD_DUMMY:
        return dummy_workload(n, duration=cfg.duration)
    if cfg.workload == WORKLOAD_MIXED:
        half = n // 2
        return mixed_workload(n - half, half, duration=cfg.duration)
    raise ConfigurationError(
        f"workload {cfg.workload!r} is not synthetic; use run_experiment")


def _attach_telemetry(session: Session, cfg: ExperimentConfig,
                      latencies: LatencyModel, progress, host):
    """Build and attach one run's live telemetry plumbing.

    ``host`` is the run's wall-clock phase profiler, sampled into
    every record.  ``progress`` is a :class:`~repro.observability.
    telemetry.TelemetryBus` (used as-is), a callable (subscribed as
    the sink of a fresh bus), or any other truthy value (fresh bus, no
    sink — the records still land in the bundle).  The ETA prior comes from the
    fluid surrogate when it covers the launcher.
    """
    from ..exceptions import ReproError
    from ..observability.telemetry import (
        EtaEstimator,
        RunTelemetry,
        SessionSampler,
        TelemetryBus,
    )

    if isinstance(progress, TelemetryBus):
        bus = progress
    else:
        bus = TelemetryBus("plain",
                           sink=progress if callable(progress) else None)
    prior = None
    try:
        from ..ensemble.surrogate import FluidSurrogate

        prior = FluidSurrogate(latencies).predict(cfg).makespan
    except ReproError:
        pass  # launcher outside the surrogate's coverage: rate-only ETA
    sampler = SessionSampler(session, eta=EtaEstimator(None, prior),
                             host=host)
    telemetry = RunTelemetry(bus, sampler)
    session.telemetry = telemetry
    session.profiler.attach_probe(telemetry.probe())
    return telemetry


def run_experiment(cfg: ExperimentConfig,
                   latencies: LatencyModel = FRONTIER_LATENCIES,
                   keep_session: bool = False,
                   bundle: Optional[str] = None,
                   spill_dir=None,
                   progress=None,
                   cache=None) -> ExperimentResult:
    """Run one experiment end-to-end and compute its metrics.

    ``bundle`` names a directory to write the run's observability
    bundle into (manifest, spans, Perfetto trace, raw profile,
    telemetry).  ``spill_dir`` streams the profiler's trace to chunked
    files under that directory, bounding memory on full-machine runs.
    Both leave the simulated event order untouched: same-seed runs
    produce byte-identical traces with or without them.

    ``progress`` turns on the live telemetry bus: pass a sink
    callable, a pre-built ``TelemetryBus``, or ``True``.  The profiler
    fires its probe every few thousand records; sampling is read-only
    and wall-clock rate-limited, so — like the other switches —
    same-seed traces stay byte-identical with it on or off.

    ``cache`` memoizes the run through a content-addressed store (a
    :class:`~repro.store.RunStore` or a directory path; ``None`` —
    the default — leaves every path exactly as before).  The run is
    keyed by a digest of (normalized config, seed, code fingerprint);
    a verified hit returns the stored metrics (and the
    byte-exact profile, via the store API) in milliseconds without
    building a session, and a miss simulates then populates the
    store.  Hits are task-free (``tasks=[]``, ``session=None``, like
    parallel results), so runs that need live state — ``keep_session``
    or ``bundle`` — always simulate fresh; they still populate the
    store on the way out.
    """
    wall0 = time.perf_counter()
    store = run_key = None
    if cache is not None:
        from ..store import RunStore

        store = RunStore.resolve(cache)
        run_key = store.digest_for(cfg)
        if keep_session is False and bundle is None:
            cached = store.load_result(cfg, run_key)
            if cached is not None:
                cached.wall_seconds = time.perf_counter() - wall0
                return cached
    session = Session(cluster=frontier(max(cfg.n_nodes, 1)),
                      latencies=latencies, seed=cfg.seed,
                      faults=cfg.faults, spill_dir=spill_dir)
    from ..observability.telemetry import HostProfiler

    host = HostProfiler()
    # A bundle run records telemetry even without a live sink, so
    # ``trace watch`` always has something to replay from the bundle.
    telemetry = (_attach_telemetry(session, cfg, latencies, progress, host)
                 if progress is not None or bundle is not None else None)
    with host.phase("setup"):
        pmgr = session.pilot_manager()
        tmgr = session.task_manager()
        pilot = pmgr.submit_pilots(build_pilot_description(cfg))
        tmgr.add_pilot(pilot)
    if telemetry is not None:
        telemetry.sampler.pilot = pilot

    if cfg.workload == WORKLOAD_IMPECCABLE:
        # Campaign tasks are generated adaptively mid-run, so the
        # telemetry total stays unknown (ETA falls back to the prior).
        runner = CampaignRunner(session, tmgr, pilot, cfg.n_nodes,
                                generations=cfg.generations,
                                adaptive=cfg.adaptive)
        with host.phase("run"):
            session.run(runner.start())
        tasks = runner.result.tasks
    else:
        with host.phase("workload"):
            tasks = tmgr.submit_tasks(
                build_workload(cfg, session.cluster.cores_per_node))
        if telemetry is not None:
            telemetry.sampler.tasks_total = len(tasks)
        with host.phase("run"):
            session.run(tmgr.wait_tasks())
    if telemetry is not None:
        telemetry.sampler.tasks_total = len(tasks)
    with host.phase("metrics"):
        total_cores = cfg.n_nodes * session.cluster.cores_per_node
        total_gpus = cfg.n_nodes * session.cluster.gpus_per_node
        span = makespan(tasks)
        result = ExperimentResult(
            config=cfg,
            n_tasks=len(tasks),
            n_done=sum(1 for t in tasks if t.succeeded),
            n_failed=sum(1 for t in tasks if t.state == "FAILED"),
            throughput=task_throughput(tasks),
            utilization_cores=utilization(tasks, total_cores),
            utilization_gpus=(utilization(tasks, total_gpus, resource="gpus")
                              if total_gpus else 0.0),
            makespan=span,
            startup_overheads=startup_overheads(session.profiler),
            tasks=tasks,
            session=session if keep_session else None,
            wall_seconds=time.perf_counter() - wall0,
            faults=(FaultReport.collect(session.faults, tasks, span)
                    if session.faults is not None else None),
        )
        if store is not None:
            # Populate on miss (or bypassed read): the profile is
            # encoded through ``write_profile``, the writer behind
            # ``save_profile``, so a later hit delivers a byte-identical
            # trace.  Losing a publication race to a concurrent writer
            # costs nothing — the winner's entry is byte-identical by the
            # determinism contract.
            from ..store.store import export_profile_bytes

            stored = store.put(run_key, cfg, result,
                               export_profile_bytes(session.profiler))
            result.cache = {"digest": run_key, "hit": False, "stored": stored}
    if telemetry is not None:
        # The final record: every progress-enabled run emits at least
        # one snapshot regardless of how briefly it ran.
        telemetry.flush()
    if bundle is not None:
        write_run_bundle(bundle, cfg, session, result)
    session.close()
    return result


def write_run_bundle(directory, cfg: ExperimentConfig, session: Session,
                     result: Optional[ExperimentResult] = None):
    """Write the observability bundle for a finished run.

    Spans are rebuilt from the session's profiler, the one record of
    the run, so ``spans.json`` and ``trace.json`` are pure functions
    of the bundle's ``profile.jsonl``.  Returns
    ``{artifact name: path}``.
    """
    from ..observability import build_manifest, spans_from_profiler
    from ..observability.manifest import write_bundle

    spans = None
    if len(session.profiler):
        spans = spans_from_profiler(session.profiler, session_uid=session.uid)
    manifest = build_manifest(config=cfg, session=session, result=result)
    return write_bundle(directory, manifest,
                        spans=spans,
                        profiler=session.profiler,
                        telemetry=(session.telemetry.records
                                   if session.telemetry is not None
                                   else None))


@dataclass(frozen=True)
class AggregateResult:
    """Across-repetition aggregation (the paper's avg / max)."""

    config: ExperimentConfig
    n_reps: int
    throughput_avg: float      #: mean of per-rep average rates
    throughput_max: float      #: max of per-rep peak rates
    utilization_avg: float
    makespan_avg: float
    results: Tuple[ExperimentResult, ...] = field(repr=False, default=())

    @classmethod
    def of(cls, cfg: ExperimentConfig,
           results: Sequence[ExperimentResult]) -> "AggregateResult":
        """Aggregate one sweep's per-seed results."""
        n = len(results)
        return cls(
            config=cfg,
            n_reps=n,
            throughput_avg=sum(r.throughput.avg for r in results) / n,
            throughput_max=max(r.throughput.peak for r in results),
            utilization_avg=sum(r.utilization_cores for r in results) / n,
            makespan_avg=sum(r.makespan for r in results) / n,
            results=tuple(results),
        )

    @property
    def provenance(self) -> dict:
        """Per-seed provenance counts (``fresh``/``cached``) across the
        repetitions — how many were actually simulated vs delivered
        from the run store."""
        counts: dict = {}
        for result in self.results:
            kind = getattr(result, "provenance", "fresh")
            counts[kind] = counts.get(kind, 0) + 1
        return counts


def run_repetitions(cfg: ExperimentConfig, n_reps: Optional[int] = None,
                    latencies: LatencyModel = FRONTIER_LATENCIES,
                    parallel=None, seeds=None,
                    progress=None, cache=None) -> AggregateResult:
    """Run several seeds of one configuration and aggregate.

    ``run_ensemble(cfg, ...).aggregate()``: the seeds, engine,
    ``parallel`` fan-out, ``progress`` telemetry (``source:
    "ensemble"``) and per-seed ``cache`` memoization are exactly
    :func:`run_ensemble`'s.  ``seeds`` names the repetition seeds (a
    sequence of ints or a spec string like ``"1,2,5-20"``); otherwise
    the sweep derives ``cfg.seed + rep`` for ``n_reps`` repetitions (3
    by default).  Passing both raises
    :class:`~repro.exceptions.ConfigurationError`.

    Every member is identical to an independent
    :func:`run_experiment` at its seed, so the aggregate does not
    depend on the engine or the worker count.  Only in-process replay
    members keep their per-task objects; vectorized, cached and pooled
    members are task-free.  A restarted sweep with the same ``cache`` store
    simulates only the seeds the store does not hold yet.
    """
    return run_ensemble(cfg, seeds=seeds, n_reps=n_reps,
                        latencies=latencies, parallel=parallel,
                        progress=progress, cache=cache).aggregate()


def run_ensemble(cfg: ExperimentConfig, seeds=None, n_reps=None,
                 latencies: LatencyModel = FRONTIER_LATENCIES,
                 **kwargs):
    """Batched multi-seed sweep; see :func:`repro.ensemble.run_ensemble`.

    Re-exported here so sweep code has one import site: the per-member
    results and profiles come from here, the aggregate from
    :func:`run_repetitions`.
    """
    from ..ensemble import run_ensemble as _run_ensemble

    return _run_ensemble(cfg, seeds=seeds, n_reps=n_reps,
                         latencies=latencies, **kwargs)
