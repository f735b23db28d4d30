"""The experiment harness: config -> full stack run -> metrics.

:func:`run_experiment` builds a session on a Frontier-like cluster,
submits a pilot with the configured backend partitions, generates the
workload, executes it, and returns an :class:`ExperimentResult` with
the paper's three metrics plus the raw task list for time-series
analysis.  :func:`run_repetitions` aggregates several seeds the way
the paper reports average and maximum throughput across repetitions.
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
    #: call), ``"cached"`` (delivered from a content-addressed run
    #: store), or ``"resumed"`` (rebuilt from a sweep ledger instead
    #: of re-running).  Identical metrics either way — provenance is
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
    session.env._probe = telemetry.probe()
    return telemetry


def run_experiment(cfg: ExperimentConfig,
                   latencies: LatencyModel = FRONTIER_LATENCIES,
                   keep_session: bool = False,
                   observe: bool = False,
                   bundle: Optional[str] = None,
                   spill_dir=None,
                   descriptions: Optional[List[TaskDescription]] = None,
                   progress=None,
                   resilience=None,
                   cache=None,
                   _resume_verify=None,
                   _derived_descriptions: bool = False
                   ) -> ExperimentResult:
    """Run one experiment end-to-end and compute its metrics.

    ``observe`` enables the session's observability layer (metrics
    registry + online tracer); ``bundle`` names a directory to write
    the run's observability bundle into (manifest, metrics, spans,
    Perfetto trace, raw profile) and implies ``observe``.
    ``spill_dir`` streams the profiler's trace to chunked files under
    that directory, bounding memory on full-machine runs.  All three
    leave the simulated event order untouched: same-seed runs produce
    byte-identical traces with or without them.

    ``descriptions`` supplies a pre-built synthetic workload, letting
    sweep callers (:func:`run_repetitions`, the ensemble engine) pay
    description construction once for all seeds — the descriptions
    are immutable and seed-independent, so sharing them across runs
    cannot change any outcome.  Ignored for the IMPECCABLE campaign,
    which generates tasks adaptively inside the run.

    ``progress`` turns on the live telemetry bus (implies
    ``observe``): pass a sink callable, a pre-built ``TelemetryBus``,
    or ``True``.  Sampling is read-only and wall-clock rate-limited,
    so — like the other switches — same-seed traces stay
    byte-identical with it on or off.

    ``resilience`` is an optional
    :class:`~repro.resilience.ResilienceSpec`: a checkpoint directory
    arms periodic durable checkpoints of the run's progress
    watermarks.  Checkpointing is wall-clock-side and trace-inert
    (see ``docs/RESILIENCE.md``).  ``_resume_verify`` is
    internal resume plumbing — the checkpointed state document the
    replay must match (see :func:`resume_experiment`).

    ``cache`` memoizes the run through a content-addressed store (a
    :class:`~repro.store.RunStore` or a directory path; ``None`` —
    the default — leaves every path exactly as before).  The run is
    keyed by a digest of (normalized config, seed, workload, code
    fingerprint); a verified hit returns the stored metrics (and the
    byte-exact profile, via the store API) in milliseconds without
    building a session, and a miss simulates then populates the
    store.  Hits are task-free (``tasks=[]``, ``session=None``, like
    parallel results), so runs that need live state — ``keep_session``,
    ``bundle``, checkpoint resume — always simulate fresh; they still
    populate the store on the way out.  ``_derived_descriptions``
    marks a caller-supplied ``descriptions`` list as the canonical
    :func:`build_workload` output (sweep callers hoist construction),
    keeping its digest identical to a derive-it-yourself run.
    """
    wall0 = time.perf_counter()
    store = run_key = None
    if cache is not None:
        from ..store import RunStore

        store = RunStore.resolve(cache)
        run_key = store.digest_for(
            cfg, descriptions=descriptions,
            derived=_derived_descriptions or descriptions is None)
        if keep_session is False and bundle is None and \
                _resume_verify is None:
            cached = store.load_result(cfg, run_key)
            if cached is not None:
                cached.wall_seconds = time.perf_counter() - wall0
                return cached
    observe = observe or bundle is not None or progress is not None
    checkpointer = None
    if resilience is not None and resilience.checkpointing:
        from ..resilience.checkpoint import RunCheckpointer

        checkpointer = RunCheckpointer(resilience.checkpoint_dir, cfg,
                                       resilience, verify=_resume_verify)
    session = Session(cluster=frontier(max(cfg.n_nodes, 1)),
                      latencies=latencies, seed=cfg.seed, observe=observe,
                      faults=cfg.faults, spill_dir=spill_dir)
    if checkpointer is not None:
        checkpointer.attach(session)
    from ..observability.telemetry import HostProfiler

    host = HostProfiler()
    # A bundle run records telemetry even without a live sink, so
    # ``trace watch`` always has something to replay from the bundle.
    telemetry = (_attach_telemetry(session, cfg, latencies, progress, host)
                 if progress is not None or bundle is not None else None)
    span = session.obs.tracer.begin(
        "experiment", cat="experiment",
        launcher=cfg.launcher, workload=cfg.workload, seed=cfg.seed)
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
            if descriptions is None:
                descriptions = build_workload(
                    cfg, session.cluster.cores_per_node)
            tasks = tmgr.submit_tasks(descriptions)
        if telemetry is not None:
            telemetry.sampler.tasks_total = len(tasks)
        with host.phase("run"):
            session.run(tmgr.wait_tasks())
    session.obs.tracer.end(span)
    if telemetry is not None:
        telemetry.sampler.tasks_total = len(tasks)
    with host.phase("metrics"):
        total_cores = cfg.n_nodes * session.cluster.cores_per_node
        total_gpus = cfg.n_nodes * session.cluster.gpus_per_node
        result = ExperimentResult(
            config=cfg,
            n_tasks=len(tasks),
            n_done=sum(1 for t in tasks if t.succeeded),
            n_failed=sum(1 for t in tasks if t.state == "FAILED"),
            throughput=task_throughput(tasks),
            utilization_cores=utilization(tasks, total_cores),
            utilization_gpus=(utilization(tasks, total_gpus, resource="gpus")
                              if total_gpus else 0.0),
            makespan=makespan(tasks),
            startup_overheads=startup_overheads(session.profiler),
            tasks=tasks,
            session=session if keep_session else None,
            wall_seconds=time.perf_counter() - wall0,
            faults=(FaultReport.collect(session.faults, tasks, makespan(tasks))
                    if session.faults is not None else None),
        )
        if store is not None:
            # Populate on miss (or bypassed read): the profile export is
            # the same ``save_profile`` bytes a fresh export produces, so
            # a later hit delivers a byte-identical trace.  Losing a
            # publication race to a concurrent writer costs nothing — the
            # winner's entry is byte-identical by the determinism
            # contract.
            stored = store.put(run_key, cfg, result,
                               profiler=session.profiler)
            result.cache = {"digest": run_key, "hit": False, "stored": stored}
        if checkpointer is not None:
            # The final (complete) checkpoint — and, on a resume, the
            # point where a replay that never crossed the watermark fails
            # loudly instead of pretending it continued anything.
            checkpointer.close(complete=True)
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

    Spans are reconstructed offline from the session's profiler (the
    authoritative record); live tracer spans — e.g. the harness's
    ``experiment`` span and agent bootstrap spans — ride along under
    the session root.  Returns ``{artifact name: path}``.
    """
    from ..observability import build_manifest, spans_from_profiler
    from ..observability.manifest import write_bundle

    spans = None
    if session.profiler.enabled and len(session.profiler):
        spans = spans_from_profiler(session.profiler, session_uid=session.uid)
        live = [s for s in session.obs.tracer.roots if s.closed]
        live.sort(key=lambda s: (s.start, s.name))
        spans.children.extend(live)
    manifest = build_manifest(config=cfg, session=session, result=result)
    return write_bundle(directory, manifest,
                        registry=session.obs.registry,
                        spans=spans,
                        profiler=session.profiler,
                        telemetry=(session.telemetry.records
                                   if session.telemetry is not None
                                   else None))


def resume_experiment(directory,
                      latencies: LatencyModel = FRONTIER_LATENCIES,
                      **kwargs) -> ExperimentResult:
    """Continue an interrupted checkpointed run to completion.

    Loads the checkpoint header from ``directory``, rebuilds the exact
    config (seed included), and re-executes the run deterministically;
    when the replayed clock reaches the checkpoint's watermark the
    live kernel/RNG/profile state is compared against the snapshot and
    a mismatch raises :class:`~repro.exceptions.CheckpointError`.  The
    returned result — and any profile written from it — is
    byte-identical to the uninterrupted run's, which is the whole
    point: resume never invents a state the original run would not
    have reached.  ``kwargs`` pass through to :func:`run_experiment`
    (``keep_session``, ``bundle``, ...).
    """
    from ..resilience.checkpoint import config_from_doc, load_checkpoint
    from ..resilience.spec import ResilienceSpec

    doc = load_checkpoint(directory)
    cfg = config_from_doc(doc["config"])
    spec = ResilienceSpec.from_doc(
        dict(doc.get("spec", {}), checkpoint_dir=str(directory)))
    return run_experiment(cfg, latencies, resilience=spec,
                          _resume_verify=doc.get("state"), **kwargs)


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

    @property
    def provenance(self) -> dict:
        """Per-seed provenance counts (``fresh``/``cached``/
        ``resumed``) across the repetitions — how many were actually
        simulated vs delivered from the run store or sweep ledger."""
        counts: dict = {}
        for result in self.results:
            kind = getattr(result, "provenance", "fresh")
            counts[kind] = counts.get(kind, 0) + 1
        return counts


def run_repetitions(cfg: ExperimentConfig, n_reps: int = 3,
                    latencies: LatencyModel = FRONTIER_LATENCIES,
                    parallel=None, seeds=None,
                    progress=None, checkpoint=None,
                    resilience=None, cache=None) -> AggregateResult:
    """Run several seeds of one configuration and aggregate.

    ``seeds`` names the repetition seeds explicitly — a sequence of
    ints or a CLI-style spec string (``"1,2,5-20"``); the default
    derives ``cfg.seed + rep`` for ``n_reps`` repetitions.

    ``parallel`` fans the repetitions out over worker processes
    (``"auto"``/``0`` = one per core, an int = that many workers; see
    :mod:`repro.experiments.parallel`).  Each repetition is an
    independent seeded simulation, so the aggregate is identical to
    the serial loop's — but parallel results carry no per-task objects
    (``ExperimentResult.tasks`` is empty; tasks cannot cross the
    process boundary).  The default (``None``) keeps the serial path.

    ``progress`` streams sweep telemetry (``source: "parallel"``,
    one record per completed repetition, wall-clock ETA): a callable
    sink, a pre-built
    :class:`~repro.observability.telemetry.TelemetryBus`, or any
    truthy value for buffered-only records.

    ``checkpoint`` names a directory for a durable sweep ledger: each
    finished repetition's metrics document is recorded atomically, and
    a restarted sweep with the same directory skips every repetition
    already in the ledger (their results are rebuilt from the ledger,
    task-free, like parallel results).  Each repetition is an
    independent seeded run, so skip-and-reload aggregates identically
    to rerunning.

    ``resilience`` is passed to each serial repetition (see
    :class:`~repro.resilience.ResilienceSpec`); its ``checkpoint_dir``
    must be unset — per-rep run checkpoints would clobber each other,
    the sweep ledger is the durable state here.

    ``cache`` memoizes each repetition through a content-addressed
    run store at **per-seed granularity** — a 64-seed sweep with 60
    seeds already stored simulates only the missing 4.  Each
    result's :attr:`~ExperimentResult.provenance` says whether it was
    simulated (``fresh``), delivered from the store (``cached``), or
    rebuilt from the ledger (``resumed``); the aggregate's
    :attr:`~AggregateResult.provenance` counts them, and sweep
    telemetry records carry the same per-member classification.
    """
    if resilience is not None and resilience.checkpointing:
        raise ConfigurationError(
            "run checkpoints do not compose with repetitions; pass "
            "checkpoint= for a sweep ledger instead")
    if seeds is not None:
        from ..ensemble.seeds import resolve_seeds

        seed_list = resolve_seeds(seeds)
    else:
        if n_reps < 1:
            raise ConfigurationError("n_reps must be >= 1")
        seed_list = [cfg.seed + rep for rep in range(n_reps)]
    n_reps = len(seed_list)
    cfgs = [cfg.with_seed(seed) for seed in seed_list]
    telemetry = None
    if progress is not None:
        from ..observability.telemetry import SweepTelemetry

        telemetry = SweepTelemetry.create("parallel", n_reps, progress)

    def rep_done(result):
        if telemetry is not None:
            telemetry.member_done(result.n_tasks, result.n_done,
                                  result.n_failed,
                                  provenance=result.provenance)
    # Per-sweep setup is paid once: the synthetic workload is
    # seed-independent, so every repetition submits the same immutable
    # descriptions (the campaign workload generates its own tasks).
    shared = (build_workload(cfg, frontier(max(cfg.n_nodes, 1)).cores_per_node)
              if cfg.workload != WORKLOAD_IMPECCABLE else None)
    ledger = None
    if checkpoint is not None:
        from ..resilience.checkpoint import SweepLedger

        ledger = SweepLedger(checkpoint)
    serial = True
    if parallel is not None:
        from .parallel import resolve_jobs, run_many

        if resolve_jobs(parallel, n_items=n_reps) > 1:
            serial = False
            results = run_many(
                cfgs, latencies, jobs=parallel,
                progress=(lambda done, total, r: rep_done(r))
                if telemetry is not None else None,
                ledger=ledger, cache=cache)
    if serial:
        from ..resilience.checkpoint import result_from_doc

        results = []
        for c in cfgs:
            if ledger is not None:
                doc = ledger.completed(c)
                if doc is not None:
                    # Finished before the interruption: rebuild from
                    # the ledger instead of re-simulating.
                    result = result_from_doc(c, doc)
                    result.provenance = "resumed"
                    results.append(result)
                    rep_done(result)
                    continue
            result = run_experiment(c, latencies, descriptions=shared,
                                    resilience=resilience, cache=cache,
                                    _derived_descriptions=True)
            if ledger is not None:
                ledger.record(c, result)
            results.append(result)
            rep_done(result)
    return AggregateResult(
        config=cfg,
        n_reps=n_reps,
        throughput_avg=sum(r.throughput.avg for r in results) / n_reps,
        throughput_max=max(r.throughput.peak for r in results),
        utilization_avg=sum(r.utilization_cores for r in results) / n_reps,
        makespan_avg=sum(r.makespan for r in results) / n_reps,
        results=tuple(results),
    )


def run_ensemble(cfg: ExperimentConfig, seeds=None, n_reps=None,
                 latencies: LatencyModel = FRONTIER_LATENCIES,
                 **kwargs):
    """Batched multi-seed sweep; see :func:`repro.ensemble.run_ensemble`.

    Re-exported here so sweep code has one import site for both
    execution shapes (`run_repetitions` for aggregate-only, ensembles
    for per-member results/profiles).
    """
    from ..ensemble import run_ensemble as _run_ensemble

    return _run_ensemble(cfg, seeds=seeds, n_reps=n_reps,
                         latencies=latencies, **kwargs)
