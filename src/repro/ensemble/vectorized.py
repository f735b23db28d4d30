"""Vectorized multi-seed execution of the launch pipelines.

The synthetic experiments (null/dummy single-core workloads) put every
task through a launcher-specific queueing network whose grant structure
is *deterministic given the latency draws*:

``srun``
    serial agent dispatch -> partition scheduler (``nodes * cpn`` core
    slots) -> srun concurrency ceiling (112 slots) -> serialized
    slurmctld launch pipeline -> step setup -> payload execution.
    Every stage grants strictly in task-submission order, so the event
    timestamps are an exact recurrence in the *task index*.

``flux`` (single instance)
    serial agent dispatch -> serialized job-manager ingest ->
    scheduler duty cycles (bursts of FCFS matching separated by
    heavy-tailed gaps) -> TBON dispatch lanes -> payload execution.
    Grants happen in batched scheduler cycles, not per-task order, so
    the recurrence advances over *cycle boundaries* instead: per cycle,
    the eligible set is the ingest-order prefix that has arrived by the
    cycle instant, and the grant count is the FCFS closed form
    ``min(eligible, free cores)`` (:meth:`FcfsPolicy.grant_count`).
    :mod:`repro.ensemble.vec_flux` implements the cohort state machine.

``dragon`` (single partition)
    serial agent dispatch -> ZMQ task pipe -> serialized GS bookkeeping
    -> worker-pool slot (cold exec spawn) -> payload execution — a
    per-task recurrence like srun's, with the completion record
    *backdated* relative to its ZMQ-delayed emission
    (:mod:`repro.ensemble.vec_dragon`).

This module holds the shared machinery (eligibility, bootstrap-preamble
capture, profile writing, result assembly) plus the srun engine, and
dispatches qualifying configs to the launcher-specific engines.  All of
them evaluate their recurrence for *all ensemble members at once*
(structure-of-arrays: ``(members,)`` vectors per pipeline stage,
``(members, slots)`` free-time tables for the counted semaphores),
advancing the member cohort in lock-step.

Exactness is the contract, not an approximation: the per-stage latency
draws come from the same named RNG streams via
:meth:`~repro.sim.random.RngStreams.lognormal_latency_batch` (bitwise
identical to the kernel's sequential draws), the float arithmetic
reproduces the kernel's one-addition-per-event order, and the bootstrap
preamble (allocation grant, agent + backend bring-up) is not modelled
at all — it is *captured* by running the real session machinery with an
empty intake.  For srun the bootstrap consumes no randomness, so one
capture serves every member; flux and dragon bootstraps draw their
startup (and flux its background-load factor) from per-seed streams, so
the capture runs once per member.

A member's profile goes from its column arrays straight to the bytes
``save_profile`` would write (:func:`member_profile_bytes`): no trace
events, no profiler.  The column writer spells each record from the
field helpers of :mod:`repro.analytics.export`, so the per-seed
profiles are byte-identical to independent sequential runs; the
determinism tests pin this.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analytics.events import (
    TASK_CREATED,
    TASK_DONE,
    TASK_EXEC_START,
    TASK_EXEC_STOP,
    TASK_SCHEDULED,
)
from ..analytics.export import (
    PROFILE_HEADER,
    RECORD_END,
    entity_field,
    float_repr,
    meta_field,
    name_field,
    write_event_lines,
)
from ..analytics.metrics import (
    startup_overheads,
    throughput,
    utilization_from_intervals,
)
from ..core.description import MODE_EXECUTABLE
from ..core.session import Session
from ..platform.latency import FRONTIER_LATENCIES, LatencyModel
from ..platform.profiles import frontier

_SRUN = "srun"
_FLUX = "flux"
_DRAGON = "dragon"
_SYNTHETIC = ("null", "dummy")

#: RNG streams each launcher's bootstrap legitimately consumes while
#: the intake is empty.  A capture that drew from anything else is
#: rejected (the recurrence could no longer re-draw the run streams
#: from a fresh family) — a guard against future backends violating
#: the assumption, not a path any current config takes.
_BOOTSTRAP_STREAMS = {
    _SRUN: frozenset(),
    _FLUX: frozenset({"flux.startup", "flux.load"}),
    _DRAGON: frozenset({"dragon.startup"}),
}


def supports_vectorized(cfg, latencies: LatencyModel = FRONTIER_LATENCIES
                        ) -> bool:
    """Whether ``cfg`` qualifies for a vectorized ensemble engine.

    Common requirements: a uniform single-core no-staging null/dummy
    workload, no fault injection.  On top of
    that, per launcher:

    * ``srun`` — always (the pipeline is FIFO in task order, ties
      cannot reorder grants);
    * ``flux`` — a single instance (sibling instances interleave
      unscoped session streams chronologically and couple through
      least-loaded routing — see
      :attr:`~repro.flux.hierarchy.FluxHierarchy.is_trivial`) and
      strictly positive dispatch/spawn/cycle noise: with degenerate
      (zero-cv) latencies, coincident events are ordered by kernel
      insertion order, which the closed-form recurrence does not model;
    * ``dragon`` — a single partition with positive dispatch/GS noise,
      for the same tie-ordering reason.

    Everything else falls back to the generic engine (same results,
    per-member replay — parallelized over seed cohorts by
    :func:`~repro.ensemble.run_ensemble`).
    """
    if cfg.workload not in _SYNTHETIC:
        return False
    if cfg.faults is not None:
        return False
    if _uniform_description(cfg) is None:
        return False
    if cfg.launcher == _SRUN:
        return True
    if cfg.n_partitions != 1 or latencies.agent_cv <= 0:
        return False
    if cfg.launcher == _FLUX:
        return (latencies.flux_cycle_cv > 0
                and latencies.flux_spawn_cv > 0)
    if cfg.launcher == _DRAGON:
        return latencies.dragon_cv > 0
    return False


def _uniform_description(cfg):
    """The shared task description when the workload is uniform
    single-core executable with no staging/retries, else ``None``."""
    descriptions = _workload(cfg)
    first = descriptions[0]
    if any(d is not first and d != first for d in descriptions):
        return None
    res = first.resources
    if (first.mode == MODE_EXECUTABLE
            and first.backend in (None, cfg.launcher)
            and res.cores == 1 and res.gpus == 0
            and first.input_staging == 0 and first.output_staging == 0
            and first.retries == 0):
        return first
    return None


def _workload(cfg):
    from ..experiments.harness import build_workload  # circular-safe

    return build_workload(cfg)


@dataclass(frozen=True)
class _Preamble:
    """A run prefix captured from the real stack (one seed's bootstrap)."""

    #: The alloc grant + agent/backend records, as profile lines.
    lines: str
    t_ready: float                    #: dispatch-stage start time
    overheads: List[Tuple[str, float]]  #: startup_overheads() rows
    #: The backend's ``backend_ready`` meta (flux: lanes + per-seed
    #: load factor; dragon: pool capacity); empty for srun.
    backend_meta: Dict = field(default_factory=dict)


def capture_preamble(cfg, latencies: LatencyModel = FRONTIER_LATENCIES,
                     seed: Optional[int] = None) -> Optional[_Preamble]:
    """Run the real bootstrap (no tasks) and capture its trace.

    With an empty admission queue the simulation runs allocation
    grant, agent bootstrap and backend bring-up, then the event queue
    drains.  The dispatch-anchor time is the
    ``pilot_active`` record — *not* the drained clock, which a stray
    bootstrap watchdog timer (dragon's startup timeout) can leave far
    past the pilot's activation.

    For srun the capture consumes no randomness and is reused across
    the whole ensemble; flux/dragon captures draw their bootstrap
    streams and run once per member ``seed``.  Returns ``None``
    (caller falls back to the generic engine) if the preamble drew
    from any stream outside the launcher's bootstrap set.
    """
    from ..experiments.harness import build_pilot_description

    allowed = _BOOTSTRAP_STREAMS.get(cfg.launcher, frozenset())
    session = Session(cluster=frontier(max(cfg.n_nodes, 1)),
                      latencies=latencies,
                      seed=cfg.seed if seed is None else seed)
    try:
        pmgr = session.pilot_manager()
        tmgr = session.task_manager()
        pilot = pmgr.submit_pilots(build_pilot_description(cfg))
        tmgr.add_pilot(pilot)
        session.env.run()
        if not set(session.rng._streams) <= allowed:
            return None
        records = tuple(session.profiler)
        t_ready = max((r.time for r in records
                       if r.name == "pilot_active"),
                      default=session.env.now)
        backend_meta: Dict = {}
        for record in records:
            if record.name == "backend_ready":
                backend_meta = dict(record.meta)
        lines = io.StringIO()
        write_event_lines(lines, records)
        return _Preamble(lines=lines.getvalue(),
                         t_ready=t_ready,
                         overheads=startup_overheads(session.profiler),
                         backend_meta=backend_meta)
    finally:
        session.close()


def dispatch_mean(cfg, latencies: LatencyModel) -> float:
    """Mean of the agent's serialized task-management cost [s].

    Mirrors :meth:`Agent._dispatch_mean` term by term (the coordination
    surcharge counts *flux* instances only) so the cached lognormal
    parameters match bitwise.
    """
    mean = (latencies.agent_dispatch_base
            + latencies.agent_dispatch_per_node * cfg.n_nodes)
    n_flux = cfg.n_partitions if cfg.launcher == _FLUX else 0
    return mean * (1.0 + latencies.agent_coord_per_instance * n_flux)


def dispatch_chain(dispatch: np.ndarray, t_ready: np.ndarray) -> np.ndarray:
    """Cumulative dispatch times ``D[m, i]`` from per-task draws.

    Accumulated task-by-task (one addition per event), matching the
    kernel's serialized dispatch stage float-for-float — ``np.cumsum``
    is not guaranteed to use the same summation order.
    """
    n_members, n_tasks = dispatch.shape
    out = np.empty_like(dispatch)
    t = np.asarray(t_ready, dtype=float).copy()
    for i in range(n_tasks):
        t = t + dispatch[:, i]
        out[:, i] = t
    return out


def _stage_means(cfg, latencies: LatencyModel) -> Tuple[float, float, float]:
    """Exact mean service times of srun's three stochastic stages.

    Mirrors :func:`dispatch_mean` (zero Flux instances on a pure-srun
    pilot) and :meth:`SlurmController.launch_service_time` term by
    term.
    """
    n = cfg.n_nodes
    ctl = (latencies.srun_ctl_base
           + latencies.srun_ctl_per_node * n
           + latencies.srun_ctl_per_node15 * n ** 1.5)
    return dispatch_mean(cfg, latencies), ctl, latencies.srun_step_setup


def _member_draws(seeds: Sequence[int], cfg, latencies: LatencyModel,
                  n_tasks: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whole-run srun latency draws for every member, ``(M, n_tasks)``.

    Per member this extends PR 4's per-wave ``lognormal_batch`` idiom
    to the full run: all three streams are pre-drawn in one batch,
    which is bitwise-identical to the kernel's interleaved sequential
    draws because each stage owns its stream and every stage serves
    strictly in task order.
    """
    from ..sim.random import RngStreams

    disp_mean, ctl_mean, setup_mean = _stage_means(cfg, latencies)
    dispatch = np.empty((len(seeds), n_tasks))
    ctl = np.empty_like(dispatch)
    setup = np.empty_like(dispatch)
    for m, seed in enumerate(seeds):
        rng = RngStreams(seed)
        dispatch[m] = rng.lognormal_latency_batch(
            "agent.dispatch", disp_mean, cv=latencies.agent_cv,
            n=n_tasks)
        ctl[m] = rng.lognormal_latency_batch(
            "slurm.ctl", ctl_mean, cv=latencies.srun_cv, n=n_tasks)
        setup[m] = rng.lognormal_latency_batch(
            "srun.setup", setup_mean, cv=latencies.srun_cv, n=n_tasks)
    return dispatch, ctl, setup


#: Cohort steps between progress-callback firings; the callback is
#: wall-clock rate-limited downstream, this just bounds call overhead.
_PROGRESS_STEP = 1024


def _cohort_recurrence(dispatch: np.ndarray, ctl: np.ndarray,
                       setup: np.ndarray, t_ready: float, duration: float,
                       n_cores: int, ceiling_slots: int,
                       progress=None
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lock-step evaluation of the srun pipeline across all members.

    Returns ``(scheduled, exec_start, exec_stop)`` arrays of shape
    ``(members, tasks)``.  Per task index ``i`` (the cohort step),
    vectorized over members ``m``:

    * dispatch: ``D[i] = D[i-1] + dispatch[i]`` — the serialized agent
      stage, accumulated in the kernel's one-addition-per-task order;
    * core slot: pop the earliest of ``n_cores`` free times
      (``P = max(D, free)``) — a counted FIFO semaphore is exactly a
      pop-min/push-completion recurrence;
    * ceiling slot: same over ``ceiling_slots``;
    * controller: ``E[i] = max(G, E[i-1]) + ctl[i]`` — the serialized
      launch pipeline (single-server FIFO queue);
    * setup/payload: ``X = E + setup[i]``; ``stop = X + duration``,
      which releases both semaphore slots.

    Both semaphores are capped at the task count: extra slots beyond
    that can never make anyone wait, and the ``(M, slots)`` free-time
    tables stay small on large allocations.

    ``progress(i, n_tasks)``, when given, is called every
    :data:`_PROGRESS_STEP` cohort steps — a read-only hook for the
    telemetry bus; the recurrence itself is pure arithmetic and
    unaffected by it.
    """
    n_members, n_tasks = dispatch.shape
    rows = np.arange(n_members)
    free_cores = np.zeros((n_members, min(n_cores, n_tasks)))
    free_ceiling = np.zeros((n_members, min(ceiling_slots, n_tasks)))
    scheduled = np.empty_like(dispatch)
    exec_start = np.empty_like(dispatch)
    dispatch_at = np.full(n_members, t_ready)
    pipeline_free = np.full(n_members, -np.inf)
    for i in range(n_tasks):
        if progress is not None and i % _PROGRESS_STEP == 0:
            progress(i, n_tasks)
        dispatch_at = dispatch_at + dispatch[:, i]
        slot = np.argmin(free_cores, axis=1)
        placed = np.maximum(dispatch_at, free_cores[rows, slot])
        ceil = np.argmin(free_ceiling, axis=1)
        granted = np.maximum(placed, free_ceiling[rows, ceil])
        launched = np.maximum(granted, pipeline_free) + ctl[:, i]
        started = launched + setup[:, i]
        stopped = started + duration
        free_cores[rows, slot] = stopped
        free_ceiling[rows, ceil] = stopped
        pipeline_free = launched
        scheduled[:, i] = dispatch_at
        exec_start[:, i] = started
    return scheduled, exec_start, exec_start + duration


@dataclass(frozen=True)
class _TaskLines:
    """The parts of a member's task records that no draw moves.

    One ensemble's members share the task list, so the ``task_created``
    block and every (task, kind) line prefix are built once per call.
    """

    created: str            #: every ``task_created`` line
    #: Line prefixes up to the time digits, kind-major:
    #: ``prefixes[k * n_tasks + i]`` for task ``i`` and kind ``k`` in
    #: (scheduled, exec_start, exec_stop, done) order.
    prefixes: List[str]
    #: Each stacked record's kind, the tie-break of the emission sort.
    cascade: np.ndarray


def _task_lines(description, n_tasks: int, backend: str) -> _TaskLines:
    """Prefixes with the metas :func:`~repro.core.task.build_tasks`
    records for one uniform single-core task list."""
    res = description.resources
    meta_created = {"cores": res.cores, "gpus": res.gpus,
                    "mode": description.mode}
    meta_sched = {"cores": res.cores, "gpus": res.gpus}
    meta_exec = {"cores": res.cores, "gpus": res.gpus, "backend": backend}
    entities = [entity_field(f"task.{i:06d}") for i in range(n_tasks)]
    created = meta_field(meta_created) + name_field(TASK_CREATED)
    zero = float_repr(0.0) + RECORD_END
    prefixes = []
    for name, meta in ((TASK_SCHEDULED, meta_sched),
                       (TASK_EXEC_START, meta_exec),
                       (TASK_EXEC_STOP, meta_exec),
                       (TASK_DONE, meta_exec)):
        tail = meta_field(meta) + name_field(name)
        prefixes.extend([entity + tail for entity in entities])
    return _TaskLines(
        created="".join([entity + created + zero for entity in entities]),
        prefixes=prefixes,
        cascade=np.repeat(np.arange(4.0), n_tasks))


def member_profile_bytes(task_lines: _TaskLines, preamble: _Preamble,
                         emit_times: np.ndarray,
                         record_times: np.ndarray) -> bytes:
    """One member's ``save_profile`` bytes, in the kernel's emission
    order, straight from its column arrays.

    The profile is the header, the ``task_created`` records, the
    captured bootstrap records, then the four per-task record streams.
    Those are chronological in *emission* time; the only
    coincident-timestamp records the pipelines produce are one task's
    own exec-start / exec-stop / done cascade (zero-duration payloads,
    flux's synchronous finish), ordered by the record kind under the
    stable sort.  ``emit_times`` and ``record_times`` are flat
    ``(4 * n_tasks,)`` stacks in (scheduled, start, stop, done) order:
    the sort runs on emission, and each line's ``time`` field comes
    from the record stack — they differ only where a backend backdates
    a record (dragon stamps ``exec_stop`` at payload completion but
    *emits* it after the ZMQ completion hop).
    """
    order = np.lexsort((task_lines.cascade, emit_times))
    n = order.size
    pieces = [PROFILE_HEADER, task_lines.created, preamble.lines]
    pieces.extend([RECORD_END] * (3 * n))
    pieces[3::3] = map(task_lines.prefixes.__getitem__, order.tolist())
    # ``tolist`` yields Python floats, whose repr (and so the exported
    # bytes) equals the numpy scalars'.
    pieces[4::3] = map(float_repr, record_times[order].tolist())
    return "".join(pieces).encode("ascii")


def assemble_results(cfg, seeds: Sequence[int],
                     preambles: Sequence[_Preamble],
                     scheduled: np.ndarray, exec_start: np.ndarray,
                     exec_stop: np.ndarray, description,
                     keep_profiles: bool, backend: str,
                     emit_times=None, record_times=None):
    """Per-member :class:`ExperimentResult` + profile bytes.

    Shared tail of every vectorized engine: same rows, order and float
    ops as ``metrics.exec_intervals`` / ``exec_start_times`` over the
    kernel's task list.  By default a member's record streams are
    ``(scheduled, exec_start, exec_stop, exec_stop)`` and each
    record's ``time`` is its emission instant; ``emit_times`` /
    ``record_times``, when given, are per-member callables returning
    the flat stacks documented on :func:`member_profile_bytes`.
    """
    from ..experiments.harness import ExperimentResult

    n_tasks = scheduled.shape[1]
    cluster_cores = cfg.n_nodes * frontier(1).cores_per_node
    total_gpus = cfg.n_nodes * frontier(1).gpus_per_node
    task_lines = (_task_lines(description, n_tasks, backend)
                  if keep_profiles else None)
    results = []
    profiles: List[Optional[bytes]] = []
    ones = np.ones(n_tasks)
    zeros = np.zeros(n_tasks)
    for m, seed in enumerate(seeds):
        starts, stops = exec_start[m], exec_stop[m]
        preamble = preambles[m]
        intervals = np.stack(
            [starts, stops, ones * description.resources.cores,
             zeros + description.resources.gpus], axis=1)
        results.append(ExperimentResult(
            config=cfg.with_seed(seed),
            n_tasks=n_tasks,
            n_done=n_tasks,
            n_failed=0,
            throughput=throughput(np.sort(starts)),
            utilization_cores=utilization_from_intervals(
                intervals, cluster_cores),
            utilization_gpus=(utilization_from_intervals(
                intervals, total_gpus, resource="gpus")
                if total_gpus else 0.0),
            makespan=float(stops.max()) - 0.0,
            startup_overheads=list(preamble.overheads),
            tasks=[],
            session=None,
        ))
        if task_lines is None:
            profiles.append(None)
            continue
        if emit_times is None:
            emitted = np.concatenate([scheduled[m], starts, stops, stops])
            recorded = emitted
        else:
            emitted, recorded = emit_times(m), record_times(m)
        profiles.append(member_profile_bytes(task_lines, preamble,
                                             emitted, recorded))
    return results, profiles


def run_vectorized(cfg, seeds: Sequence[int],
                   latencies: LatencyModel = FRONTIER_LATENCIES,
                   keep_profiles: bool = False,
                   progress=None):
    """Run all member seeds of ``cfg`` through a vectorized engine.

    Dispatches to the launcher-specific recurrence (srun here,
    :mod:`~repro.ensemble.vec_flux` / :mod:`~repro.ensemble.vec_dragon`
    otherwise).  Returns ``(results, profile_bytes)``: per-seed
    :class:`~repro.experiments.harness.ExperimentResult` objects whose
    metrics are float-identical to independent
    :func:`~repro.experiments.harness.run_experiment` calls, and (when
    ``keep_profiles``, else ``None`` each) per-seed profile exports
    byte-identical to ``save_profile`` of those runs.  Falls back by
    raising ``ValueError`` when the config does not qualify — callers check
    :func:`supports_vectorized` first.

    ``progress(tasks_done, tasks_total)`` (cohort-level counts summed
    over members) is invoked periodically during the recurrence — the
    ensemble engine wires it to the telemetry bus.
    """
    if not supports_vectorized(cfg, latencies):
        raise ValueError(f"config {cfg.exp_id!r} does not qualify for "
                         "the vectorized ensemble engine")
    if cfg.launcher == _FLUX:
        from .vec_flux import run_flux_vectorized

        return run_flux_vectorized(cfg, seeds, latencies,
                                   keep_profiles=keep_profiles,
                                   progress=progress)
    if cfg.launcher == _DRAGON:
        from .vec_dragon import run_dragon_vectorized

        return run_dragon_vectorized(cfg, seeds, latencies,
                                     keep_profiles=keep_profiles,
                                     progress=progress)
    return _run_srun_vectorized(cfg, seeds, latencies,
                                keep_profiles=keep_profiles,
                                progress=progress)


def _run_srun_vectorized(cfg, seeds: Sequence[int],
                         latencies: LatencyModel,
                         keep_profiles: bool, progress=None):
    """The original task-index lock-step engine for srun."""
    preamble = capture_preamble(cfg, latencies)
    if preamble is None:
        raise ValueError("bootstrap preamble consumed unexpected "
                         "randomness; vectorized engine unavailable")
    descriptions = _workload(cfg)
    description = descriptions[0]
    n_tasks = len(descriptions)
    duration = float(description.duration)
    cluster_cores = cfg.n_nodes * frontier(1).cores_per_node
    dispatch, ctl, setup = _member_draws(seeds, cfg, latencies, n_tasks)
    cohort_progress = None
    if progress is not None:
        n_members = len(seeds)

        def cohort_progress(i, total):
            progress(i * n_members, total * n_members)
    scheduled, exec_start, exec_stop = _cohort_recurrence(
        dispatch, ctl, setup, preamble.t_ready, duration,
        n_cores=cluster_cores, ceiling_slots=latencies.srun_ceiling,
        progress=cohort_progress)
    return assemble_results(cfg, seeds, [preamble] * len(seeds),
                            scheduled, exec_start, exec_stop,
                            description, keep_profiles, backend=_SRUN)
