"""Ensemble execution: many seeds of one config, cheaply.

:func:`run_ensemble` is the sweep-shaped entry point the paper's
methodology calls for — throughput/utilization *distributions* over
seeds, not a single run.  It picks the cheapest engine that preserves
the correctness contract:

``vectorized``
    The structure-of-arrays fast path in
    :mod:`repro.ensemble.vectorized` — all members advance in
    lock-stepped cohorts through the (exact) launcher pipeline
    recurrence (srun/dragon over the task index, single-instance flux
    over scheduler-cycle boundaries — see
    :mod:`repro.ensemble.vec_flux` / :mod:`repro.ensemble.vec_dragon`),
    sharing the captured bootstrap preamble, the workload descriptions
    and the platform topology.  Per-seed cost is an order of magnitude
    below a kernel run (gated by ``benchmarks/test_cost_gates.py``).

``replay``
    Generic fallback: one real :func:`run_experiment` per seed.  Used
    for launchers/workloads the recurrences do not cover
    (multi-partition hierarchies, staged or faulty workloads,
    degenerate zero-cv latencies).  Replay sweeps of
    :data:`_AUTO_REPLAY_MIN_SEEDS` or more seeds are sharded over the
    process pool automatically unless the caller pinned ``parallel``,
    so no launcher is left at 1x per-seed cost.

:func:`supports_vectorized` alone picks the engine.  Either way the
results are *identical* to N independent sequential runs — same
metric floats, byte-identical exported profiles.  The determinism
tests pin the vectorized engine against per-seed
:func:`run_experiment` calls, which is exactly what the replay engine
runs.

``parallel=`` splits the seed list into contiguous batches, one
worker process per batch, each running the same engine on its slice
through the same process-pool loop as
:func:`~repro.experiments.parallel.run_many` (salvage, resubmit and
give up after ``POOL_RETRIES``).  Members carry no live profiler on
any path: traces come back only as ``profile_dir`` exports (written
inside the worker for parallel runs).  Seeds resolve through
:func:`~repro.ensemble.seeds.sweep_seeds`.

This is the package's one multi-seed path:
:func:`~repro.experiments.harness.run_repetitions` is
``run_ensemble(...).aggregate()``, and ``run --reps/--seeds`` on the
CLI calls it.  With ``cache=`` a restarted sweep simulates only the
seeds its run store does not hold yet, so the store is also the
restart record of an interrupted sweep.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..platform.latency import FRONTIER_LATENCIES, LatencyModel
from .seeds import SeedsLike, sweep_seeds
from .vectorized import run_vectorized, supports_vectorized

#: Engine names reported in :attr:`EnsembleResult.engine`.
ENGINE_VECTORIZED = "vectorized"
ENGINE_REPLAY = "replay"

#: Smallest replay sweep that auto-shards over the process pool when
#: the caller left ``parallel`` unset.  Below this the pool spawn
#: overhead dominates the handful of kernel runs it would hide.
_AUTO_REPLAY_MIN_SEEDS = 4


@dataclass
class EnsembleMember:
    """One seed's outcome inside an ensemble."""

    seed: int
    result: "ExperimentResult"  # noqa: F821 - forward ref, lazy import
    #: Where the member's profile was exported (``profile_dir`` runs).
    profile_path: Optional[str] = None


@dataclass(frozen=True)
class EnsembleResult:
    """All members of one multi-seed sweep."""

    config: "ExperimentConfig"  # noqa: F821
    seeds: Tuple[int, ...]
    members: Tuple[EnsembleMember, ...]
    engine: str                 #: ``vectorized`` or ``replay``
    wall_seconds: float         #: whole-sweep wall time
    n_workers: int = 1          #: worker processes used

    @property
    def results(self) -> List["ExperimentResult"]:  # noqa: F821
        return [m.result for m in self.members]

    @property
    def wall_seconds_per_seed(self) -> float:
        return self.wall_seconds / max(len(self.members), 1)

    def aggregate(self) -> "AggregateResult":  # noqa: F821
        """Across-seed aggregation: what ``run_repetitions`` returns."""
        from ..experiments.harness import AggregateResult

        return AggregateResult.of(self.config, self.results)


def _profile_path(profile_dir: str, seed: int) -> str:
    return os.path.join(profile_dir, f"profile-seed{seed}.jsonl")


def _run_members(cfg, seeds: Sequence[int], latencies: LatencyModel,
                 engine: str, profile_dir: Optional[str],
                 telemetry=None, store=None) -> List[EnsembleMember]:
    """Run one batch of seeds in-process with the chosen engine.

    ``telemetry`` (a
    :class:`~repro.observability.telemetry.SweepTelemetry`) receives
    one ``member_done`` per completed seed — live for the replay
    engine, after the cohort recurrence (which feeds the intra-run
    :meth:`~repro.observability.telemetry.SweepTelemetry.cohort` hook
    instead) for the vectorized one.

    ``store`` (a :class:`~repro.store.RunStore`) memoizes at per-seed
    granularity: seeds already stored are delivered from the store
    (profile exports come from the cached bytes — identical by the
    determinism contract), and only the missing seeds reach the
    engine, which then populates the store with them.  Each hit bumps
    its entry's LRU clock, and the config's cache key is computed once
    per call.

    A vectorized member's profile is bytes from the engine, so it is
    stored and exported as is, like a hit's; a replay member exports
    its live profiler.
    """
    need_records = profile_dir is not None
    on_member = None
    if telemetry is not None:
        on_member = telemetry.member_done
    cached_runs = {}
    digests = {}
    if store is not None:
        from ..store import cache_key

        key = cache_key(cfg)
        for seed in seeds:
            digests[seed] = store.digest_for(cfg, seed=seed, key=key)
            hit = store.fetch(digests[seed])
            if hit is not None:
                cached_runs[seed] = hit
    missing = [seed for seed in seeds if seed not in cached_runs]
    results, profiles = [], []
    notified = set()
    if missing:
        if engine == ENGINE_VECTORIZED:
            results, profiles = run_vectorized(
                cfg, missing, latencies,
                keep_profiles=need_records or store is not None,
                progress=telemetry.cohort if telemetry is not None
                else None)
            if store is not None:
                for seed, result, profile in zip(missing, results,
                                                 profiles):
                    stored = store.put(digests[seed], cfg.with_seed(seed),
                                       result, profile, key=key)
                    result.cache = {"digest": digests[seed],
                                    "hit": False, "stored": stored}
        else:
            results, profiles = _run_replay(cfg, missing, latencies,
                                            keep_profiles=need_records,
                                            on_member=on_member,
                                            store=store)
            # Replay members already streamed their telemetry live
            # (seed by seed, as each run lands); don't re-fire below.
            notified = set(missing)
    fresh = dict(zip(missing, zip(results, profiles)))
    members = []
    for seed in seeds:
        hit = cached_runs.get(seed)
        if hit is not None:
            result = hit.to_result(cfg.with_seed(seed))
        else:
            result, profile = fresh[seed]
        path = None
        if profile_dir is not None:
            path = _profile_path(profile_dir, seed)
            if hit is None and engine == ENGINE_REPLAY:
                from ..analytics import save_profile

                save_profile(profile, path)
            else:
                from ..resilience.atomic import atomic_write_bytes

                atomic_write_bytes(path, profile if hit is None
                                   else hit.profile_bytes())
        members.append(EnsembleMember(seed=seed, result=result,
                                      profile_path=path))
        if on_member is not None and seed not in notified:
            on_member(result)
    return members


def _run_replay(cfg, seeds: Sequence[int], latencies: LatencyModel,
                keep_profiles: bool, on_member=None, store=None):
    """Generic engine: one sequential :func:`run_experiment` per seed.

    ``store`` is populated as each seed lands: the caller already
    established these seeds are misses, and ``run_experiment`` under
    ``keep_session`` skips the cache read and puts on the way out.
    ``on_member`` fires as each seed's run returns.  Members keep
    their per-task objects (a pool worker strips them before the
    trip back).
    """
    from ..experiments.harness import run_experiment

    need_session = keep_profiles or store is not None
    results, profilers = [], []
    for seed in seeds:
        result = run_experiment(cfg.with_seed(seed), latencies,
                                keep_session=need_session, cache=store)
        results.append(result)
        if on_member is not None:
            on_member(result)
        profiler = None
        if result.session is not None:
            profiler = result.session.profiler
            result.session.close()
            result.session = None
        profilers.append(profiler if keep_profiles else None)
    return results, profilers


def _run_batch(payload):
    """Worker entry point for parallel ensembles (module-level so the
    pool can pickle it); traces come back via ``profile_dir`` exports."""
    cfg, seeds, latencies, engine, profile_dir, cache = payload
    from ..resilience.crash import crash_point
    from ..store import RunStore

    # Crash-injection hook (tests only; inert without the env var):
    # ``REPRO_CRASH_AT=pool:<seed>`` kills the worker holding that
    # seed's batch, exercising the coordinator's salvage-and-resubmit.
    crash_point(max(seeds))
    members = _run_members(cfg, seeds, latencies, engine, profile_dir,
                           store=RunStore.resolve(cache))
    for member in members:
        member.result.tasks = []
    return members


def _split_batches(seeds: Sequence[int], n_workers: int
                   ) -> List[List[int]]:
    """Contiguous near-equal batches, one per worker, order preserved."""
    n = len(seeds)
    base, extra = divmod(n, n_workers)
    batches, start = [], 0
    for w in range(n_workers):
        size = base + (1 if w < extra else 0)
        if size:
            batches.append(list(seeds[start:start + size]))
        start += size
    return batches


def write_ensemble_bundle(directory, result: EnsembleResult,
                          telemetry=None):
    """Write an ensemble run's observability bundle into ``directory``.

    The manifest carries a whole-sweep ``ensemble`` section — engine,
    worker count, seed list, wall time and one metrics row per member
    — alongside the usual config/versions/host blocks, so a farm of
    sweeps stays auditable the same way single runs are.
    Per-seed profile exports already sitting inside the bundle
    directory (``profile_dir`` pointed there) are indexed in the
    manifest's ``files`` section as ``profile_seed<seed>``;
    ``telemetry`` records (when the sweep streamed progress) land in
    ``telemetry.jsonl``.  Returns ``{artifact name: path}``.
    """
    from ..observability.manifest import build_manifest, write_bundle

    rows = []
    for member in result.members:
        r = member.result
        rows.append({
            "seed": member.seed,
            "n_tasks": r.n_tasks,
            "n_done": r.n_done,
            "n_failed": r.n_failed,
            "throughput_avg": r.throughput.avg,
            "throughput_peak": r.throughput.peak,
            "utilization_cores": r.utilization_cores,
            "makespan": r.makespan,
        })
    manifest = build_manifest(config=result.config, extra={
        "ensemble": {
            "engine": result.engine,
            "n_workers": result.n_workers,
            "seeds": list(result.seeds),
            "wall_seconds": result.wall_seconds,
            "members": rows,
        }})
    bundle_dir = os.path.abspath(directory)
    extra_files = {}
    for member in result.members:
        path = member.profile_path
        if path is not None and \
                os.path.dirname(os.path.abspath(path)) == bundle_dir:
            extra_files[f"profile_seed{member.seed}"] = path
    return write_bundle(directory, manifest, telemetry=telemetry,
                        extra_files=extra_files or None)


def run_ensemble(cfg, seeds: Optional[SeedsLike] = None,
                 n_reps: Optional[int] = None,
                 latencies: LatencyModel = FRONTIER_LATENCIES,
                 profile_dir: Optional[str] = None,
                 parallel=None,
                 progress=None,
                 bundle=None,
                 cache=None) -> EnsembleResult:
    """Run ``cfg`` under many seeds and return all members.

    The engine is vectorized whenever :func:`supports_vectorized`
    holds and replay otherwise; :attr:`EnsembleResult.engine` reports
    which one ran.

    Parameters
    ----------
    seeds:
        Explicit seed list — a sequence of ints or a spec string like
        ``"1,2,5-20"``.  Defaults to ``cfg.seed + rep`` for
        ``n_reps`` repetitions (3 when neither is given).
    profile_dir:
        Export each member's trace to
        ``<dir>/profile-seed<seed>.jsonl`` — byte-identical to the
        export of an independent ``run_experiment`` at that seed.
        This is the only way an ensemble hands back traces.
    parallel:
        Fan batches of seeds out over worker processes
        (``"auto"``/``0`` = one per core; an int = that many), via the
        same pool semantics as :mod:`repro.experiments.parallel`.
        When unset, replay sweeps of ``>= 4`` seeds auto-shard
        (``"auto"``) — pass ``parallel=1`` to force a serial replay.
    progress:
        Stream live telemetry records (``source: "ensemble"``): a
        callable sink, a pre-built
        :class:`~repro.observability.telemetry.TelemetryBus`, or any
        truthy value for buffered-only records.  One record per
        completed seed (rate-limited; the last is always emitted),
        plus intra-cohort task progress on the vectorized engine.
    bundle:
        Write an observability bundle into this directory via
        :func:`write_ensemble_bundle`.  Per-seed profiles are
        exported into it unless ``profile_dir`` redirects them.
    cache:
        A :class:`~repro.store.RunStore` (or a directory path for
        one) memoizing members at per-seed granularity: seeds with a
        stored run are delivered from the store without simulating
        (``result.provenance == "cached"``, profile exports
        byte-identical by the determinism contract); only the missing
        seeds reach the engine, which populates the store with them.
        Re-running an interrupted sweep with the same store therefore
        simulates only the seeds it had not finished.
    """
    seed_list = sweep_seeds(cfg, seeds, n_reps)
    chosen = (ENGINE_VECTORIZED if supports_vectorized(cfg, latencies)
              else ENGINE_REPLAY)
    if (parallel is None and chosen == ENGINE_REPLAY
            and len(seed_list) >= _AUTO_REPLAY_MIN_SEEDS):
        # Cohort-sharded parallel replay: configs the recurrences
        # cannot cover still amortize — contiguous seed batches on the
        # process pool, with the pool loop's salvage and resubmit.
        parallel = "auto"
    if bundle is not None and profile_dir is None:
        profile_dir = str(bundle)
    if profile_dir is not None:
        os.makedirs(profile_dir, exist_ok=True)
    telemetry = None
    if progress is not None or bundle is not None:
        # Bundle runs record telemetry even without a live sink, so
        # the bundle's ``telemetry.jsonl`` is never empty.
        from ..observability.telemetry import SweepTelemetry

        telemetry = SweepTelemetry.create(len(seed_list), progress)

    wall0 = time.perf_counter()
    n_workers = 1
    if parallel is not None:
        from ..experiments.parallel import resolve_jobs

        n_workers = resolve_jobs(parallel, n_items=len(seed_list))
    if n_workers > 1:
        from ..experiments.parallel import _fan_out

        payloads = [(cfg, batch, latencies, chosen, profile_dir, cache)
                    for batch in _split_batches(seed_list, n_workers)]
        batches: List[Optional[List[EnsembleMember]]] = [None] * len(payloads)

        def land(i, batch):
            batches[i] = batch
            if telemetry is not None:
                for member in batch:
                    telemetry.member_done(member.result)

        # Batches land in completion order; ``batches`` restores the
        # input order.
        _fan_out(_run_batch, payloads, len(payloads), land)
        members = [m for batch in batches for m in batch]
    else:
        from ..store import RunStore

        members = _run_members(cfg, seed_list, latencies, chosen,
                               profile_dir, telemetry=telemetry,
                               store=RunStore.resolve(cache))
    wall = time.perf_counter() - wall0
    per_seed = wall / max(len(members), 1)
    for member in members:
        member.result.wall_seconds = per_seed
    result = EnsembleResult(
        config=cfg,
        seeds=tuple(seed_list),
        members=tuple(members),
        engine=chosen,
        wall_seconds=wall,
        n_workers=n_workers,
    )
    if bundle is not None:
        write_ensemble_bundle(
            bundle, result,
            telemetry=telemetry.records if telemetry is not None else None)
    return result
