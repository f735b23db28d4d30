"""Process-parallel experiment fan-out.

Every experiment run is a self-contained, seeded, deterministic
simulation, so independent runs (the repetitions of
:func:`~repro.experiments.harness.run_repetitions`, or the
configurations of a sweep) can execute in separate worker processes
with no coordination at all.  The contract is strict: a parallel run
produces *exactly* the results of the equivalent serial loop — same
metrics, same ordering, and byte-identical trace exports — because
each worker seeds its own simulation from the config and nothing is
shared between runs.

This module holds the one process-pool loop in the package
(:func:`_fan_out`): :func:`run_many` drives it with one run per unit,
and :func:`repro.ensemble.run_ensemble` with one seed batch per unit.

Two things do not survive the trip back from a worker process:

* ``ExperimentResult.tasks`` — task objects hold live generator
  frames and environment references and are not picklable;
* ``ExperimentResult.session`` — same reason, via the kernel queue.

Both are stripped (``tasks=[]``, ``session=None``) from pooled
results; in-process runs keep their tasks.  :func:`run_many` hands
back metrics only.  A sweep that needs each run's trace uses
:func:`repro.ensemble.run_ensemble` with ``profile_dir``, which
exports every profile where its session still exists (inside the
worker) onto the shared filesystem.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence, Union

from ..exceptions import ConfigurationError, HostFailureError
from ..platform.latency import FRONTIER_LATENCIES, LatencyModel
from .configs import ExperimentConfig

__all__ = ["resolve_jobs", "run_many"]

#: Fresh-pool retries after a :class:`BrokenProcessPool` (a pool
#: worker killed by the OS — OOM, signal, node policy) before giving
#: up.  Each retry resubmits only the units that have no result yet;
#: everything already completed is salvaged, not re-run.
POOL_RETRIES = 2
POOL_RETRY_BACKOFF = 0.5


def resolve_jobs(jobs: Union[int, str, None] = None,
                 n_items: Optional[int] = None) -> int:
    """Turn a ``--parallel`` style argument into a worker count.

    ``None``, ``0`` and ``"auto"`` mean *use every core*; an integer
    requests exactly that many workers.  The result is clamped to
    ``n_items`` when given (more workers than runs is pure overhead)
    and is always at least 1.
    """
    if jobs is None or jobs == 0 or jobs == "auto":
        resolved = os.cpu_count() or 1
    else:
        try:
            resolved = int(jobs)
        except (TypeError, ValueError):
            raise ConfigurationError(f"bad parallel job count {jobs!r}")
        if resolved < 0:
            raise ConfigurationError(f"negative parallel job count {jobs}")
        if resolved == 0:
            resolved = os.cpu_count() or 1
    if n_items is not None:
        resolved = min(resolved, max(n_items, 1))
    return max(resolved, 1)


def _run_one(payload):
    """Run one experiment in this process.

    The import of the harness is deferred to avoid a circular import —
    ``harness`` imports :func:`run_many` lazily for the same reason.
    """
    cfg, latencies, cache = payload
    from .harness import run_experiment

    return run_experiment(cfg, latencies, cache=cache)


def _run_pooled(payload):
    """Pool worker entry point (module-level so the pool can pickle
    it): :func:`_run_one` with the unpicklable task objects stripped."""
    from ..resilience.crash import crash_point, crash_value

    # Crash-injection hook (tests only; inert without the env var):
    # ``REPRO_CRASH_AT=pool:<seed>`` hard-kills the pool worker that
    # picked up the first unit with that seed (or later), which the
    # parent sees as a BrokenProcessPool and must recover from.
    if crash_value("pool") is not None:
        crash_point("pool", float(payload[0].seed))
    result = _run_one(payload)
    result.tasks = []
    return result


def _fan_out(worker: Callable, payloads: Sequence, n_workers: int,
            land: Callable) -> None:
    """Run ``worker(payload)`` for every payload over a process pool.

    ``land(i, result)`` is called in the parent as each unit lands, in
    completion order (submit + ``as_completed``, not ``pool.map``, so
    progress is reported the moment a unit finishes).  A pool worker
    killed by the OS surfaces as :class:`BrokenProcessPool`; every
    result that already landed is salvaged, and only the unfinished
    units are resubmitted to a fresh pool (with backoff, up to
    :data:`POOL_RETRIES` times) before :class:`HostFailureError`.
    Each unit is an independent seeded simulation, so a re-run is
    bit-identical.  A *deterministic* error raised by ``worker`` would
    fail identically on retry and propagates as-is.
    """
    pending = list(range(len(payloads)))
    retries = 0
    while pending:
        broken = None
        landed = set()
        with ProcessPoolExecutor(
                max_workers=min(n_workers, len(pending))) as pool:
            futures = {pool.submit(worker, payloads[i]): i for i in pending}
            for future in as_completed(futures):
                try:
                    result = future.result()
                except BrokenProcessPool as exc:
                    # This future's worker died (or the pool it needed
                    # did); keep draining — futures that finished
                    # before the breakage still hold good results.
                    broken = exc
                    continue
                landed.add(futures[future])
                land(futures[future], result)
        pending = [i for i in pending if i not in landed]
        if broken is None or not pending:
            return
        if retries >= POOL_RETRIES:
            raise HostFailureError(
                f"process pool lost workers {retries + 1} times; "
                f"{len(pending)} of {len(payloads)} units incomplete"
            ) from broken
        time.sleep(POOL_RETRY_BACKOFF * (2 ** retries))
        retries += 1


def run_many(configs: Sequence[ExperimentConfig],
             latencies: LatencyModel = FRONTIER_LATENCIES,
             jobs: Union[int, str, None] = None,
             progress: Optional[Callable] = None,
             ledger=None,
             cache=None,
             ) -> List["ExperimentResult"]:  # noqa: F821
    """Run several independent experiments, fanned out over processes.

    Results come back in input order regardless of completion order.
    With one worker (or one config to run) the pool is skipped
    entirely and the runs execute in-process, returning exactly what
    :func:`~repro.experiments.harness.run_experiment` returns (task
    objects kept) — the serial path of every multi-run caller.

    ``progress(n_completed, n_total, result)`` is called in the parent
    process as each run lands, in completion order (the telemetry
    feed ``run_repetitions(progress=)`` builds on).

    ``ledger`` (a :class:`~repro.resilience.SweepLedger`) makes the
    fan-out restartable: units already recorded as complete are not
    re-run (their metrics documents are rehydrated instead), and every
    unit that lands is durably recorded before the next progress call.

    Pooled runs survive killed workers via :func:`_fan_out`.

    ``cache`` (a :class:`~repro.store.RunStore` or directory path)
    memoizes each unit through the content-addressed run store: hits
    are delivered inside the worker without simulating, misses
    populate the store there (concurrent workers racing on one digest
    resolve to one winner via atomic rename).
    """
    configs = list(configs)
    results: List[Optional["ExperimentResult"]] = [None] * len(configs)
    completed = 0

    def land(i, result, record=True):
        nonlocal completed
        results[i] = result
        if ledger is not None and record:
            ledger.record(configs[i], result)
        completed += 1
        if progress is not None:
            progress(completed, len(configs), result)

    pending = []
    for i, cfg in enumerate(configs):
        doc = ledger.completed(cfg) if ledger is not None else None
        if doc is not None:
            from ..resilience.checkpoint import result_from_doc

            result = result_from_doc(cfg, doc)
            result.provenance = "resumed"
            land(i, result, record=False)
        else:
            pending.append(i)
    payloads = [(configs[i], latencies, cache) for i in pending]
    n_workers = resolve_jobs(jobs, n_items=len(pending))
    if n_workers <= 1:
        for i, payload in zip(pending, payloads):
            land(i, _run_one(payload))
    else:
        _fan_out(_run_pooled, payloads, n_workers,
                lambda k, result: land(pending[k], result))
    return results
