"""Process-parallel experiment fan-out.

Every experiment run is a self-contained, seeded, deterministic
simulation, so independent runs (the configurations of ``table1``, or
the seed batches of :func:`repro.ensemble.run_ensemble`) can execute
in separate worker processes with no coordination at all.  The
contract is strict: a parallel run produces *exactly* the results of
the equivalent serial loop — same metrics, same ordering, and
byte-identical trace exports — because each worker seeds its own
simulation from the config and nothing is shared between runs.

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
from .harness import ExperimentResult, run_experiment

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


def _run_pooled(payload):
    """Pool worker entry point (module-level so the pool can pickle
    it): one ``run_experiment`` with the unpicklable task objects
    stripped."""
    from ..resilience.crash import crash_point

    # Crash-injection hook (tests only; inert without the env var):
    # ``REPRO_CRASH_AT=pool:<seed>`` hard-kills the pool worker that
    # picked up the first unit with that seed (or later), which the
    # parent sees as a BrokenProcessPool and must recover from.
    crash_point(payload[0].seed)
    result = run_experiment(*payload)
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
             ) -> List[ExperimentResult]:
    """Run several independent experiments, fanned out over processes.

    Results come back in input order regardless of completion order.
    With one worker (or one config) the pool is skipped entirely and
    the runs execute in-process, returning exactly what
    :func:`~repro.experiments.harness.run_experiment` returns (task
    objects kept).  Pooled runs survive killed workers via
    :func:`_fan_out`.

    ``progress(n_completed, n_total, result)`` is called in the parent
    process as each run lands, in completion order (``table1``'s
    ``done:`` lines).
    """
    configs = list(configs)
    results: List[Optional[ExperimentResult]] = [None] * len(configs)
    completed = 0

    def land(i, result):
        nonlocal completed
        results[i] = result
        completed += 1
        if progress is not None:
            progress(completed, len(configs), result)

    payloads = [(cfg, latencies) for cfg in configs]
    n_workers = resolve_jobs(jobs, n_items=len(payloads))
    if n_workers <= 1:
        for i, payload in enumerate(payloads):
            land(i, run_experiment(*payload))
    else:
        _fan_out(_run_pooled, payloads, n_workers, land)
    return results
