"""Vectorized dragon ensembles: serialized GS dispatch, lock-step.

A single-partition dragon pilot is FIFO in task order end to end —
like srun, and unlike flux there is no cycle structure — so the cohort
advances over the shared task index:

* ``agent.dispatch`` — serialized agent stage (no flux coordination
  surcharge), cumulative chain ``D``;
* ZMQ submission hop — constant ``D + ZMQ_HOP_LATENCY`` (the pipe is
  FIFO with per-message latency, no queueing between dispatches);
* ``dragon.gs`` — serialized global-services bookkeeping, the dragon
  analogue of srun's slurmctld stage:
  ``gs_done = max(arrival, gs_done) + gs[i]``, with the mean from
  :meth:`DragonRuntime.gs_exec_mean`;
* worker-pool slot — pop-min over ``min(cores, tasks)`` free times;
  executable tasks always pay the cold fork+exec cost
  (:data:`~repro.dragon.pool.COLD_START_COST`), so
  ``start = max(gs_done, slot_free) + COLD``.

The one representational twist is the completion record: the runtime
stamps ``exec_stop`` at payload finish ``F`` but the executor only
*emits* it after the ZMQ completion hop, together with ``done`` at
``F + ZMQ``.  Profile rows are ordered by emission while carrying the
backdated timestamp, so the profile writer gets separate emission-time
and record-time stacks (see
:func:`~repro.ensemble.vectorized.member_profile_bytes`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..dragon.channels import ZMQ_HOP_LATENCY
from ..dragon.pool import COLD_START_COST
from ..dragon.runtime import DragonRuntime
from ..platform.latency import FRONTIER_LATENCIES, LatencyModel
from ..platform.profiles import frontier
from .vectorized import (
    _PROGRESS_STEP,
    _workload,
    assemble_results,
    capture_preamble,
    dispatch_chain,
    dispatch_mean,
)


def run_dragon_vectorized(cfg, seeds: Sequence[int],
                          latencies: LatencyModel = FRONTIER_LATENCIES,
                          keep_profiles: bool = False, progress=None):
    """All member seeds of a single-partition dragon config, lock-step.

    Same contract as the srun engine: per-seed metrics float-identical
    and profiles byte-identical to independent sequential runs.
    """
    from ..sim.random import RngStreams

    descriptions = _workload(cfg)
    description = descriptions[0]
    n_tasks = len(descriptions)
    duration = float(description.duration)
    n_members = len(seeds)
    n_cores = cfg.n_nodes * frontier(1).cores_per_node

    # The dragon bootstrap draws its startup time per seed, so the
    # preamble capture runs once per member.
    preambles = []
    for seed in seeds:
        preamble = capture_preamble(cfg, latencies, seed=seed)
        if preamble is None:
            raise ValueError("dragon bootstrap consumed unexpected "
                             "randomness; vectorized engine unavailable")
        preambles.append(preamble)

    disp_mean = dispatch_mean(cfg, latencies)
    gs_mean = DragonRuntime.gs_exec_mean(latencies, cfg.n_nodes)
    disp = np.empty((n_members, n_tasks))
    gs = np.empty_like(disp)
    for m, seed in enumerate(seeds):
        rng = RngStreams(seed)
        disp[m] = rng.lognormal_latency_batch(
            "agent.dispatch", disp_mean, cv=latencies.agent_cv, n=n_tasks)
        gs[m] = rng.lognormal_latency_batch(
            "dragon.gs", gs_mean, cv=latencies.dragon_cv, n=n_tasks)

    t_ready = np.array([p.t_ready for p in preambles])
    D = dispatch_chain(disp, t_ready)

    S = np.empty_like(D)
    F = np.empty_like(D)
    rows = np.arange(n_members)
    pool_free = np.full((n_members, min(n_cores, n_tasks)), -np.inf)
    gs_done = np.full(n_members, -np.inf)
    for i in range(n_tasks):
        if progress is not None and i % _PROGRESS_STEP == 0:
            progress(i * n_members, n_tasks * n_members)
        arrival = D[:, i] + ZMQ_HOP_LATENCY
        gs_done = np.maximum(arrival, gs_done) + gs[:, i]
        slot = np.argmin(pool_free, axis=1)
        waited = np.maximum(gs_done, pool_free[rows, slot])
        started = waited + COLD_START_COST
        finished = started + duration if duration > 0 else started
        pool_free[rows, slot] = finished
        S[:, i] = started
        F[:, i] = finished
    if progress is not None:
        progress(n_tasks * n_members, n_tasks * n_members)

    FZ = F + ZMQ_HOP_LATENCY

    def emit_times(m):
        return np.concatenate([D[m], S[m], FZ[m], FZ[m]])

    def record_times(m):
        return np.concatenate([D[m], S[m], F[m], FZ[m]])

    return assemble_results(cfg, seeds, preambles, D, S, F, description,
                            keep_profiles, backend="dragon",
                            emit_times=emit_times,
                            record_times=record_times)
