"""Scheduling policies of a Flux instance (fluxion analogue).

Two policies cover the paper's configurations:

* :class:`FcfsPolicy` — strict first-come-first-served: matching stops
  at the first queued job that cannot be placed.  This is the default
  used in the synthetic throughput experiments (homogeneous jobs).
* :class:`EasyBackfillPolicy` — EASY backfill: when the queue head
  does not fit, a *shadow time* (earliest time the head could start,
  derived from running jobs' walltime estimates) is computed and later
  jobs may jump ahead if their walltime keeps them clear of the
  head's reservation.  Used for heterogeneous IMPECCABLE mixes.

Both policies place jobs by core and GPU counts on nodes through
:meth:`repro.platform.cluster.Allocation.try_place`, so no node ever
hands out more than its capacity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

from ..platform.cluster import Allocation
from .jobspec import FluxJob

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..platform.node import Placement

Match = Tuple[FluxJob, List["Placement"]]

def order_key(job: FluxJob) -> Tuple[int, int]:
    """Scheduling order: higher urgency first, ingest order breaks ties.

    ``ingest_seq`` is assigned by the instance's ingest pipeline, so
    the key is total and independent of the queue's current layout.
    """
    return (-job.spec.urgency, job.ingest_seq)


def _order_queue(queue: Iterable[FluxJob],
                 presorted: bool = False) -> List[FluxJob]:
    """Higher urgency first; submit order breaks ties (stable sort).

    ``presorted`` callers (the instance scheduling loop, which keeps
    its pending queue ordered incrementally) skip the sort — and with
    it one key-lambda evaluation per queued job per scheduling cycle,
    by far the hottest path of the whole Flux model at scale.
    """
    if presorted:
        return queue if isinstance(queue, list) else list(queue)
    return sorted(queue, key=lambda j: -j.spec.urgency)


class FcfsPolicy:
    """Strict first-come-first-served matching."""

    name = "fcfs"

    @staticmethod
    def grant_count(n_eligible: int, n_free_slots: int) -> int:
        """Closed form of one FCFS matching pass over uniform
        single-core jobs: the grant is the queue-order prefix bounded
        by free capacity, so its size is ``min(eligible, free)``.

        This is what makes single-instance flux ensembles vectorizable
        (see :mod:`repro.ensemble.vec_flux`): per scheduler cycle the
        whole grant set is determined by two counts, no per-job
        placement search needed.  Kept on the policy so the ensemble
        engine and the DES share one definition of FCFS semantics.
        """
        return min(n_eligible, n_free_slots)

    def match(self, queue: List[FluxJob], allocation: Allocation,
              running: List[FluxJob], now: float,
              limit: Optional[int] = None,
              presorted: bool = False) -> List[Match]:
        matches: List[Match] = []
        for job in _order_queue(queue, presorted):
            if limit is not None and len(matches) >= limit:
                break
            placements = allocation.try_place(job.spec.resources)
            if placements is None:
                break  # strict FCFS: nothing may overtake the head
            matches.append((job, placements))
        return matches


class EasyBackfillPolicy:
    """EASY backfill: later jobs may start if they respect the head's
    earliest-start reservation."""

    name = "easy"

    def match(self, queue: List[FluxJob], allocation: Allocation,
              running: List[FluxJob], now: float,
              limit: Optional[int] = None,
              presorted: bool = False) -> List[Match]:
        matches: List[Match] = []
        ordered = _order_queue(queue, presorted)
        blocked_head: Optional[FluxJob] = None
        shadow_time = float("inf")
        for job in ordered:
            if limit is not None and len(matches) >= limit:
                break
            if blocked_head is None:
                placements = allocation.try_place(job.spec.resources)
                if placements is not None:
                    matches.append((job, placements))
                    continue
                blocked_head = job
                shadow_time = self._shadow_time(job, allocation, running, now)
                continue
            # Backfill phase: only jobs that finish before the head's
            # reservation may start.
            est_end = now + job.spec.duration
            if est_end > shadow_time:
                continue
            placements = allocation.try_place(job.spec.resources)
            if placements is not None:
                matches.append((job, placements))
        return matches

    @staticmethod
    def _shadow_time(head: FluxJob, allocation: Allocation,
                     running: List[FluxJob], now: float) -> float:
        """Earliest time the head job could start, assuming running jobs
        end exactly at their walltime estimates."""
        need_cores = head.spec.resources.cores
        need_gpus = head.spec.resources.gpus
        free_cores = allocation.free_cores
        free_gpus = allocation.free_gpus
        if free_cores >= need_cores and free_gpus >= need_gpus:
            return now
        # Sort running jobs by estimated completion and accumulate
        # released resources until the head fits.
        ends = sorted(
            (j for j in running if j.start_time is not None),
            key=lambda j: (j.start_time or 0.0) + j.spec.duration,
        )
        for job in ends:
            free_cores += job.spec.resources.cores
            free_gpus += job.spec.resources.gpus
            if free_cores >= need_cores and free_gpus >= need_gpus:
                return (job.start_time or 0.0) + job.spec.duration
        return float("inf")


POLICIES = {
    FcfsPolicy.name: FcfsPolicy,
    EasyBackfillPolicy.name: EasyBackfillPolicy,
}


def make_policy(name: str):
    """Instantiate a policy by name (``fcfs`` or ``easy``)."""
    try:
        return POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown scheduling policy {name!r}; choose from {sorted(POLICIES)}"
        ) from None
