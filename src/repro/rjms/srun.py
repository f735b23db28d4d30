"""The ``srun`` launch path with Frontier's concurrency ceiling.

An :class:`SrunLauncher` is shared machine-wide.  Each task launch:

1. waits for one of the ``srun_ceiling`` (112 on the Frontier-like
   profile) concurrency slots — the slot is held for the *entire task
   lifetime*, because a real srun client process stays alive while its
   step runs.  This is what caps concurrency at 112 running tasks and
   pins utilization to 50 % on 4 nodes (Fig. 4);
2. passes through the serialized ``slurmctld`` launch pipeline
   (:meth:`~repro.rjms.slurm.SlurmController.process_launch_rpc`);
3. pays a local step-setup latency, then executes the task payload.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..platform.latency import LatencyModel
from ..sim import Environment, Resource, RngStreams
from .slurm import SlurmController


class SrunLauncher:
    """Machine-wide srun facility: concurrency ceiling + launch path."""

    def __init__(self, env: Environment, controller: SlurmController,
                 latencies: LatencyModel, rng: RngStreams) -> None:
        self.env = env
        self.controller = controller
        self.latencies = latencies
        self.rng = rng
        self._ceiling = Resource(env, capacity=latencies.srun_ceiling)

    # -- introspection ---------------------------------------------------------

    @property
    def active(self) -> int:
        """Number of srun invocations currently alive."""
        return self._ceiling.count

    @property
    def waiting(self) -> int:
        """Number of launches blocked on the concurrency ceiling."""
        return self._ceiling.queued

    @property
    def ceiling(self) -> int:
        return self._ceiling.capacity

    # -- launching ----------------------------------------------------------------

    def run_task(self, alloc_nodes: int, duration: float,
                 on_start: Optional[Callable[[], None]] = None,
                 on_stop: Optional[Callable[[], None]] = None):
        """Generator that launches and executes one task via srun.

        Parameters
        ----------
        alloc_nodes:
            Size of the surrounding allocation (drives controller cost).
        duration:
            Simulated task payload runtime [s] (0 for null tasks).
        on_start / on_stop:
            Callbacks fired when the payload starts / stops executing
            (used by the executor to record trace events and manage
            slot bookkeeping).
        """
        slot = self._ceiling.request()
        try:
            # The acquisition must sit inside the try: a step killed
            # while queued for the ceiling (cancellation, node failure)
            # would otherwise be granted its slot posthumously and
            # never release it, draining the ceiling until no launch
            # can ever proceed.  release() on an ungranted request
            # just cancels the wait.
            yield slot
            yield from self.controller.process_launch_rpc(alloc_nodes)
            setup = self.rng.lognormal_latency(
                "srun.setup", self.latencies.srun_step_setup,
                cv=self.latencies.srun_cv)
            if setup > 0:
                yield self.env.timeout(setup)
            if on_start is not None:
                on_start()
            if duration > 0:
                yield self.env.timeout(duration)
            if on_stop is not None:
                on_stop()
        finally:
            slot.release()
