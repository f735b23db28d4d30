"""Dragon worker pool: per-node local services and pooled processes.

Dragon launches tasks through per-node *local services* daemons.  For
in-memory **function** tasks it reuses pooled worker processes (warm
dispatch — no exec), while **executable** tasks always fork+exec a
fresh process.  The pool tracks warm/cold statistics so tests and
benchmarks can verify that pooling actually happens.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..exceptions import DragonError
from ..platform.cluster import Allocation
from ..sim import Environment, Resource

#: Dispatch cost of reusing a pooled worker process (no exec) [s].
WARM_START_COST = 0.5e-3
#: Dispatch cost of a fresh fork+exec — every executable task pays it [s].
COLD_START_COST = 15e-3


class WorkerPool:
    """One worker slot per core of the backing allocation."""

    def __init__(self, env: Environment, allocation: Allocation,
                 warm_start_cost: float = WARM_START_COST,
                 cold_start_cost: float = COLD_START_COST) -> None:
        self.env = env
        self.allocation = allocation
        self.warm_start_cost = warm_start_cost
        self.cold_start_cost = cold_start_cost
        self._slots = Resource(env, capacity=max(1, allocation.total_cores))
        #: How many pooled worker processes exist already (warm).
        self._warm_workers = 0
        self.n_warm_dispatch = 0
        self.n_cold_dispatch = 0

    @property
    def capacity(self) -> int:
        return self._slots.capacity

    @property
    def busy(self) -> int:
        return self._slots.count

    @property
    def idle(self) -> int:
        return self.capacity - self.busy

    def acquire(self):
        """Request one worker slot (an event; FIFO when contended)."""
        return self._slots.request()

    def lose(self, n_slots: int) -> int:
        """Shrink the pool by up to ``n_slots`` (a node died).

        Returns how many slots were actually removed.  Busy slots are
        not revoked here — their releases simply stop re-granting while
        the pool is over capacity (see ``Resource.set_capacity``).
        """
        take = max(0, min(n_slots, self._slots.capacity))
        if take:
            self._slots.set_capacity(self._slots.capacity - take)
        return take

    def restore(self, n_slots: int) -> None:
        """Grow the pool back by ``n_slots`` (a node recovered)."""
        if n_slots > 0:
            self._slots.set_capacity(self._slots.capacity + n_slots)

    def dispatch_cost(self, mode: str) -> float:
        """Local dispatch cost for a task of the given mode, updating
        warm/cold pool statistics.

        Function tasks reuse pooled interpreters once they exist;
        executables always pay the cold fork+exec cost.
        """
        if mode == "function":
            if self._warm_workers > self.busy - 1:
                self.n_warm_dispatch += 1
                return self.warm_start_cost
            self._warm_workers += 1
            self.n_cold_dispatch += 1
            return self.cold_start_cost
        if mode == "executable":
            self.n_cold_dispatch += 1
            return self.cold_start_cost
        raise DragonError(f"unknown task mode {mode!r}")
