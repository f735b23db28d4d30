"""The agent-level partition scheduler.

For backends where RP itself owns placement (srun, Dragon), the agent
scheduler hands out slot-level placements on the backend's partition,
queueing requests FIFO while resources are busy.  (Flux partitions
schedule internally; tasks routed there bypass this component.)
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Tuple

from ...platform.cluster import Allocation
from ...platform.node import Placement
from ...platform.spec import ResourceSpec
from ...sim import Environment, Event


class PartitionScheduler:
    """FIFO slot scheduler over one partition allocation."""

    def __init__(self, env: Environment, allocation: Allocation,
                 name: str = "sched") -> None:
        self.env = env
        self.allocation = allocation
        self.name = name
        self._pending: Deque[Tuple[ResourceSpec, Event]] = deque()
        self.n_placed = 0

    @property
    def queue_depth(self) -> int:
        return len(self._pending)

    def place(self, spec: ResourceSpec) -> Event:
        """Request a placement; the event fires with the placements list.

        Requests are granted strictly FIFO — a large task at the queue
        head blocks later small ones (the agent relies on the backend's
        own scheduler, e.g. Flux backfill, when that matters).
        """
        ev = Event(self.env)
        alloc = self.allocation
        if alloc.n_down_nodes and (spec.cores > alloc.usable_cores
                                   or spec.gpus > alloc.usable_gpus):
            # Node failures shrank the partition below the request:
            # fail fast (the retry policy decides what happens next)
            # instead of queueing a request nothing can ever grant.
            from ...exceptions import NodeFailureError

            ev._defused = True  # type: ignore[attr-defined]
            ev.fail(NodeFailureError(
                f"{self.name}: unsatisfiable after node failure"))
            return ev
        if not self._pending:
            placements = self.allocation.try_place(spec)
            if placements is not None:
                self.n_placed += 1
                ev.succeed(placements)
                return ev
        self._pending.append((spec, ev))
        return ev

    def free(self, placements: List[Placement]) -> None:
        """Release placements and drain the FIFO queue as far as possible."""
        self.allocation.release(placements)
        self._drain()

    def _drain(self) -> None:
        while self._pending:
            spec, ev = self._pending[0]
            placements = self.allocation.try_place(spec)
            if placements is None:
                break
            self._pending.popleft()
            self.n_placed += 1
            ev.succeed(placements)

    def cancel_pending(self) -> None:
        """Fail all queued placement requests (partition shutdown)."""
        while self._pending:
            _spec, ev = self._pending.popleft()
            if not ev.triggered:
                ev._defused = True  # type: ignore[attr-defined]
                from ...exceptions import SchedulingError

                ev.fail(SchedulingError(f"{self.name}: partition shut down"))

    def node_lost(self) -> None:
        """A partition node went DOWN: fail the queued requests that no
        longer fit the usable capacity (they would deadlock the FIFO
        queue forever), keep the satisfiable rest, and re-drain."""
        from ...exceptions import NodeFailureError

        alloc = self.allocation
        keep: Deque[Tuple[ResourceSpec, Event]] = deque()
        for spec, ev in self._pending:
            if spec.cores > alloc.usable_cores or spec.gpus > alloc.usable_gpus:
                if not ev.triggered:
                    ev._defused = True  # type: ignore[attr-defined]
                    ev.fail(NodeFailureError(
                        f"{self.name}: unsatisfiable after node failure"))
            else:
                keep.append((spec, ev))
        if len(keep) != len(self._pending):
            self._pending = keep
        self._drain()
