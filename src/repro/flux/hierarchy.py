"""Hierarchical / partitioned Flux deployments.

The *flux_n* experiment runs many concurrent Flux instances, each on a
disjoint node partition of the pilot allocation, all bootstrapped
concurrently (so startup overhead is not additive — Fig. 7).  Nested
instances (an instance spawning a child on a subset of its nodes) are
also supported, mirroring Flux's recursive design.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..exceptions import RuntimeStartupError
from ..platform.cluster import Allocation
from ..platform.latency import LatencyModel
from ..sim import Environment, RngStreams
from .instance import FluxInstance, InstanceState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analytics.profiler import Profiler


class FluxHierarchy:
    """A set of sibling Flux instances over disjoint partitions."""

    def __init__(self, env: Environment, allocation: Allocation,
                 latencies: LatencyModel, rng: RngStreams,
                 n_instances: int = 1, policy: str = "fcfs",
                 name: str = "flux", profiler: Optional["Profiler"] = None,
                 metrics=None, faults=None) -> None:
        self.env = env
        self.allocation = allocation
        self.name = name
        partitions = allocation.partition(n_instances)
        self.instances: List[FluxInstance] = [
            FluxInstance(env, part, latencies, rng,
                         instance_id=f"{name}.{i:03d}", policy=policy,
                         profiler=profiler, metrics=metrics, faults=faults)
            for i, part in enumerate(partitions)
        ]
        self._rr = 0

    @property
    def n_instances(self) -> int:
        return len(self.instances)

    @property
    def is_trivial(self) -> bool:
        """Whether the hierarchy is a single instance.

        Only trivial hierarchies are closed-form-predictable: sibling
        instances draw from the *session-scoped* latency streams in
        chronological interleaving order, and least-loaded routing
        couples each submission to every sibling's outstanding count —
        both make per-instance timelines depend on the global event
        order, which the vectorized ensemble recurrence does not model.
        """
        return len(self.instances) == 1

    @property
    def all_ready(self) -> bool:
        return all(inst.is_ready for inst in self.instances)

    def start_all(self):
        """Generator: bootstrap every instance *concurrently*; returns
        when all are ready (total overhead ~= max, not sum)."""
        procs = [self.env.process(inst.start()) for inst in self.instances]
        yield self.env.all_of(procs)
        if not self.all_ready:
            raise RuntimeStartupError(f"{self.name}: not all instances ready")

    def shutdown_all(self) -> None:
        for inst in self.instances:
            inst.shutdown()

    def least_loaded(self, min_cores: int = 0,
                     min_gpus: int = 0) -> FluxInstance:
        """The ready instance with the fewest outstanding jobs.

        "Outstanding" counts everything submitted but not yet retired
        (including jobs still in the ingest pipeline), so the balance
        is accurate even while submission outpaces ingest.  Round-robin
        breaks ties, spreading load evenly for homogeneous workloads.

        ``min_cores`` / ``min_gpus`` restrict the choice to instances
        whose partition can ever host the job (wide jobs must go to a
        wide-enough instance).
        """
        # Single pass over plain attributes (no property indirection),
        # computing each instance's outstanding count once — this runs
        # per task submission.
        ready = InstanceState.READY
        low = None
        candidates = []
        for inst in self.instances:
            if inst.state != ready:
                continue
            alloc = inst.allocation
            # Usable (not total) capacity: an instance that lost nodes
            # to failures must not receive jobs it can no longer host.
            # Equal to the totals in a healthy run.
            if alloc._usable_cores < min_cores or alloc._usable_gpus < min_gpus:
                continue
            outstanding = (inst.n_submitted - inst.n_completed
                           - inst.n_failed)
            if low is None or outstanding < low:
                low = outstanding
                candidates = [inst]
            elif outstanding == low:
                candidates.append(inst)
        if not candidates:
            raise RuntimeStartupError(
                f"{self.name}: no ready instance can host "
                f"{min_cores}c/{min_gpus}g")
        self._rr = (self._rr + 1) % len(candidates)
        return candidates[self._rr]

    def spawn_nested(self, parent: FluxInstance, n_nodes: int,
                     policy: str = "fcfs") -> FluxInstance:
        """Create a child instance on ``n_nodes`` of the parent's
        partition (nested hierarchical scheduling).

        The child manages the *same* node objects; resource safety is
        preserved because the parent should not schedule onto nodes it
        delegates (the caller's responsibility, as in real Flux).
        """
        if parent.state != InstanceState.READY:
            raise RuntimeStartupError("parent instance not ready")
        if n_nodes >= parent.allocation.n_nodes:
            raise RuntimeStartupError(
                "child must be strictly smaller than its parent")
        sub_nodes = parent.allocation.nodes[:n_nodes]
        sub_alloc = Allocation(parent.allocation.cluster, sub_nodes,
                               job_id=f"{parent.instance_id}.nested")
        child = FluxInstance(self.env, sub_alloc, parent.latencies,
                             parent.rng,
                             instance_id=f"{parent.instance_id}.child",
                             policy=policy, profiler=parent.profiler)
        self.instances.append(child)
        return child
