"""Compute-node model with count-level core and GPU capacity.

A node hands out *counts* of cores and GPUs, as the RP agent does
for each task; no per-slot identity is tracked, so allocate and
release are O(1) per placement.  Double-free detection stays exact:
the node remembers the placement objects it has handed out (hashed by
identity), so releasing one placement twice raises even while other
placements of the same shape are still held.
"""

from __future__ import annotations

import enum

from ..exceptions import ResourceError


class NodeHealth(enum.Enum):
    """Health of one compute node.

    ``UP`` serves placements normally.  ``DRAINING`` accepts no new
    placements but lets running work finish (free capacity is
    confiscated, held capacity stays held).  ``DOWN`` additionally
    means running work on the node has been killed by the failure.
    """

    UP = "up"
    DRAINING = "draining"
    DOWN = "down"


class Placement:
    """``cores`` cores and ``gpus`` GPUs handed out on one node.

    Placements are returned by :meth:`Node.allocate` and must be given
    back via :meth:`Node.release`.  Equality and hashing are by
    identity, so two placements of the same shape on one node stay
    distinct in the node's held set.
    """

    __slots__ = ("node_index", "cores", "gpus")

    def __init__(self, node_index: int, cores: int, gpus: int) -> None:
        self.node_index = node_index
        self.cores = cores
        self.gpus = gpus

    def __repr__(self) -> str:
        return (f"Placement(node_index={self.node_index}, "
                f"cores={self.cores}, gpus={self.gpus})")


class Node:
    """One compute node with ``n_cores`` CPU cores and ``n_gpus`` GPUs."""

    def __init__(self, index: int, n_cores: int, n_gpus: int = 0,
                 name: str = "") -> None:
        if n_cores < 1:
            raise ResourceError(f"node needs >=1 core, got {n_cores}")
        if n_gpus < 0:
            raise ResourceError(f"negative gpu count {n_gpus}")
        self.index = index
        self.name = name or f"node{index:05d}"
        self.n_cores = n_cores
        self.n_gpus = n_gpus
        self.free_cores = n_cores
        self.free_gpus = n_gpus
        #: Placements handed out and not yet released.
        self._held: set = set()
        self.health = NodeHealth.UP
        # Capacity confiscated while unhealthy.  Keeping it out of the
        # free counts means a DOWN/DRAINING node looks fully busy to the
        # placement hot path — ``try_place`` and the allocation scan
        # hint skip it with no health check of their own.
        self._lost_cores = 0
        self._lost_gpus = 0
        #: Allocations watching this node's free counts.  Every
        #: allocate/release pushes the delta to all watchers, keeping
        #: each allocation's aggregate free-core/GPU counters exact in
        #: O(#watchers) — instead of O(n_nodes) re-summation per query.
        #: A node is typically watched by the pilot allocation plus one
        #: partition (and rarely a nested instance), so this is cheap.
        self._watchers: list = []

    # -- capacity ----------------------------------------------------------

    @property
    def is_idle(self) -> bool:
        return self.free_cores == self.n_cores and self.free_gpus == self.n_gpus

    @property
    def is_up(self) -> bool:
        return self.health is NodeHealth.UP

    # -- allocation --------------------------------------------------------

    def allocate(self, cores: int, gpus: int = 0) -> Placement:
        """Claim ``cores`` cores and ``gpus`` GPUs.

        Raises :class:`ResourceError` when insufficient capacity is free.
        """
        if cores < 0 or gpus < 0:
            raise ResourceError("negative allocation request")
        if cores > self.free_cores or gpus > self.free_gpus:
            raise ResourceError(
                f"{self.name}: cannot allocate {cores}c/{gpus}g "
                f"(free {self.free_cores}c/{self.free_gpus}g)"
            )
        self.free_cores -= cores
        self.free_gpus -= gpus
        placement = Placement(self.index, cores, gpus)
        self._held.add(placement)
        for watcher in self._watchers:
            watcher._on_node_delta(-cores, -gpus, self.index)
        return placement

    def release(self, placement: Placement) -> None:
        """Return a placement's capacity.  Double-free raises."""
        if placement.node_index != self.index:
            raise ResourceError(
                f"placement for node {placement.node_index} released on "
                f"node {self.index}"
            )
        try:
            self._held.remove(placement)
        except KeyError:
            raise ResourceError(f"{self.name}: {placement!r} double-freed")
        cores = placement.cores
        gpus = placement.gpus
        if self.health is not NodeHealth.UP:
            # Capacity released on an unhealthy node is confiscated
            # rather than freed: it is gone until the node recovers, so
            # no positive delta reaches the watchers and the node keeps
            # reading as fully busy to the placement scan.
            self._lost_cores += cores
            self._lost_gpus += gpus
            return
        self.free_cores += cores
        self.free_gpus += gpus
        for watcher in self._watchers:
            watcher._on_node_delta(cores, gpus, self.index)

    # -- health ------------------------------------------------------------

    def drain(self) -> bool:
        """Stop serving new placements; running work may finish.

        Confiscates the currently-free capacity (pushing the negative
        delta to watchers so their free counts stay exact) and marks
        the node ``DRAINING``.  Returns ``False`` when the node was
        already unhealthy.
        """
        if self.health is not NodeHealth.UP:
            return False
        self.health = NodeHealth.DRAINING
        self._confiscate_free()
        return True

    def fail(self) -> bool:
        """Take the node ``DOWN``.

        Free capacity is confiscated; held placements stay held until
        they are released (the owning executors are responsible for
        killing the tasks and releasing — released capacity then lands
        in the lost count).  Watchers are told about the capacity loss
        via ``_on_node_down`` so aggregate *usable* capacity tracks the
        failure.  Returns ``False`` when already DOWN.
        """
        if self.health is NodeHealth.DOWN:
            return False
        was_up = self.health is NodeHealth.UP
        self.health = NodeHealth.DOWN
        if was_up:
            self._confiscate_free()
        for watcher in self._watchers:
            watcher._on_node_down(self.index, self.n_cores, self.n_gpus)
        return True

    def recover(self) -> bool:
        """Bring the node back ``UP``, restoring confiscated capacity."""
        if self.health is NodeHealth.UP:
            return False
        was_down = self.health is NodeHealth.DOWN
        self.health = NodeHealth.UP
        cores, gpus = self._lost_cores, self._lost_gpus
        self.free_cores += cores
        self.free_gpus += gpus
        self._lost_cores = self._lost_gpus = 0
        if was_down:
            for watcher in self._watchers:
                watcher._on_node_up(self.index, self.n_cores, self.n_gpus)
        if cores or gpus:
            for watcher in self._watchers:
                watcher._on_node_delta(cores, gpus, self.index)
        return True

    def _confiscate_free(self) -> None:
        cores, gpus = self.free_cores, self.free_gpus
        self._lost_cores += cores
        self._lost_gpus += gpus
        self.free_cores = self.free_gpus = 0
        if cores or gpus:
            for watcher in self._watchers:
                watcher._on_node_delta(-cores, -gpus, self.index)

    def __repr__(self) -> str:
        return (
            f"<Node {self.name} cores={self.free_cores}/{self.n_cores} "
            f"gpus={self.free_gpus}/{self.n_gpus}>"
        )
