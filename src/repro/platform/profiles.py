"""Named machine profiles.

The experiments all run on a Frontier-like profile: the paper's 4-node
srun experiment reports 224 cores at SMT=1, i.e. **56 usable cores per
node** (64 physical minus 8 reserved for the OS/low-noise cores), and
8 GPUs (GCDs) per node.
"""

from __future__ import annotations

from .cluster import Cluster
from .latency import FRONTIER_LATENCIES, LatencyModel

#: Usable cores per Frontier node at SMT=1 (224 cores / 4 nodes in §4.1.1).
FRONTIER_CORES_PER_NODE = 56
#: MI250X GCDs per Frontier node.
FRONTIER_GPUS_PER_NODE = 8
#: Frontier node count (we only ever allocate <= 1024 in the experiments).
FRONTIER_NODES = 9408


def frontier(n_nodes: int = FRONTIER_NODES) -> Cluster:
    """A Frontier-like cluster (56 usable cores + 8 GPUs per node)."""
    return Cluster(
        name="frontier",
        n_nodes=n_nodes,
        cores_per_node=FRONTIER_CORES_PER_NODE,
        gpus_per_node=FRONTIER_GPUS_PER_NODE,
    )


def generic(n_nodes: int, cores_per_node: int = 8,
            gpus_per_node: int = 0) -> Cluster:
    """A small generic cluster for unit tests and examples."""
    return Cluster(
        name="generic",
        n_nodes=n_nodes,
        cores_per_node=cores_per_node,
        gpus_per_node=gpus_per_node,
    )


def frontier_latencies() -> LatencyModel:
    """The default latency calibration for the Frontier-like profile."""
    return FRONTIER_LATENCIES
