"""Simulated HPC platform: nodes, clusters, allocations, latency models.

This package substitutes for the paper's physical substrate (Frontier).
It models exactly what the experiments exercise — resource counting,
count-level placement of cores and GPUs on nodes, node partitioning,
and the timing behaviour of the system software (see
:mod:`repro.platform.latency` for the calibration).
"""

from .cluster import Allocation, Cluster
from .filesystem import SharedFilesystem
from .latency import DETERMINISTIC_LATENCIES, FRONTIER_LATENCIES, LatencyModel
from .node import Node, NodeHealth, Placement
from .profiles import (
    FRONTIER_CORES_PER_NODE,
    FRONTIER_GPUS_PER_NODE,
    FRONTIER_NODES,
    frontier,
    frontier_latencies,
    generic,
)
from .spec import ResourceSpec

__all__ = [
    "Allocation",
    "Cluster",
    "DETERMINISTIC_LATENCIES",
    "FRONTIER_CORES_PER_NODE",
    "FRONTIER_GPUS_PER_NODE",
    "FRONTIER_LATENCIES",
    "FRONTIER_NODES",
    "LatencyModel",
    "Node",
    "NodeHealth",
    "Placement",
    "ResourceSpec",
    "SharedFilesystem",
    "frontier",
    "frontier_latencies",
    "generic",
]
