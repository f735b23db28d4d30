"""repro — reproduction of *Integrating and Characterizing HPC Task
Runtime Systems for hybrid AI-HPC workloads* (SC Workshops '25).

A pilot-job runtime (RADICAL-Pilot analogue) that concurrently drives
Flux-like, Dragon-like and Slurm/srun-like task runtime systems over a
discrete-event-simulated HPC platform, plus the workloads, analytics
and experiment harness that regenerate every figure and table of the
paper's evaluation.

Package layout
--------------
``repro.sim``
    From-scratch discrete-event simulation kernel.
``repro.platform``
    Nodes, clusters, allocations, calibrated latency models.
``repro.rjms``
    Slurm-like controller + srun launch path (112-srun ceiling).
``repro.flux``
    Flux-like hierarchical runtime (ingest, scheduler, lanes, events).
``repro.dragon``
    Dragon-like runtime (global services, worker pools, channels).
``repro.core``
    The pilot runtime: sessions, pilots, tasks, agent, executors.
``repro.workloads``
    Synthetic (null/dummy) and IMPECCABLE campaign generators.
``repro.analytics``
    Trace store and throughput/utilization/overhead metrics.
``repro.experiments``
    Table-1 experiment configurations and the run harness.
"""

__version__ = "1.0.0"

# Top-level names, imported on first access: ``import repro.sim`` then
# loads the kernel alone, not the pilot runtime and analytics above it.
_LAZY = {
    "PartitionSpec": "core",
    "PilotDescription": "core",
    "Session": "core",
    "TaskDescription": "core",
    "ResourceSpec": "platform",
    "frontier": "platform",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module("." + _LAZY[name], __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "PartitionSpec",
    "PilotDescription",
    "ResourceSpec",
    "Session",
    "TaskDescription",
    "frontier",
    "__version__",
]
