"""Flux-like hierarchical task runtime system.

Models a Flux deployment inside a pilot allocation: per-instance
brokers with serialized ingest, policy-driven scheduling (FCFS / EASY
backfill) over count-level node placement, TBON-style dispatch lanes,
an asynchronous job event stream, and hierarchical / partitioned
multi-instance operation.
"""

from .events import (
    EV_ALLOC,
    EV_EXCEPTION,
    EV_FINISH,
    EV_RELEASE,
    EV_START,
    EV_SUBMIT,
    EventStream,
    JobEvent,
)
from .hierarchy import FluxHierarchy
from .instance import FluxInstance, InstanceState
from .jobspec import FluxJob, FluxJobState, Jobspec
from .scheduler import EasyBackfillPolicy, FcfsPolicy, make_policy

__all__ = [
    "EV_ALLOC",
    "EV_EXCEPTION",
    "EV_FINISH",
    "EV_RELEASE",
    "EV_START",
    "EV_SUBMIT",
    "EasyBackfillPolicy",
    "EventStream",
    "FcfsPolicy",
    "FluxHierarchy",
    "FluxInstance",
    "FluxJob",
    "FluxJobState",
    "InstanceState",
    "JobEvent",
    "Jobspec",
    "make_policy",
]
