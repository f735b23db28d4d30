"""Trace-event records, mirroring RADICAL-Analytics' profile format.

Every component in the stack (agent, executors, Flux instances, Dragon
runtime, Slurm controller) appends :class:`TraceEvent` records to a
shared :class:`~repro.analytics.profiler.Profiler`.  All performance
metrics in :mod:`repro.analytics.metrics` are pure functions of these
traces, exactly as RADICAL-Analytics derives the paper's plots from
RP profiles.
"""

from __future__ import annotations

from typing import Any, Dict, NamedTuple

# -- canonical event names -----------------------------------------------------
# Task lifecycle (subset of RP's event model that the metrics consume).
TASK_CREATED = "task_created"          #: task description accepted by the TMGR
TASK_SCHEDULED = "task_scheduled"      #: agent scheduler assigned resources/backend
TASK_SUBMITTED = "task_submitted"      #: handed to the backend launcher
TASK_EXEC_START = "task_exec_start"    #: application process began executing
TASK_EXEC_STOP = "task_exec_stop"      #: application process finished
TASK_DONE = "task_done"                #: final state DONE recorded by RP
TASK_FAILED = "task_failed"            #: final state FAILED recorded by RP
TASK_CANCELED = "task_canceled"        #: final state CANCELED recorded by RP

# Pilot / infrastructure lifecycle.
PILOT_ACTIVE = "pilot_active"          #: allocation granted, agent bootstrapped
PILOT_DONE = "pilot_done"              #: pilot shut down
BACKEND_START = "backend_start"        #: runtime-instance bootstrap began
BACKEND_READY = "backend_ready"        #: runtime instance ready for tasks
BACKEND_STOP = "backend_stop"          #: runtime instance shut down
BACKEND_FAILED = "backend_failed"      #: runtime instance crashed / timed out

# Fault injection and recovery (see :mod:`repro.faults`).
TASK_ATTEMPT_FAILED = "task_attempt_failed"  #: one execution attempt failed
NODE_FAILED = "node_failed"            #: compute node taken DOWN by a fault
NODE_RECOVERED = "node_recovered"      #: compute node repaired, back UP
FAULT_INJECTED = "fault_injected"      #: fault model injected an event
BACKEND_RESTART = "backend_restart"    #: crashed runtime instance restarted
BACKEND_BLACKLISTED = "backend_blacklisted"  #: backend removed from routing


class TraceEvent(NamedTuple):
    """One timestamped event about one entity.

    A named tuple rather than a (frozen) dataclass: one is allocated
    per recorded trace event — hundreds of thousands per experiment —
    and tuple construction is several times cheaper.

    Parameters
    ----------
    time:
        Simulated time [s].
    entity:
        Id of the task / pilot / instance the event concerns.
    name:
        One of the canonical event names above (free-form allowed).
    meta:
        Event-specific payload, e.g. ``cores``, ``backend``, ``gpus``.
        A recorded meta is shared and read-only: task records with
        equal metas hold one dict (see
        :meth:`~repro.analytics.profiler.Profiler.task_meta`), and the
        ``{}`` default is one dict shared by every event without meta.
    """

    time: float
    entity: str
    name: str
    meta: Dict[str, Any] = {}

    def __repr__(self) -> str:
        return f"<{self.name} {self.entity} @ {self.time:.4f}>"
