"""The Flux executor: asynchronous, event-driven integration (§3.2.1).

Tasks are serialized into jobspecs and submitted over the instance's
ingest RPC; the executor never polls — a watcher process per instance
consumes the job event stream and maps Flux lifecycle events onto RP
task states.  Multiple concurrent instances (the *flux_n* and hybrid
configurations) are managed through a
:class:`~repro.flux.hierarchy.FluxHierarchy`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from ...exceptions import JobspecError, RuntimeStartupError
from ...flux import (
    EV_EXCEPTION,
    EV_FINISH,
    EV_START,
    FluxHierarchy,
    Jobspec,
)
from ...platform.cluster import Allocation
from .executor_base import ExecutorBase

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..task import Task
    from .agent import Agent


class FluxExecutor(ExecutorBase):
    """Drives one or more concurrent Flux instances."""

    backend = "flux"

    def __init__(self, agent: "Agent", allocation: Allocation,
                 n_instances: int = 1, policy: str = "fcfs") -> None:
        super().__init__(agent, allocation)
        self.hierarchy = FluxHierarchy(
            self.env, allocation, self.latencies, self.rng,
            n_instances=n_instances, policy=policy,
            name=f"{agent.uid}.flux", profiler=self.profiler,
            faults=agent.faults)
        #: flux job id -> RP task, for event correlation.
        self._job_to_task: Dict[str, "Task"] = {}
        #: RP task uid -> (instance, flux job id), for cancellation.
        self._task_to_job: Dict[str, tuple] = {}
        #: id(description) -> (description, jobspec).  Descriptions are
        #: frozen, so identical submissions reuse one validated spec —
        #: synthetic workloads share a single description across
        #: every task.  The description is pinned in the value to keep
        #: its id() from being recycled.
        self._spec_cache: Dict[int, tuple] = {}

    @property
    def n_instances(self) -> int:
        return self.hierarchy.n_instances

    @property
    def outstanding(self) -> int:
        return sum(inst.outstanding for inst in self.hierarchy.instances)

    def start(self):
        """Bootstrap all instances concurrently, then start watchers."""
        yield from self.hierarchy.start_all()
        self.ready = True
        self.ready_at = self.env.now
        for inst in self.hierarchy.instances:
            # Only the events _on_event acts on: submit/alloc/release
            # are bookkeeping noise at this layer and skipping them
            # removes a delivery round-trip per event per job.  A
            # callback subscription (rather than a queue + watcher
            # process) saves a blocking-get event per delivery; the
            # handler is fully synchronous so this is safe.
            inst.events.subscribe_callback(
                self._on_event, names=(EV_START, EV_FINISH, EV_EXCEPTION))

    def shutdown(self) -> None:
        self.ready = False
        self.hierarchy.shutdown_all()

    def submit(self, task: "Task") -> None:
        td = task.description
        entry = self._spec_cache.get(id(td))
        if entry is None or entry[0] is not td:
            spec = Jobspec(
                command=td.executable,
                resources=td.resources,
                duration=td.duration,
                # RP priority [-16, 15] maps onto flux urgency [0, 31].
                urgency=16 + td.priority,
                attributes={"fail": True} if td.fail else {},
            )
            self._spec_cache[id(td)] = (td, spec)
        else:
            spec = entry[1]
        try:
            instance = self.hierarchy.least_loaded(
                min_cores=td.resources.cores, min_gpus=td.resources.gpus)
            job = instance.submit(spec)
        except JobspecError as exc:
            self.agent.attempt_finished(task, ok=False, reason=str(exc))
            return
        except RuntimeStartupError as exc:
            # No ready instance (or it died between pick and submit):
            # infrastructural, so the retry policy may reroute the task.
            self.agent.attempt_finished(task, ok=False, reason=str(exc),
                                        infra=True)
            return
        self.n_submitted += 1
        self._job_to_task[job.job_id] = task
        self._task_to_job[task.uid] = (instance, job.job_id)

    def cancel(self, task: "Task") -> bool:
        """Cancel the task's Flux job (pending or running)."""
        entry = self._task_to_job.get(task.uid)
        if entry is None:
            return False
        instance, job_id = entry
        return instance.cancel(job_id, reason="canceled by RP")

    def _on_event(self, event):
        """Map one delivered Flux job event onto RP task state."""
        task = self._job_to_task.get(event.job_id)
        if task is None:
            return
        if event.name == EV_START:
            self.n_active += 1
            self._task_started(task)
        elif event.name == EV_FINISH:
            self.n_active -= 1
            del self._job_to_task[event.job_id]
            self._task_to_job.pop(task.uid, None)
            task.mark_exec_stop()
            self.agent.attempt_finished(task, ok=True)
        elif event.name == EV_EXCEPTION:
            if task.exec_start is not None and task.exec_stop is None:
                self.n_active -= 1
            del self._job_to_task[event.job_id]
            self._task_to_job.pop(task.uid, None)
            reason = event.meta.get("reason", "flux job exception")
            self.agent.attempt_finished(task, ok=False, reason=reason,
                                        infra=bool(event.meta.get("infra")))

    # -- fault hooks ---------------------------------------------------------

    def on_node_failure(self, node) -> None:
        """Forward the failure to the instance whose partition owns the
        node; its running jobs there are killed and requeued."""
        for inst in self.hierarchy.instances:
            if node.index in inst.allocation._by_index:
                inst.fail_node(node)
                return

    def on_node_recover(self, node) -> None:
        """Recovered capacity: kick the owning instance's scheduler."""
        for inst in self.hierarchy.instances:
            if node.index in inst.allocation._by_index:
                inst._kick()
                return
