"""The Dragon-like runtime: centralized global services + worker pool.

Architecture (paper Fig. 3): RP's Dragon executor pushes serialized
tasks into the runtime over a ZeroMQ pipe; the runtime's *global
services* (GS) process launches them onto pooled workers; completion
events are pushed back asynchronously over a second pipe, where a
watcher updates RP's registry.

The mechanisms behind the measured behaviour:

* **centralized GS** — a single serialized bookkeeping stage services
  every spawn.  Its per-task cost grows with the node count the
  instance spans (``dragon_gs_exec_cost * (1 + penalty * n_nodes)``),
  which reproduces Fig. 5(c): throughput flat at small scale
  (~343-380 tasks/s), degrading at 64 nodes (~204 tasks/s);
* **function fast path** — in-memory Python function tasks skip
  fork+exec and reuse pooled interpreters, with a much lower GS cost
  and near-zero node penalty — Dragon's "native mode" exploited by
  the hybrid flux+dragon configuration;
* **bootstrap** — ~9 s regardless of size (Fig. 7), guarded on the RP
  side by a startup-timeout watchdog.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..exceptions import (
    BackendError,
    DragonError,
    NodeFailureError,
    RuntimeStartupError,
)
from ..platform.cluster import Allocation
from ..platform.latency import LatencyModel
from ..sim import Environment, RngStreams
from .channels import ZmqPipe
from .pool import WorkerPool

#: Task modes accepted by the runtime.
MODE_EXEC = "executable"
MODE_FUNC = "function"


@dataclass(frozen=True)
class DragonTask:
    """A task message sent to the Dragon runtime."""

    task_id: str
    mode: str = MODE_EXEC
    duration: float = 0.0
    fail: bool = False
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in (MODE_EXEC, MODE_FUNC):
            raise DragonError(f"unknown task mode {self.mode!r}")
        if self.duration < 0:
            raise DragonError(f"negative duration {self.duration}")


@dataclass(frozen=True)
class DragonCompletion:
    """A completion event pushed back to the executor."""

    task_id: str
    ok: bool
    start_time: float
    stop_time: float
    error: str = ""
    #: True when the failure was infrastructural (worker/node/runtime
    #: death) rather than the task payload — infra failures qualify for
    #: policy-driven retries.
    infra: bool = False


@dataclass(frozen=True)
class DragonGroup:
    """A co-scheduled process group (Dragon's ProcessGroup API).

    All ranks acquire workers atomically (no partial group ever
    starts), launch together, and the group completes when every rank
    does.
    """

    group_id: str
    ranks: tuple

    def __post_init__(self) -> None:
        if not self.ranks:
            raise DragonError("a process group needs at least one rank")
        ids = [t.task_id for t in self.ranks]
        if len(set(ids)) != len(ids):
            raise DragonError("duplicate task ids in process group")

    @property
    def size(self) -> int:
        return len(self.ranks)


@dataclass(frozen=True)
class DragonGroupCompletion:
    """Completion record for a whole process group."""

    group_id: str
    ok: bool
    start_time: float
    stop_time: float
    errors: tuple = ()


class DragonState:
    INIT = "INIT"
    STARTING = "STARTING"
    READY = "READY"
    FAILED = "FAILED"
    STOPPED = "STOPPED"


class DragonRuntime:
    """One Dragon runtime instance spanning an allocation."""

    def __init__(self, env: Environment, allocation: Allocation,
                 latencies: LatencyModel, rng: RngStreams,
                 instance_id: str = "dragon", profiler=None,
                 fail_startup: bool = False, faults=None) -> None:
        self.env = env
        self.allocation = allocation
        self.latencies = latencies
        self.rng = rng
        self.profiler = profiler
        self.instance_id = instance_id
        self.state = DragonState.INIT
        #: Optional :class:`~repro.faults.FaultModel` consulted once
        #: per launch for injected worker failures.
        self._faults = faults
        #: node index -> worker slots confiscated by fail_node.
        self._lost_by_node: Dict[int, int] = {}
        #: Fault injection: when true, bootstrap hangs forever so the
        #: executor-side watchdog can be exercised.
        self.fail_startup = fail_startup

        self.task_pipe = ZmqPipe(env, name=f"{instance_id}.tasks")
        self.completion_pipe = ZmqPipe(env, name=f"{instance_id}.events")
        self.pool = WorkerPool(env, allocation)
        #: Optional hook invoked with the task id when its payload starts.
        self.on_task_start = None
        self._canceled: set = set()
        self._retired: set = set()
        self._run_procs: Dict[str, Any] = {}
        # Only one group may be mid-acquisition at a time; this keeps
        # multi-slot acquisition atomic (no deadlock between groups).
        from ..sim import Resource

        self._group_admission = Resource(env, capacity=1)
        self.n_groups = 0

        self.n_submitted = 0
        self.n_started = 0
        self.n_completed = 0
        self.n_failed = 0

    # -- properties -------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.allocation.n_nodes

    @property
    def is_ready(self) -> bool:
        return self.state == DragonState.READY

    # -- lifecycle --------------------------------------------------------

    def startup_delay(self) -> float:
        lat = self.latencies
        mean = (lat.dragon_startup_mean
                + lat.dragon_startup_per_log2node
                * math.log2(max(1, self.n_nodes)))
        return self.rng.lognormal_latency("dragon.startup", mean,
                                          cv=lat.dragon_startup_cv)

    def start(self):
        """Generator: bootstrap the runtime (hangs when
        ``fail_startup`` is set — callers must watchdog)."""
        if self.state != DragonState.INIT:
            raise RuntimeStartupError(
                f"{self.instance_id}: start() in state {self.state}")
        self.state = DragonState.STARTING
        if self.profiler is not None:
            self.profiler.record(self.instance_id, "backend_start",
                                 kind="dragon", nodes=self.n_nodes)
        if self.fail_startup:
            # Simulated hang: wait on an event that never triggers.
            yield self.env.event()
            return
        yield self.env.timeout(self.startup_delay())
        self.state = DragonState.READY
        self.env.process(self._gs_loop())
        if self.profiler is not None:
            self.profiler.record(self.instance_id, "backend_ready",
                                 kind="dragon", nodes=self.n_nodes,
                                 workers=self.pool.capacity)

    def shutdown(self) -> None:
        if self.state in (DragonState.STOPPED, DragonState.FAILED):
            return
        self.state = DragonState.STOPPED
        if self.profiler is not None:
            self.profiler.record(self.instance_id, "backend_stop",
                                 kind="dragon")

    def crash(self, reason: str = "runtime crashed") -> None:
        """Simulate a runtime crash: running processes die with it and
        queued tasks fail via completions."""
        if self.state in (DragonState.STOPPED, DragonState.FAILED):
            return
        self.state = DragonState.FAILED
        for proc in list(self._run_procs.values()):
            if getattr(proc, "is_alive", False):
                proc.interrupt(BackendError(reason))
        while len(self.task_pipe):
            msg = self.task_pipe._store.try_get()
            if msg is None:
                break
            ranks = msg.ranks if isinstance(msg, DragonGroup) else (msg,)
            for rank in ranks:
                self._complete(rank, ok=False, start=self.env.now,
                               error=reason, infra=True)
        if self.profiler is not None:
            self.profiler.record(self.instance_id, "backend_failed",
                                 kind="dragon", reason=reason)

    def fail_node(self, node) -> None:
        """A node of this allocation went DOWN (fault injection).

        The worker pool shrinks by the node's core count, and one
        running task per lost busy slot is killed.  Pool slots are
        anonymous at this level of the model (Dragon's local services
        do not expose a stable task->node mapping), so the victims are
        the oldest running tasks — a deterministic stand-in for
        whatever happened to live on the node.
        """
        if self.state in (DragonState.STOPPED, DragonState.FAILED):
            return
        if node.index in self._lost_by_node:
            return
        lost = self.pool.lose(node.n_cores)
        self._lost_by_node[node.index] = lost
        victims = list(self._run_procs.values())[:lost]
        for proc in victims:
            if getattr(proc, "is_alive", False):
                proc.interrupt(NodeFailureError(f"node failure: {node.name}"))

    def recover_node(self, node) -> None:
        """The node came back UP: restore its worker slots."""
        lost = self._lost_by_node.pop(node.index, 0)
        if lost and self.state not in (DragonState.STOPPED,
                                       DragonState.FAILED):
            self.pool.restore(lost)

    # -- submission ---------------------------------------------------------

    def submit(self, task: DragonTask) -> None:
        """Push a task over the zmq pipe (asynchronous)."""
        if self.state != DragonState.READY:
            raise RuntimeStartupError(
                f"{self.instance_id}: submit in state {self.state}")
        self.n_submitted += 1
        self.task_pipe.send(task)

    def submit_group(self, group: DragonGroup) -> None:
        """Launch a co-scheduled process group.

        The group's ranks start only once *all* of them hold a worker
        slot; a :class:`DragonGroupCompletion` follows the per-rank
        completions on the completion pipe.
        """
        if self.state != DragonState.READY:
            raise RuntimeStartupError(
                f"{self.instance_id}: submit_group in state {self.state}")
        if group.size > self.pool.capacity:
            raise DragonError(
                f"group {group.group_id} needs {group.size} workers; "
                f"runtime has {self.pool.capacity}")
        self.n_submitted += group.size
        self.n_groups += 1
        self.task_pipe.send(group)

    def cancel(self, task_id: str, reason: str = "canceled") -> bool:
        """Cancel a task: kill it if running, drop it if still queued.

        Returns True unless the task already completed.  A failed
        completion with the cancel reason is pushed back over the
        completion pipe either way the cancellation lands.
        """
        if task_id in self._retired:
            return False
        proc = self._run_procs.get(task_id)
        if proc is not None and getattr(proc, "is_alive", False):
            proc.interrupt(reason)
            return True
        self._canceled.add(task_id)
        return True

    # -- internals ----------------------------------------------------------

    @staticmethod
    def gs_exec_mean(latencies, n_nodes: int) -> float:
        """Mean global-services bookkeeping cost per executable task
        [s], with the per-node coordination penalty.

        A static shared with the vectorized ensemble engine
        (:mod:`repro.ensemble.vec_dragon`) so the recurrence draws
        from the same lognormal parameters as the DES kernel.
        """
        return (latencies.dragon_gs_exec_cost
                * (1.0 + latencies.dragon_gs_pernode_penalty * n_nodes))

    def _gs_cost(self, mode: str) -> float:
        lat = self.latencies
        if mode == MODE_EXEC:
            mean = self.gs_exec_mean(lat, self.n_nodes)
        else:
            mean = (lat.dragon_func_cost
                    * (1.0 + lat.dragon_func_pernode_penalty * self.n_nodes))
        return self.rng.lognormal_latency("dragon.gs", mean,
                                          cv=lat.dragon_cv)

    def _gs_loop(self):
        """Serialized global services: the centralized dispatch stage."""
        while self.state == DragonState.READY:
            item = yield self.task_pipe.recv()
            if isinstance(item, DragonGroup):
                yield from self._gs_handle_group(item)
                continue
            task = item
            if self.state != DragonState.READY:
                self._complete(task, ok=False, start=self.env.now,
                               error="runtime stopped")
                continue
            if task.task_id in self._canceled:
                self._complete(task, ok=False, start=self.env.now,
                               error="canceled before launch")
                continue
            yield self.env.timeout(self._gs_cost(task.mode))
            if self.state != DragonState.READY:
                # Crashed while this task was in GS bookkeeping.
                self._complete(task, ok=False, start=self.env.now,
                               error="runtime crashed", infra=True)
                continue
            self._run_procs[task.task_id] = self.env.process(
                self._run_task(task))

    def _gs_handle_group(self, group: DragonGroup):
        """GS bookkeeping for a group: per-rank cost, then co-launch."""
        if self.state != DragonState.READY:
            for rank in group.ranks:
                self._complete(rank, ok=False, start=self.env.now,
                               error="runtime stopped")
            return
        for rank in group.ranks:
            yield self.env.timeout(self._gs_cost(rank.mode))
        self.env.process(self._run_group(group))

    def _run_group(self, group: DragonGroup):
        """Acquire all slots atomically, run all ranks, then report."""
        with self._group_admission.request() as admission:
            yield admission
            slots = []
            for _ in group.ranks:
                slot = self.pool.acquire()
                yield slot
                slots.append(slot)
        start = self.env.now
        errors = []
        try:
            for rank in group.ranks:
                cost = self.pool.dispatch_cost(rank.mode)
                if cost > 0:
                    yield self.env.timeout(cost)
                if self.on_task_start is not None:
                    self.on_task_start(rank.task_id)
                self.n_started += 1
            # Ranks execute concurrently; the group runs as long as its
            # longest rank (they are co-scheduled, barrier at the end).
            longest = max(rank.duration for rank in group.ranks)
            if longest > 0:
                yield self.env.timeout(longest)
            for rank in group.ranks:
                if rank.fail:
                    errors.append(f"{rank.task_id}: task payload failed")
                    self._complete(rank, ok=False, start=start,
                                   error="task payload failed")
                else:
                    self._complete(rank, ok=True, start=start)
        finally:
            for slot in slots:
                slot.release()
        self.completion_pipe.send(DragonGroupCompletion(
            group_id=group.group_id, ok=not errors, start_time=start,
            stop_time=self.env.now, errors=tuple(errors)))

    def _run_task(self, task: DragonTask):
        from ..sim import Interrupt

        slot = self.pool.acquire()
        yield slot
        start = self.env.now
        try:
            if self._faults is not None:
                fault = self._faults.launch_outcome("dragon")
                if fault is not None:
                    if fault.delay > 0:
                        yield self.env.timeout(fault.delay)
                    self._complete(task, ok=False, start=start,
                                   error=fault.reason, infra=True)
                    return
            cost = self.pool.dispatch_cost(task.mode)
            if cost > 0:
                yield self.env.timeout(cost)
            if self.on_task_start is not None:
                self.on_task_start(task.task_id)
            start = self.env.now
            self.n_started += 1
            if task.fail:
                self._complete(task, ok=False, start=start,
                               error="task payload failed")
                return
            if task.duration > 0:
                yield self.env.timeout(task.duration)
            self._complete(task, ok=True, start=start)
        except Interrupt as interrupt:
            cause = interrupt.cause
            infra = isinstance(cause, (NodeFailureError, BackendError))
            self._complete(task, ok=False, start=start,
                           error=str(cause or "canceled"), infra=infra)
        finally:
            self._run_procs.pop(task.task_id, None)
            slot.release()

    def _complete(self, task: DragonTask, ok: bool, start: float,
                  error: str = "", infra: bool = False) -> None:
        self._retired.add(task.task_id)
        if ok:
            self.n_completed += 1
        else:
            self.n_failed += 1
        self.completion_pipe.send(DragonCompletion(
            task_id=task.task_id, ok=ok, start_time=start,
            stop_time=self.env.now, error=error, infra=infra))
