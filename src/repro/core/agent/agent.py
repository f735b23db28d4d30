"""The RP Agent: resource acquisition + task execution orchestration.

The agent is the paper's focus (§3): it bootstraps on the pilot
allocation, concurrently instantiates the configured runtime backends
on disjoint node partitions, and drives every task through

    staging-in -> routing -> backend execution -> staging-out

with a serialized per-task dispatch stage whose cost models RP's task
management subsystem (the ~1,500-1,600 tasks/s upper bound observed
in the hybrid experiment).  Retries and failover live here: executor
attempt failures are retried while the task has retries left (plus the
session :class:`~repro.faults.RetryPolicy` budget for infrastructure
failures, with seeded exponential backoff), backends that fail to
bootstrap are removed from the routing table, and backends that keep
failing are blacklisted so surviving backends absorb the work.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional

from ...analytics.events import BACKEND_BLACKLISTED, TASK_ATTEMPT_FAILED
from ...exceptions import ConfigurationError, SchedulingError
from ...platform.cluster import Allocation
from ..description import (
    BACKEND_DRAGON,
    BACKEND_FLUX,
    BACKEND_PRRTE,
    BACKEND_SRUN,
    PartitionSpec,
)
from ..states import TaskState
from .executor_base import ExecutorBase
from .executor_dragon import DragonExecutor
from .executor_flux import FluxExecutor
from .executor_prrte import PrrteExecutor
from .executor_srun import SrunExecutor
from .router import DynamicRouter, Router
from .staging import Stager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..pilot import Pilot
    from ..session import Session
    from ..task import Task


class Agent:
    """One agent per pilot."""

    def __init__(self, session: "Session", pilot: "Pilot") -> None:
        self.session = session
        self.pilot = pilot
        self.env = session.env
        self.latencies = session.latencies
        self.rng = session.rng
        self.profiler = session.profiler
        self.metrics = session.obs.registry
        self.uid = session.ids.next("agent")
        self.log = session.obs.logger(self.uid)
        self._m_dispatched = self._m_intake = None
        if self.metrics is not None:
            self._m_dispatched = self.metrics.counter(
                "repro_agent_dispatched_total",
                "tasks through the serialized dispatch stage",
                labels=("agent",)).labels(self.uid)
            self._m_intake = self.metrics.gauge(
                "repro_agent_intake_depth",
                "tasks waiting in the agent admission queue",
                labels=("agent",)).labels(self.uid)
        #: The admission queue: tasks waiting for the serialized
        #: dispatch stage, in FIFO order.  While the agent is alive and
        #: the queue is not empty, the head's admission is pending as
        #: one kernel callback.
        self._admission: Deque["Task"] = deque()
        self.executors: Dict[str, ExecutorBase] = {}
        self.stager_in = Stager(self.env, self.latencies, self.rng,
                                name=f"{self.uid}.stage_in",
                                filesystem=session.filesystem)
        self.stager_out = Stager(self.env, self.latencies, self.rng,
                                 name=f"{self.uid}.stage_out",
                                 filesystem=session.filesystem)
        self._router: Optional[Router] = None
        # Set when backend membership changes (crash, blacklist,
        # restart); the routing table is then rebuilt lazily on the
        # next routing decision instead of once per retry.
        self._router_dirty = False
        self._alive = False
        self._n_flux_instances = 0
        self._inflight: set = set()
        #: Session fault model (``None`` unless the session was built
        #: with a :class:`~repro.faults.FaultSpec`); owns the retry
        #: policy and all fault randomness.
        self.faults = session.faults
        #: backend name -> consecutive infra-failure strikes.
        self._backend_strikes: Dict[str, int] = {}
        self.services: List = []
        self.n_dispatched = 0
        self.n_done = 0
        self.n_failed = 0
        self.n_canceled = 0

    # -- properties -------------------------------------------------------

    @property
    def pilot_nodes(self) -> int:
        return self.pilot.description.nodes

    @property
    def available_backends(self) -> List[str]:
        return [name for name, ex in self.executors.items() if ex.ready]

    def max_task_capacity(self) -> tuple:
        """(cores, gpus) of the largest single task any deployed
        backend instance can host.

        Flux and Dragon instances each manage a disjoint partition, so
        a task can be at most as wide as the widest single instance;
        srun can span its whole partition.
        """
        best_cores = best_gpus = 0
        for ex in self.executors.values():
            if not ex.ready:
                continue
            if hasattr(ex, "hierarchy"):  # Flux
                pools = [i.allocation for i in ex.hierarchy.instances]
            elif hasattr(ex, "runtimes"):  # Dragon
                pools = [rt.allocation for rt in ex.runtimes]
            else:  # srun
                pools = [ex.allocation]
            for pool in pools:
                best_cores = max(best_cores, pool.total_cores)
                best_gpus = max(best_gpus, pool.total_gpus)
        return best_cores, best_gpus

    # -- bootstrap -----------------------------------------------------------

    def bootstrap(self):
        """Generator: bring up the agent and all backend executors."""
        yield self.env.timeout(self.latencies.agent_startup)
        allocation = self.pilot.allocation
        assert allocation is not None, "agent bootstraps after allocation"
        self._build_executors(allocation)
        procs = [self.env.process(ex.start())
                 for ex in self.executors.values()]
        if procs:
            yield self.env.all_of(procs)
        # Drop executors that failed to bootstrap (Dragon watchdog etc.).
        dropped = [name for name, ex in self.executors.items()
                   if not ex.ready]
        self.executors = {
            name: ex for name, ex in self.executors.items() if ex.ready
        }
        for name in dropped:
            self.log.warning("backend failed to bootstrap", backend=name)
        if not self.executors:
            raise ConfigurationError(f"{self.uid}: no backend came up")
        self._router = self._make_router()
        self._alive = True
        self.log.info("agent ready",
                      backends=",".join(sorted(self.executors)))
        if self.faults is not None:
            # Arm the fault clocks only once the stack is fully up, so
            # the injection schedule is a pure function of the seed and
            # the bootstrapped topology.
            self.faults.on_agent_ready(self)
        if self._admission:  # tasks handed over before bootstrap
            self._open_slot()

    def _make_router(self) -> Router:
        ready = {name: ex for name, ex in self.executors.items()
                 if ex.ready and ex.routable}
        if not ready:
            # Everything blacklisted/down: fall back to whatever is up
            # rather than routing into the void.
            ready = {name: ex for name, ex in self.executors.items()
                     if ex.ready}
        if self.pilot.description.routing == "dynamic":
            return DynamicRouter(ready)
        return Router(list(ready))

    def _build_executors(self, allocation: Allocation) -> None:
        desc = self.pilot.description
        shares = desc.node_shares()
        seen = set()
        cursor = 0
        for part, share in zip(desc.partitions, shares):
            if part.backend in seen:
                raise ConfigurationError(
                    f"duplicate partition backend {part.backend!r}")
            seen.add(part.backend)
            nodes = allocation.nodes[cursor:cursor + share]
            cursor += share
            sub = Allocation(allocation.cluster, nodes,
                             walltime=allocation.walltime,
                             job_id=f"{allocation.job_id}.{part.backend}")
            self.executors[part.backend] = self._make_executor(part, sub)

    def _make_executor(self, part: PartitionSpec,
                       sub: Allocation) -> ExecutorBase:
        if part.backend == BACKEND_SRUN:
            return SrunExecutor(self, sub)
        if part.backend == BACKEND_FLUX:
            self._n_flux_instances = part.n_instances
            return FluxExecutor(self, sub, n_instances=part.n_instances,
                                policy=part.policy)
        if part.backend == BACKEND_DRAGON:
            return DragonExecutor(self, sub, n_instances=part.n_instances)
        if part.backend == BACKEND_PRRTE:
            return PrrteExecutor(self, sub)
        raise ConfigurationError(f"unknown backend {part.backend!r}")

    def shutdown(self) -> None:
        """Stop dispatching and shut all backends down.

        Tasks still queued or in flight are canceled — the behaviour
        of a pilot hitting its walltime: the allocation disappears and
        no task on it can finish.
        """
        self._alive = False
        if self.faults is not None:
            self.faults.stop()
        for ex in self.executors.values():
            ex.shutdown()
        for task in self._admission:
            if not task.is_final:
                self.n_canceled += 1
                task.cancel()
        self._admission.clear()
        for task in list(self._inflight):
            if not task.is_final:
                self.n_canceled += 1
                task.cancel()
        self._inflight.clear()

    # -- dispatch ------------------------------------------------------------

    def _dispatch_mean(self) -> float:
        """Mean of the serialized task-management cost [s]."""
        lat = self.latencies
        mean = (lat.agent_dispatch_base
                + lat.agent_dispatch_per_node * self.pilot_nodes)
        return mean * (1.0 + lat.agent_coord_per_instance
                       * self._n_flux_instances)

    def dispatch_cost(self) -> float:
        """One draw of the serialized task-management cost [s]."""
        return self.rng.lognormal_latency(
            "agent.dispatch", self._dispatch_mean(),
            cv=self.latencies.agent_cv)

    def submit(self, tasks: List["Task"]) -> None:
        """Queue tasks for the serialized dispatch stage.

        Every submission takes this path: whole waves, single tasks
        released mid-run (DAG nodes, replay arrivals) and service
        tasks.  Tasks handed over before bootstrap wait in the queue
        until the backends are up.
        """
        queue = self._admission
        idle = not queue
        queue.extend(tasks)
        if idle and queue and self._alive:
            self._open_slot()

    def _open_slot(self) -> None:
        """Start the head task's dispatch slot: one cost draw, one
        kernel callback at the end of the slot.

        The cost is drawn when the slot opens, not when the task is
        queued, so agents sharing the session's ``agent.dispatch``
        stream interleave their draws in simulated-time order.
        """
        self.env.schedule_callback(self.dispatch_cost(), self._admit)

    def _admit(self) -> None:
        """Admit the head task, then open the next task's slot.

        The next admission lands exactly one cost after this one, so a
        busy stage admits back to back and a wave submitted while it
        is busy queues behind the tasks already waiting.
        """
        if not self._alive:  # shutdown canceled the queue
            return
        queue = self._admission
        task = queue.popleft()
        self.n_dispatched += 1
        if self._m_dispatched is not None:
            self._m_dispatched.inc()
            self._m_intake.set(len(queue))
        if task.description.input_staging > 0:
            self.env.process(self._handle(task))
        else:
            # No staging: the pipeline up to backend submission is
            # synchronous, so it runs inline.
            self._submit_routed(task)
        if queue:
            self._open_slot()

    def _handle(self, task: "Task"):
        """Per-task pipeline up to backend submission (staging path)."""
        if task.is_final:  # canceled while in the admission queue
            return
        self._inflight.add(task)
        td = task.description
        task.advance(TaskState.AGENT_STAGING_INPUT)
        yield self.env.process(self.stager_in.stage(
            td.input_staging, item_mb=td.staging_item_mb))
        if task.is_final:  # canceled during staging
            self._inflight.discard(task)
            return
        task.advance(TaskState.AGENT_SCHEDULING)
        self._route_and_submit(task)

    def _submit_routed(self, task: "Task") -> None:
        """Staging-free tail of :meth:`_handle`, run inline."""
        if task.is_final:  # canceled while in the admission queue
            return
        self._inflight.add(task)
        task.advance(TaskState.AGENT_SCHEDULING)
        self._route_and_submit(task)

    def start_service(self, description) -> "object":
        """Launch a persistent service on the pilot (Fig. 1 service
        path).  Returns a :class:`~repro.core.service.Service` whose
        endpoint becomes callable once the service bootstraps.

        The service occupies its resources until :meth:`Service.stop`
        or agent shutdown.
        """
        from ..description import MODE_EXECUTABLE, TaskDescription
        from ..service import Service
        from ..states import TaskState
        from ..task import Task

        if not self._alive:
            raise ConfigurationError(
                f"{self.uid}: cannot start services before bootstrap")
        td = TaskDescription(
            executable=description.name, mode=MODE_EXECUTABLE,
            resources=description.resources, duration=float("inf"),
            backend=description.backend,
            tags={"service": description.name})
        task = Task(self.env, self.session.ids.next("service.task"), td,
                    profiler=self.profiler)
        task.advance(TaskState.TMGR_SCHEDULING)
        self.submit([task])
        service = Service(self.env, self.rng,
                          self.session.ids.next("service"), description,
                          task)
        service._agent = self
        self.services.append(service)
        return service

    def cancel_task(self, task: "Task") -> None:
        """Cancel one task wherever it currently is: admission queue,
        staging, backend queue, or running payload."""
        if task.is_final:
            return
        backend = task.backend
        self.n_canceled += 1
        task.cancel()
        self._inflight.discard(task)
        if backend is not None:
            executor = self.executors.get(backend)
            if executor is not None:
                executor.cancel(task)

    def _route_and_submit(self, task: "Task") -> None:
        assert self._router is not None
        if self._router_dirty:
            # Rebuild only when backend membership actually changed
            # (crash, blacklist, restart) — not once per retry.
            self._router = self._make_router()
            self._router_dirty = False
        try:
            backend = self._router.route(
                task.description,
                cores_per_node=self.session.cluster.cores_per_node,
                gpus_per_node=self.session.cluster.gpus_per_node)
        except SchedulingError as exc:
            if self.faults is not None:
                # No routable backend right now — possibly a total but
                # transient outage (a restart or repair may be pending).
                # Burn an infra attempt and let the retry policy decide
                # whether to try again.  The previous attempt's backend
                # is cleared first: no executor ran this attempt, so
                # none should be retired or struck for it.
                task.backend = None
                self.attempt_finished(task, ok=False, reason=str(exc),
                                      infra=True)
                return
            self.n_failed += 1
            self._inflight.discard(task)
            task.fail(str(exc))
            return
        executor = self.executors[backend]
        if not executor.ready:
            if self.faults is not None:
                # The backend died between routing decisions: mark the
                # table stale and account a failed attempt — the retry
                # policy decides whether the task gets re-routed to a
                # survivor.
                self._router_dirty = True
                self.attempt_finished(task, ok=False,
                                      reason=f"backend {backend} unavailable",
                                      infra=True)
                return
            self.n_failed += 1
            self._inflight.discard(task)
            task.fail(f"backend {backend} unavailable")
            return
        task.backend = backend
        executor.submit(task)

    # -- attempt outcomes ---------------------------------------------------------

    def attempt_finished(self, task: "Task", ok: bool, reason: str = "",
                         infra: bool = False) -> None:
        """Called exactly once per execution attempt by executors.

        ``infra`` marks infrastructure failures (node/backend death,
        injected launch faults) as opposed to payload failures.  Infra
        failures qualify for retries from the session
        :class:`~repro.faults.RetryPolicy` budget on top of the task's
        own ``retries``, and they accrue blacklist strikes against the
        failing backend.
        """
        backend = task.backend
        if backend is not None:
            executor = self.executors.get(backend)
            if executor is not None:
                executor.n_retired += 1
        if task.is_final:
            return
        # Every finished attempt counts, whatever its outcome (failed
        # final attempts used to go uncounted).
        task.attempts += 1
        faults = self.faults
        if ok:
            if faults is not None:
                faults.note_recovered(task)
                if backend is not None:
                    self._backend_strikes.pop(backend, None)
            if task.description.output_staging > 0:
                self.env.process(self._finalize(task))
            else:
                # Synchronous completion: no staging-out to wait for.
                self._inflight.discard(task)
                self.n_done += 1
                task.advance(TaskState.DONE)
            return
        self.profiler.record_event(
            task.uid, TASK_ATTEMPT_FAILED,
            {"attempt": task.attempts, "backend": backend or "",
             "reason": reason, "infra": infra})
        if faults is not None:
            faults.note_attempt_failed(task, infra,
                                       task.description.resources.cores)
            if infra and backend is not None:
                self._strike(backend)
        retry = False
        if task.retries_left > 0:
            task.retries_left -= 1
            retry = True
        elif infra and faults is not None \
                and faults.retry.allows(task.attempts, self.env.now):
            retry = True
        if retry and self._alive:
            if task.state == TaskState.AGENT_EXECUTING:
                task.advance(TaskState.AGENT_SCHEDULING, retry=True)
            delay = faults.retry_delay(task.attempts) \
                if faults is not None else 0.0
            if delay > 0:
                self.env.schedule_callback(delay, self._retry_submit, task)
            else:
                self._route_and_submit(task)
            return
        self.n_failed += 1
        self._inflight.discard(task)
        if infra and faults is not None:
            reason = (f"retries exhausted after {task.attempts} attempts: "
                      f"{reason or 'infrastructure failure'}")
        task.fail(reason or "execution failed")

    def _retry_submit(self, task: "Task") -> None:
        """Deferred resubmission after a backoff delay."""
        if not self._alive or task.is_final:
            # Agent shut down, or the task was canceled while backing
            # off — the retry silently dies with it.
            return
        self._route_and_submit(task)

    def _strike(self, backend: str) -> None:
        """One blacklist strike against ``backend``; at the policy
        threshold the backend drops out of routing (never the last
        routable one — degraded service beats none)."""
        assert self.faults is not None
        limit = self.faults.retry.blacklist_after
        if limit <= 0:
            return
        strikes = self._backend_strikes.get(backend, 0) + 1
        self._backend_strikes[backend] = strikes
        if strikes < limit:
            return
        executor = self.executors.get(backend)
        if executor is None or not executor.routable:
            return
        survivors = [ex for name, ex in self.executors.items()
                     if name != backend and ex.ready and ex.routable]
        if not survivors:
            return
        executor.routable = False
        self.notify_backend_change()
        self.faults.note_blacklisted(backend)
        self.profiler.record(f"{self.uid}.{backend}", BACKEND_BLACKLISTED,
                             strikes=strikes)
        self.log.warning("backend blacklisted", backend=backend,
                         strikes=strikes)

    # -- fault-model hooks ---------------------------------------------------

    def notify_backend_change(self) -> None:
        """Backend membership changed (crash, blacklist, restart): the
        routing table is rebuilt lazily on the next routing decision."""
        self._router_dirty = True

    def backend_restored(self, name: str) -> None:
        """A crashed backend came back up (fault-model restart)."""
        self._backend_strikes.pop(name, None)
        executor = self.executors.get(name)
        if executor is not None:
            executor.routable = True
        self.notify_backend_change()

    def _finalize(self, task: "Task"):
        """Staging-out pipeline for tasks that produce output."""
        td = task.description
        if not task.is_final:
            task.advance(TaskState.AGENT_STAGING_OUTPUT)
            yield self.env.process(self.stager_out.stage(
                td.output_staging, item_mb=td.staging_item_mb))
        self._inflight.discard(task)
        if not task.is_final:
            self.n_done += 1
            task.advance(TaskState.DONE)
