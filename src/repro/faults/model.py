"""Seeded, deterministic fault injection for one session.

The :class:`FaultModel` owns every stochastic decision about failures.
All draws come from dedicated ``faults.*`` RNG streams
(:class:`~repro.sim.random.RngStreams` gives each name an independent
substream), and every injected event is scheduled through the
simulation kernel — so for a fixed seed the fault schedule is
byte-identical across runs, and enabling the model never perturbs the
draws of healthy components.

The model injects three fault classes:

node crashes
    Each node of the pilot allocation gets a time-to-failure drawn from
    the ``faults.node`` stream (exponential or Weibull around the
    configured MTBF).  On expiry the node goes DOWN
    (:meth:`~repro.platform.node.Node.fail`), the executor owning it is
    told to kill and requeue the affected tasks, and — when an MTTR is
    configured — a repair is scheduled from the ``faults.repair``
    stream.

transient launch failures
    Executors consult :meth:`launch_outcome` once per execution attempt
    (one ``faults.launch`` uniform draw); the attempt then fails
    immediately or hangs for the configured timeout before failing.

backend crashes
    Each runtime instance (Flux broker, Dragon pool) gets a
    time-to-crash from the ``faults.backend`` stream.  Crashed Flux
    instances can restart after a fresh cold-start delay; Dragon pools
    stay down (matching the paper's single-shot Dragon deployment).

The model also keeps the recovery ledger the characterization report
(:mod:`repro.faults.report`) is built from: injection counters, wasted
core-seconds of killed attempts, lost node-seconds of downtime, and
per-task recovery latency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, NamedTuple, Optional, Tuple

from ..analytics.events import (
    BACKEND_RESTART,
    FAULT_INJECTED,
    NODE_FAILED,
    NODE_RECOVERED,
)
from .spec import FaultSpec, RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analytics.profiler import Profiler
    from ..core.agent.agent import Agent
    from ..core.task import Task
    from ..platform.node import Node
    from ..sim.kernel import Environment
    from ..sim.random import RngStreams


class LaunchFault(NamedTuple):
    """Outcome of one injected launch fault."""

    kind: str     #: ``"launch_fail"`` or ``"launch_timeout"``
    delay: float  #: seconds the attempt hangs before failing
    reason: str   #: failure reason handed to ``attempt_finished``


class FaultModel:
    """Injects faults into one session and accounts for recovery."""

    def __init__(self, env: "Environment", rng: "RngStreams",
                 spec: FaultSpec,
                 profiler: Optional["Profiler"] = None) -> None:
        self.env = env
        self.rng = rng
        self.spec = spec
        self.retry: RetryPolicy = spec.retry
        self.profiler = profiler
        self._stopped = False
        #: Injection counters by kind, for the report and the tests.
        self.injected: Dict[str, int] = {
            "node_crash": 0, "node_repair": 0, "launch_fail": 0,
            "launch_timeout": 0, "backend_crash": 0, "backend_restart": 0,
            "blacklist": 0,
        }
        #: Chronological (time, kind, target) log — the byte-identical
        #: fault schedule that the determinism tests pin.
        self.schedule_log: List[Tuple[float, str, str]] = []
        # -- recovery ledger ------------------------------------------------
        #: Core-seconds of execution killed mid-attempt by faults.
        self.wasted_core_seconds = 0.0
        #: Node-seconds of capacity lost to downtime (accumulated on
        #: repair; nodes still down at report time are closed by the
        #: report against the final clock).
        self.lost_node_seconds = 0.0
        #: node index -> (down-since time, n_cores) for open downtime.
        self._down_since: Dict[int, Tuple[float, int]] = {}
        #: task uid -> time of its first infra failure, until recovered.
        self._pending_recovery: Dict[str, float] = {}
        #: Recovery latencies (first infra failure -> successful start).
        self.recovery_latencies: List[float] = []
        self.n_retries = 0
        self._n_node_failures = 0

    # -- bookkeeping helpers ---------------------------------------------------

    def _log(self, kind: str, target: str) -> None:
        self.injected[kind] += 1
        self.schedule_log.append((self.env.now, kind, target))
        if self.profiler is not None:
            self.profiler.record(target, FAULT_INJECTED, kind=kind)

    def stop(self) -> None:
        """Disarm the model (agent shutdown): pending callbacks no-op."""
        self._stopped = True

    # -- arming ----------------------------------------------------------------

    def on_agent_ready(self, agent: "Agent") -> None:
        """Arm the fault clocks once the agent finished bootstrapping.

        Called at the end of :meth:`Agent.bootstrap`; iteration orders
        (allocation nodes by position, executors by name) are fixed so
        the draw sequence — and therefore the schedule — is a pure
        function of the seed.
        """
        if self.spec.mtbf > 0.0 and agent.pilot.allocation is not None:
            for node in agent.pilot.allocation.nodes:
                self._arm_node(agent, node)
        if self.spec.backend_mtbf > 0.0:
            for name in sorted(agent.executors):
                executor = agent.executors[name]
                for target in self._backend_targets(name, executor):
                    self._arm_backend(agent, name, executor, target)

    @staticmethod
    def _backend_targets(name: str, executor: Any) -> list:
        """The crashable runtime instances behind one executor."""
        if name == "flux":
            return list(executor.hierarchy.instances)
        if name == "dragon":
            return list(executor.runtimes)
        return []

    def _ttf(self) -> float:
        if self.spec.dist == "weibull":
            return self.rng.weibull("faults.node", self.spec.mtbf,
                                    self.spec.weibull_shape)
        return self.rng.exponential("faults.node", self.spec.mtbf)

    def _arm_node(self, agent: "Agent", node: "Node") -> None:
        if self.spec.mtbf <= 0.0:
            # Scripted-injection sessions have no MTBF process: a
            # repair must not re-arm (exp(0) would re-crash at once).
            return
        if self.spec.max_node_failures \
                and self._n_node_failures >= self.spec.max_node_failures:
            return
        self.env.schedule_callback(self._ttf(), self._node_crash_cb,
                                   agent, node)

    def _arm_backend(self, agent: "Agent", name: str, executor: Any,
                     target: Any) -> None:
        ttf = self.rng.exponential("faults.backend", self.spec.backend_mtbf)
        self.env.schedule_callback(ttf, self._backend_crash_cb,
                                   agent, name, executor, target)

    # -- node crashes ----------------------------------------------------------

    def _node_crash_cb(self, agent: "Agent", node: "Node") -> None:
        if self._stopped or not agent._alive or not node.is_up:
            return
        if self.spec.max_node_failures \
                and self._n_node_failures >= self.spec.max_node_failures:
            return
        self._n_node_failures += 1
        self._fail_node(agent, node)
        if self.spec.mttr > 0.0:
            mttr = self.rng.exponential("faults.repair", self.spec.mttr)
            self.env.schedule_callback(mttr, self._node_repair_cb, agent, node)

    def _fail_node(self, agent: "Agent", node: "Node") -> None:
        """Take ``node`` DOWN and tell every executor to react."""
        node.fail()
        self._log("node_crash", node.name)
        self._down_since[node.index] = (self.env.now, node.n_cores)
        if self.profiler is not None:
            self.profiler.record(node.name, NODE_FAILED, index=node.index)
        for name in sorted(agent.executors):
            agent.executors[name].on_node_failure(node)

    def _node_repair_cb(self, agent: "Agent", node: "Node") -> None:
        if self._stopped or not agent._alive or node.is_up:
            return
        node.recover()
        self._log("node_repair", node.name)
        entry = self._down_since.pop(node.index, None)
        if entry is not None:
            self.lost_node_seconds += self.env.now - entry[0]
        if self.profiler is not None:
            self.profiler.record(node.name, NODE_RECOVERED, index=node.index)
        for name in sorted(agent.executors):
            agent.executors[name].on_node_recover(node)
        # The repaired node lives under the same MTBF process again.
        self._arm_node(agent, node)

    def inject_node_failure(self, agent: "Agent", node: "Node") -> None:
        """Scripted injection (tests): fail ``node`` right now, without
        consuming any RNG draws and without scheduling a repair."""
        if node.is_up:
            self._n_node_failures += 1
            self._fail_node(agent, node)

    def repair_node(self, agent: "Agent", node: "Node") -> None:
        """Scripted repair counterpart of :meth:`inject_node_failure`."""
        if not node.is_up:
            self._node_repair_cb(agent, node)

    # -- backend crashes -------------------------------------------------------

    def _backend_crash_cb(self, agent: "Agent", name: str, executor: Any,
                          target: Any) -> None:
        if self._stopped or not agent._alive:
            return
        self._crash_backend(agent, name, executor, target)

    def _crash_backend(self, agent: "Agent", name: str, executor: Any,
                       target: Any) -> None:
        if name == "flux":
            if not target.is_ready:
                return
            target.crash("broker died (injected)")
            self._log("backend_crash", target.instance_id)
            if not any(inst.is_ready for inst in executor.hierarchy.instances):
                executor.ready = False
            agent.notify_backend_change()
            if self.retry.backend_restart:
                self.env.process(self._restart_flux(agent, executor, target))
        elif name == "dragon":
            if not target.is_ready:
                return
            target.crash("pool teardown (injected)")
            self._log("backend_crash", target.instance_id)
            if not any(rt.is_ready for rt in executor.runtimes):
                executor.ready = False
            # Dragon pools are not restarted: the paper's deployment
            # brings Dragon up once per pilot, so a dead pool means
            # failover to the surviving backends.
            agent.notify_backend_change()

    def _restart_flux(self, agent: "Agent", executor: Any, instance: Any):
        """Process: bring a crashed Flux instance back with a cold start."""
        try:
            yield from instance.restart()
        except Exception:  # pragma: no cover - restart refused
            return
        if self._stopped or not agent._alive:
            return
        self._log("backend_restart", instance.instance_id)
        if self.profiler is not None:
            self.profiler.record(instance.instance_id, BACKEND_RESTART)
        executor.ready = True
        agent.backend_restored("flux")
        if self.spec.backend_mtbf > 0.0:
            self._arm_backend(agent, "flux", executor, instance)

    def inject_backend_crash(self, agent: "Agent", name: str,
                             target: Any) -> None:
        """Scripted injection (tests): crash one runtime instance now."""
        self._crash_backend(agent, name, agent.executors[name], target)

    # -- launch faults ---------------------------------------------------------

    def launch_outcome(self, backend: str) -> Optional[LaunchFault]:
        """One per-attempt launch-fault decision for ``backend``.

        Draws exactly one uniform from the ``faults.launch`` stream
        when either launch probability is non-zero; returns ``None``
        for a clean launch.
        """
        p_fail = self.spec.p_launch_fail
        p_timeout = self.spec.p_launch_timeout
        if p_fail <= 0.0 and p_timeout <= 0.0:
            return None
        u = self.rng.uniform("faults.launch", 0.0, 1.0)
        if u < p_fail:
            self._log("launch_fail", backend)
            return LaunchFault("launch_fail", 0.0,
                               f"{backend}: launch failed (injected)")
        if u < p_fail + p_timeout:
            self._log("launch_timeout", backend)
            return LaunchFault("launch_timeout", self.spec.launch_timeout,
                               f"{backend}: launch timed out (injected)")
        return None

    # -- recovery accounting ---------------------------------------------------

    def retry_delay(self, attempts: int) -> float:
        """Backoff before resubmitting a task with ``attempts`` failures."""
        self.n_retries += 1
        return self.retry.delay(attempts, self.rng)

    def note_attempt_failed(self, task: "Task", infra: bool,
                            cores: int) -> None:
        """Account one failed attempt (called from the agent)."""
        if task.exec_start is not None and task.exec_stop is None:
            self.wasted_core_seconds += (self.env.now - task.exec_start) * cores
        if infra and task.uid not in self._pending_recovery:
            self._pending_recovery[task.uid] = self.env.now

    def note_recovered(self, task: "Task") -> None:
        """A task with a pending infra failure completed successfully."""
        t0 = self._pending_recovery.pop(task.uid, None)
        if t0 is None:
            return
        latency = self.env.now - t0
        self.recovery_latencies.append(latency)

    def note_blacklisted(self, backend: str) -> None:
        """The agent stopped routing to ``backend``."""
        self._log("blacklist", backend)

    @property
    def n_unrecovered(self) -> int:
        """Tasks that hit an infra failure and never completed."""
        return len(self._pending_recovery)

    def open_downtime(self, now: float) -> float:
        """Node-seconds of downtime still open at time ``now``."""
        return sum(now - t0 for (t0, _c) in self._down_since.values())
