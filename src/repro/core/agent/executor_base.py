"""Common interface of the agent's executor subsystems.

Each executor owns one backend deployment on its node partition(s):
it bootstraps the backend, accepts scheduled tasks, drives them
through execution, and reports every attempt's outcome back to the
agent (which owns retries and final states).  This mirrors the
paper's design where Flux/Dragon integrations are "cleanly isolated
within the Agent's launching and executing subsystems" (§3.2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ...platform.cluster import Allocation
from ..states import TaskState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..task import Task
    from .agent import Agent


class ExecutorBase:
    """Base class for srun / Flux / Dragon executors."""

    #: Backend name, set by subclasses.
    backend: str = "?"

    def __init__(self, agent: "Agent", allocation: Allocation) -> None:
        self.agent = agent
        self.env = agent.env
        self.latencies = agent.latencies
        self.rng = agent.rng
        self.profiler = agent.profiler
        self.allocation = allocation
        self.ready = False
        self.failed = False
        #: Cleared by the agent when the backend is blacklisted after
        #: repeated infrastructure failures; restored on recovery.
        #: Distinct from :attr:`ready` (backend up) — a blacklisted
        #: backend may still be up but is skipped by the router.
        self.routable = True
        self.n_submitted = 0
        self.n_active = 0
        #: Tasks whose attempt finished (any outcome); with
        #: :attr:`ready_at` this yields the measured drain rate the
        #: DynamicRouter uses.
        self.n_retired = 0
        self.ready_at = None

    @property
    def outstanding(self) -> int:
        """Tasks accepted but not yet retired (queued + running);
        consumed by the load-aware :class:`~.router.DynamicRouter`."""
        return self.n_active

    # -- lifecycle ---------------------------------------------------------

    def start(self):
        """Generator: bootstrap the backend.  Sets :attr:`ready` on
        success, :attr:`failed` on unrecoverable startup failure (the
        agent removes failed executors from routing)."""
        raise NotImplementedError
        yield  # pragma: no cover

    def shutdown(self) -> None:
        """Stop the backend; queued work is failed back to the agent."""
        raise NotImplementedError

    # -- execution -----------------------------------------------------------

    def submit(self, task: "Task") -> None:
        """Accept one task for execution (non-blocking).

        The executor must eventually call
        ``self.agent.attempt_finished(task, ok, reason)`` exactly once
        per attempt.
        """
        raise NotImplementedError

    def cancel(self, task: "Task") -> bool:
        """Best-effort cancellation of a task this executor holds.

        Called *after* the task object is already in a final state;
        the executor only tears down backend-side work (kills the
        payload, frees resources).  Returns True when backend-side
        work was found and canceled.
        """
        return False

    # -- fault hooks ---------------------------------------------------------

    def on_node_failure(self, node) -> None:
        """A node went DOWN (fault injection).  Executors owning the
        node kill and requeue the affected work; the default ignores
        the call (the node is not theirs or the backend has no
        node-level state)."""

    def on_node_recover(self, node) -> None:
        """The node came back UP; executors may resume using it."""

    # -- helpers -------------------------------------------------------------

    def _task_started(self, task: "Task") -> None:
        if task.state != TaskState.AGENT_EXECUTING:
            task.backend = self.backend
            task.advance(TaskState.AGENT_EXECUTING)

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} nodes={self.allocation.n_nodes} "
                f"ready={self.ready}>")
