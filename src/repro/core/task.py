"""The runtime task object: state machine + trace integration."""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..analytics import events as tev
from ..exceptions import StateTransitionError
from .description import TaskDescription
from .states import TaskState, check_transition

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analytics.profiler import Profiler
    from ..sim import Environment, Event

#: Map of states to canonical trace-event names emitted on entry.
_STATE_EVENTS = {
    TaskState.NEW: tev.TASK_CREATED,
    TaskState.AGENT_SCHEDULING: tev.TASK_SCHEDULED,
    TaskState.AGENT_EXECUTING: tev.TASK_EXEC_START,
    TaskState.DONE: tev.TASK_DONE,
    TaskState.FAILED: tev.TASK_FAILED,
    TaskState.CANCELED: tev.TASK_CANCELED,
}


class Task:
    """One unit of work flowing through the pilot runtime."""

    # Tasks are the hottest per-entity object in a run (tens of
    # thousands, several state transitions each); slots keep their
    # attribute access off the instance-dict path.
    __slots__ = (
        "env", "uid", "description", "profiler", "state", "created",
        "backend", "exec_start", "exec_stop", "exception", "attempts",
        "retries_left", "_final_event", "_exec_event", "_on_final",
        "_payload",
    )

    def __init__(self, env: "Environment", uid: str,
                 description: TaskDescription,
                 profiler: Optional["Profiler"] = None) -> None:
        self.env = env
        self.uid = uid
        self.description = description
        self.profiler = profiler
        self.state = TaskState.NEW
        #: Creation time; every later state time is in the profile.
        self.created = env.now
        self.backend: Optional[str] = None
        self.exec_start: Optional[float] = None
        self.exec_stop: Optional[float] = None
        self.exception: Optional[str] = None
        self.attempts = 0
        self.retries_left = description.retries
        self._final_event: Optional["Event"] = None
        self._exec_event: Optional["Event"] = None
        #: Optional ``fn(task)`` invoked when the task reaches a final
        #: state.  Cheaper than :meth:`completion_event` for many-task
        #: waiters (no per-task Event or queue round-trip); see
        #: :meth:`TaskManager.wait_tasks`.
        self._on_final = None
        # Base of every state-event meta (the resource request never
        # changes over a task's life); see Profiler.task_meta.
        resources = description.resources
        self._payload = {"cores": resources.cores, "gpus": resources.gpus}
        if profiler is not None:
            profiler.record_task(uid, tev.TASK_CREATED, self._payload,
                                 meta={"mode": description.mode})

    # -- state machine ------------------------------------------------------

    def advance(self, new_state: str, **meta) -> None:
        """Move to ``new_state``, enforcing legality and tracing."""
        legal = TaskState.TRANSITIONS.get(self.state)
        if legal is None or new_state not in legal:
            # Delegate to the checker for the canonical error message.
            check_transition("task", self.state, new_state,
                             TaskState.TRANSITIONS)
        self.state = new_state
        if new_state == TaskState.AGENT_EXECUTING:
            self.exec_start = self.env._now
            self.exec_stop = None
        elif self.exec_start is not None and self.exec_stop is None and (
                new_state in TaskState.FINAL
                or new_state == TaskState.AGENT_SCHEDULING):
            # A final state — or a retry going back to scheduling —
            # closes any open execution interval (failed/canceled
            # payload): record the stop so traces stay balanced.
            self.mark_exec_stop()
        if self.profiler is not None and new_state != TaskState.NEW:
            name = _STATE_EVENTS.get(new_state)
            if name is not None:
                self.profiler.record_task(self.uid, name, self._payload,
                                          self.backend, meta)
        if new_state == TaskState.AGENT_EXECUTING \
                and self._exec_event is not None \
                and not self._exec_event.triggered:
            self._exec_event.succeed()
        if new_state in TaskState.FINAL:
            if self._final_event is not None \
                    and not self._final_event.triggered:
                self._final_event.succeed(new_state)
            if self._on_final is not None:
                self._on_final(self)

    def mark_exec_stop(self, when: Optional[float] = None) -> None:
        """Record the payload stop time (before staging-out / DONE).

        ``when`` backdates the stop to the true payload end when the
        notification arrived later (asynchronous completion pipes).
        """
        self.exec_stop = self.env._now if when is None else when
        if self.profiler is not None:
            self.profiler.record_task(self.uid, tev.TASK_EXEC_STOP,
                                      self._payload, self.backend or "",
                                      at=self.exec_stop)

    # -- completion ------------------------------------------------------------

    @property
    def is_final(self) -> bool:
        return self.state in TaskState.FINAL

    @property
    def succeeded(self) -> bool:
        return self.state == TaskState.DONE

    def completion_event(self) -> "Event":
        """An event that fires when the task reaches a final state."""
        if self._final_event is None:
            self._final_event = self.env.event()
            if self.is_final and not self._final_event.triggered:
                self._final_event.succeed(self.state)
        return self._final_event

    def exec_started_event(self) -> "Event":
        """An event that fires when the payload starts executing."""
        if self._exec_event is None:
            self._exec_event = self.env.event()
            if self.exec_start is not None:
                self._exec_event.succeed()
        return self._exec_event

    def fail(self, reason: str) -> None:
        """Terminal failure (retries exhausted or unrecoverable)."""
        self.exception = reason
        if not self.is_final:
            self.advance(TaskState.FAILED, reason=reason)

    def cancel(self) -> None:
        """Cancel the task unless it already finished."""
        if not self.is_final:
            self.advance(TaskState.CANCELED)

    def __repr__(self) -> str:
        return f"<Task {self.uid} {self.state} backend={self.backend}>"


def build_tasks(env: "Environment", uids: List[str],
                descriptions: List[TaskDescription],
                profiler: Optional["Profiler"] = None) -> List["Task"]:
    """Batched task construction for :meth:`TaskManager.submit_tasks`.

    Produces exactly the objects and trace records that ``n`` calls of
    ``Task(env, uid, desc, profiler)`` would, but shares the base
    payload across every task with the same description (synthetic
    workloads repeat one frozen description tens of thousands of
    times), and looks up its TASK_CREATED meta in the profiler's table
    once per description.  Sharing is safe because nothing mutates a
    payload (:meth:`~repro.analytics.profiler.Profiler.task_meta` only
    reads its ``cores`` and ``gpus``) and a recorded meta is read-only.
    """
    if len(uids) != len(descriptions):
        raise ValueError(f"{len(uids)} uids for "
                         f"{len(descriptions)} descriptions")
    now = env._now
    record = profiler.record_event if profiler is not None else None
    cache: dict = {}
    out: List[Task] = []
    for uid, desc in zip(uids, descriptions):
        entry = cache.get(id(desc))
        if entry is None:
            resources = desc.resources
            payload = {"cores": resources.cores, "gpus": resources.gpus}
            entry = (
                payload,
                profiler.task_meta(payload, meta={"mode": desc.mode})
                if profiler is not None else None,
                desc.retries,
            )
            cache[id(desc)] = entry
        payload, created_meta, retries = entry
        task = Task.__new__(Task)
        task.env = env
        task.uid = uid
        task.description = desc
        task.profiler = profiler
        task.state = TaskState.NEW
        task.created = now
        task.backend = None
        task.exec_start = None
        task.exec_stop = None
        task.exception = None
        task.attempts = 0
        task.retries_left = retries
        task._final_event = None
        task._exec_event = None
        task._on_final = None
        task._payload = payload
        if record is not None:
            record(uid, tev.TASK_CREATED, created_meta)
        out.append(task)
    return out
