"""The task manager: accepts task descriptions and feeds the agent."""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Union

from ..exceptions import ConfigurationError
from .description import TaskDescription
from .pilot import Pilot
from .states import TaskState
from .task import Task, build_tasks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Event
    from .session import Session


class TaskManager:
    """Client-side task intake; forwards tasks to a pilot's agent."""

    def __init__(self, session: "Session") -> None:
        self.session = session
        self.env = session.env
        self.uid = session.ids.next("tmgr")
        self.pilot: Optional[Pilot] = None
        self.tasks: List[Task] = []

    def add_pilot(self, pilot: Pilot) -> None:
        """Bind this manager to a pilot (one pilot per manager here)."""
        if self.pilot is not None:
            raise ConfigurationError(f"{self.uid} already has a pilot")
        self.pilot = pilot

    def submit_tasks(
        self, descriptions: Union[TaskDescription, Sequence[TaskDescription]],
    ) -> Union[Task, List[Task]]:
        """Create tasks and queue them for the agent.

        Tasks are built in one pass (:func:`~repro.core.task.build_tasks`)
        and join the agent's admission queue immediately; the agent
        starts admitting them once bootstrapped.  A single description
        returns a single task.
        """
        if self.pilot is None or self.pilot.agent is None:
            raise ConfigurationError(f"{self.uid}: add_pilot() first")
        single = isinstance(descriptions, TaskDescription)
        descs = [descriptions] if single else list(descriptions)
        ids = self.session.ids
        out = build_tasks(self.env, [ids.next("task") for _ in descs], descs,
                          profiler=self.session.profiler)
        for task in out:
            task.advance(TaskState.TMGR_SCHEDULING)
        self.tasks.extend(out)
        self.pilot.agent.submit(out)
        return out[0] if single else out

    def cancel_tasks(self, tasks: Optional[Sequence[Task]] = None) -> int:
        """Cancel the given tasks (default: every non-final task).

        Returns how many tasks were actually canceled.  Running
        payloads are killed at the backend; queued ones are dropped.
        """
        if self.pilot is None or self.pilot.agent is None:
            raise ConfigurationError(f"{self.uid}: add_pilot() first")
        targets = self.tasks if tasks is None else list(tasks)
        count = 0
        for task in targets:
            if not task.is_final:
                self.pilot.agent.cancel_task(task)
                count += 1
        return count

    def wait_tasks(self, tasks: Optional[Sequence[Task]] = None) -> "Event":
        """Event firing when all given tasks (default: all submitted
        tasks) reach a final state.

        Implemented as a single counting event fed by each task's
        ``_on_final`` hook rather than an ``AllOf`` over one completion
        event per task: for the large synthetic workloads that removes
        tens of thousands of Event allocations and queue round-trips
        without changing when the returned event fires (it triggers at
        the last task's final transition).
        """
        targets = self.tasks if tasks is None else list(tasks)
        done = self.env.event()
        remaining = sum(1 for t in targets if not t.is_final)
        if remaining == 0:
            return done.succeed()

        def on_final(_task: Task) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0 and not done.triggered:
                done.succeed()

        for task in targets:
            if task.is_final:
                continue
            prev = task._on_final
            if prev is None:
                task._on_final = on_final
            else:
                def chained(t: Task, _prev=prev) -> None:
                    _prev(t)
                    on_final(t)
                task._on_final = chained
        return done

    # -- convenience -------------------------------------------------------

    def counts(self) -> dict:
        """Tally of task states (for progress reporting and tests)."""
        tally: dict = {}
        for task in self.tasks:
            tally[task.state] = tally.get(task.state, 0) + 1
        return tally
