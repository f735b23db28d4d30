"""The runtime pilot object: an allocation placeholder with an agent."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..analytics import events as tev
from .description import PilotDescription
from .states import PilotState, check_transition

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analytics.profiler import Profiler
    from ..platform.cluster import Allocation
    from ..sim import Environment, Event
    from .agent.agent import Agent


class Pilot:
    """A resource placeholder: batch allocation + agent + backends."""

    def __init__(self, env: "Environment", uid: str,
                 description: PilotDescription,
                 profiler: Optional["Profiler"] = None) -> None:
        self.env = env
        self.uid = uid
        self.description = description
        self.profiler = profiler
        self.state = PilotState.NEW
        self.allocation: Optional["Allocation"] = None
        self.agent: Optional["Agent"] = None
        self._active_event: Optional["Event"] = None
        self._final_event: Optional["Event"] = None

    def advance(self, new_state: str, **meta) -> None:
        check_transition("pilot", self.state, new_state, PilotState.TRANSITIONS)
        self.state = new_state
        if self.profiler is not None:
            if new_state == PilotState.ACTIVE:
                self.profiler.record(self.uid, tev.PILOT_ACTIVE,
                                     nodes=self.description.nodes, **meta)
            elif new_state in PilotState.FINAL:
                self.profiler.record(self.uid, tev.PILOT_DONE,
                                     state=new_state, **meta)
        if new_state == PilotState.ACTIVE and self._active_event is not None:
            if not self._active_event.triggered:
                self._active_event.succeed()
        if new_state in PilotState.FINAL and self._final_event is not None:
            if not self._final_event.triggered:
                self._final_event.succeed(new_state)

    @property
    def is_active(self) -> bool:
        return self.state == PilotState.ACTIVE

    @property
    def is_final(self) -> bool:
        return self.state in PilotState.FINAL

    def active_event(self) -> "Event":
        """Fires when the pilot becomes ACTIVE."""
        if self._active_event is None:
            self._active_event = self.env.event()
            if self.is_active:
                self._active_event.succeed()
        return self._active_event

    def completion_event(self) -> "Event":
        """Fires when the pilot reaches a final state."""
        if self._final_event is None:
            self._final_event = self.env.event()
            if self.is_final:
                self._final_event.succeed(self.state)
        return self._final_event

    def start_service(self, description):
        """Launch a persistent service on this pilot (must be ACTIVE).

        Delegates to the agent; see
        :meth:`repro.core.agent.agent.Agent.start_service`.
        """
        from ..exceptions import ConfigurationError

        if not self.is_active or self.agent is None:
            raise ConfigurationError(
                f"{self.uid}: services need an ACTIVE pilot")
        return self.agent.start_service(description)

    def __repr__(self) -> str:
        return f"<Pilot {self.uid} {self.state} nodes={self.description.nodes}>"
