"""Unit tests for the Pilot runtime object."""

import pytest

from repro.analytics import Profiler, events as tev
from repro.core import PilotDescription, PilotState
from repro.core.pilot import Pilot
from repro.exceptions import ConfigurationError, StateTransitionError
from repro.sim import Environment


@pytest.fixture
def pilot(env):
    return Pilot(env, "pilot.test", PilotDescription(nodes=4))


class TestStateMachine:
    def test_initial(self, pilot):
        assert pilot.state == PilotState.NEW
        assert not pilot.is_active
        assert not pilot.is_final

    def test_happy_path(self, pilot):
        pilot.advance(PilotState.PMGR_LAUNCHING)
        pilot.advance(PilotState.ACTIVE)
        assert pilot.is_active
        pilot.advance(PilotState.DONE)
        assert pilot.is_final

    def test_illegal_transition(self, pilot):
        with pytest.raises(StateTransitionError):
            pilot.advance(PilotState.ACTIVE)

    def test_history_recorded(self, env):
        """The profile records the pilot's ACTIVE and final states."""
        profiler = Profiler(env)
        pilot = Pilot(env, "pilot.test", PilotDescription(nodes=4),
                      profiler=profiler)
        pilot.advance(PilotState.PMGR_LAUNCHING)
        env._now = 7.0
        pilot.advance(PilotState.ACTIVE)
        env._now = 9.0
        pilot.advance(PilotState.DONE)
        assert profiler.timeline("pilot.test") == [
            (7.0, tev.PILOT_ACTIVE), (9.0, tev.PILOT_DONE)]


class TestEvents:
    def test_active_event_fires_once(self, pilot):
        ev = pilot.active_event()
        pilot.advance(PilotState.PMGR_LAUNCHING)
        assert not ev.triggered
        pilot.advance(PilotState.ACTIVE)
        assert ev.triggered

    def test_active_event_after_the_fact(self, pilot):
        pilot.advance(PilotState.PMGR_LAUNCHING)
        pilot.advance(PilotState.ACTIVE)
        assert pilot.active_event().triggered

    def test_completion_event(self, pilot):
        ev = pilot.completion_event()
        pilot.advance(PilotState.PMGR_LAUNCHING)
        pilot.advance(PilotState.FAILED)
        assert ev.triggered
        assert ev.value == PilotState.FAILED

    def test_service_requires_active(self, pilot):
        from repro.core import ServiceDescription

        with pytest.raises(ConfigurationError):
            pilot.start_service(ServiceDescription())

    def test_repr(self, pilot):
        text = repr(pilot)
        assert "pilot.test" in text
        assert "NEW" in text
