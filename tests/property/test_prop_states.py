"""Property-based tests for the task state machine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import Profiler
from repro.core import TaskDescription
from repro.core.states import TaskState
from repro.core.task import Task
from repro.exceptions import StateTransitionError
from repro.sim import Environment

ALL_STATES = [
    TaskState.NEW, TaskState.TMGR_SCHEDULING, TaskState.AGENT_STAGING_INPUT,
    TaskState.AGENT_SCHEDULING, TaskState.AGENT_EXECUTING,
    TaskState.AGENT_STAGING_OUTPUT, TaskState.DONE, TaskState.FAILED,
    TaskState.CANCELED,
]


class TestRandomWalks:
    @given(st.lists(st.sampled_from(ALL_STATES), min_size=1, max_size=20))
    @settings(max_examples=200)
    def test_walks_respect_transition_table(self, walk):
        """Following any state sequence either succeeds step-by-step per
        the table, or raises exactly at the first illegal hop."""
        env = Environment()
        task = Task(env, "t", TaskDescription())
        for target in walk:
            legal = target in TaskState.TRANSITIONS[task.state]
            if legal:
                task.advance(target)
                assert task.state == target
            else:
                with pytest.raises(StateTransitionError):
                    task.advance(target)
                break

    @given(st.lists(st.sampled_from(ALL_STATES), min_size=1, max_size=30))
    @settings(max_examples=200)
    def test_final_state_is_absorbing(self, walk):
        env = Environment()
        task = Task(env, "t", TaskDescription())
        for target in walk:
            try:
                task.advance(target)
            except StateTransitionError:
                continue
            if task.is_final:
                final = task.state
                for other in ALL_STATES:
                    if other == final:
                        continue
                    with pytest.raises(StateTransitionError):
                        task.advance(other)
                return

    @given(st.lists(st.sampled_from(ALL_STATES), min_size=1, max_size=30))
    @settings(max_examples=100)
    def test_history_is_monotone_in_time(self, walk):
        env = Environment()
        profiler = Profiler(env)
        task = Task(env, "t", TaskDescription(), profiler=profiler)
        t = 0.0
        for target in walk:
            t += 1.0
            env._now = t
            try:
                task.advance(target)
            except StateTransitionError:
                pass
        times = [ts for ts, _ in profiler.timeline("t")]
        assert times == sorted(times)

    def test_every_nonfinal_state_can_reach_done(self):
        """Reachability: DONE is reachable from every non-final state."""
        for state in ALL_STATES:
            if state in TaskState.FINAL:
                continue
            # BFS over the transition table.
            frontier, seen = {state}, set()
            while frontier:
                cur = frontier.pop()
                seen.add(cur)
                frontier |= TaskState.TRANSITIONS[cur] - seen
            assert TaskState.DONE in seen, state
