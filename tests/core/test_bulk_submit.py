"""Task submission: batched construction and the admission queue.

``TaskManager.submit_tasks`` constructs tasks through
:func:`~repro.core.task.build_tasks` (shared frozen descriptions,
shared payload/meta dicts) and hands them to the agent's admission
queue, which one chained kernel callback drains through the serialized
dispatch stage.  Trace digests of every submitter are pinned in
``test_admission_digests.py``; these tests cover the machinery's edges.
"""

import pytest

from repro.core import (
    PilotDescription,
    Session,
    TaskDescription,
    TaskState,
)
from repro.core.task import build_tasks


def launch(session, nodes=8, **pilot_kwargs):
    pmgr = session.pilot_manager()
    tmgr = session.task_manager()
    pilot = pmgr.submit_pilots(PilotDescription(nodes=nodes, **pilot_kwargs))
    tmgr.add_pilot(pilot)
    return pilot, tmgr


class TestBuildTasks:
    def test_shared_description_shares_payload(self, session):
        desc = TaskDescription(duration=1.0)
        tasks = build_tasks(session.env, ["t1", "t2"], [desc] * 2)
        assert tasks[0].description is tasks[1].description
        assert tasks[0]._payload is tasks[1]._payload

    def test_tasks_mutate_independently(self, session):
        desc = TaskDescription(duration=1.0)
        t1, t2 = build_tasks(session.env, ["t1", "t2"], [desc] * 2)
        t1.advance(TaskState.TMGR_SCHEDULING, note="only t1")
        assert t1.state == TaskState.TMGR_SCHEDULING
        assert t2.state == TaskState.NEW
        assert t2.state_history == [(0.0, TaskState.NEW)]

    def test_created_events_recorded(self, session):
        desc = TaskDescription(duration=1.0)
        build_tasks(session.env, ["t1", "t2"], [desc] * 2,
                    profiler=session.profiler)
        assert len(session.profiler.events_named("task_created")) == 2

    def test_length_mismatch_rejected(self, session):
        with pytest.raises(ValueError):
            build_tasks(session.env, ["t1"], [TaskDescription()] * 2)


class TestBulkSubmission:
    def test_bulk_wave_completes(self, session):
        pilot, tmgr = launch(session)
        tasks = tmgr.submit_tasks([TaskDescription(duration=1.0)] * 20)
        session.run(tmgr.wait_tasks())
        assert len(tasks) == 20
        assert all(t.succeeded for t in tasks)

    def test_bulk_before_bootstrap_is_backlogged(self, session):
        """Waves submitted before the agent is alive wait in the
        admission queue and are admitted once it bootstraps."""
        pilot, tmgr = launch(session)
        tasks = tmgr.submit_tasks([TaskDescription(duration=1.0)] * 8)
        assert list(pilot.agent._admission) == tasks
        session.run(tmgr.wait_tasks())
        assert all(t.succeeded for t in tasks)
        assert not pilot.agent._admission

    def test_bulk_staging_path(self, session):
        """Tasks with input staging must still route through the
        staging handler, not straight to the executor."""
        pilot, tmgr = launch(session)
        tasks = tmgr.submit_tasks(
            [TaskDescription(duration=1.0, input_staging=4)] * 4)
        session.run(tmgr.wait_tasks())
        assert all(t.succeeded for t in tasks)
        for t in tasks:
            states = [s for _, s in t.state_history]
            assert TaskState.AGENT_STAGING_INPUT in states

    def test_empty_bulk_is_noop(self, session):
        pilot, tmgr = launch(session)
        assert tmgr.submit_tasks([]) == []

    def test_shutdown_cancels_pending_bulk(self, session):
        """Tasks still in the admission queue when the allocation's
        walltime expires are canceled at shutdown."""
        pilot, tmgr = launch(session, walltime=60.0)
        tasks = tmgr.submit_tasks([TaskDescription(duration=5000.0)] * 2000)
        session.run()
        assert not pilot.agent._admission
        canceled = [t for t in tasks if t.state == TaskState.CANCELED]
        assert canceled, "a 2000-task backlog cannot drain in 60s"
