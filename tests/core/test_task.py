"""Unit tests for the runtime Task object."""

import pytest

from repro.analytics import Profiler, events as tev
from repro.core import TaskDescription
from repro.core.states import TaskState
from repro.core.task import Task
from repro.exceptions import StateTransitionError
from repro.sim import Environment


@pytest.fixture
def profiler(env):
    return Profiler(env)


def make_task(env, profiler=None, **kw):
    return Task(env, "task.000000", TaskDescription(**kw), profiler=profiler)


class TestStateMachine:
    def test_initial_state(self, env):
        task = make_task(env)
        assert task.state == TaskState.NEW
        assert not task.is_final

    def test_advance_legal(self, env):
        task = make_task(env)
        task.advance(TaskState.TMGR_SCHEDULING)
        task.advance(TaskState.AGENT_SCHEDULING)
        assert task.state == TaskState.AGENT_SCHEDULING

    def test_advance_illegal_raises(self, env):
        task = make_task(env)
        with pytest.raises(StateTransitionError):
            task.advance(TaskState.DONE)

    def test_history_records_times(self, env, profiler):
        """The task keeps its creation time; the profile holds every
        state time after it."""
        task = make_task(env, profiler)
        env._now = 5.0
        task.advance(TaskState.TMGR_SCHEDULING)
        task.advance(TaskState.AGENT_SCHEDULING)
        assert task.created == 0.0
        assert profiler.timeline(task.uid) == [(0.0, tev.TASK_CREATED),
                                               (5.0, tev.TASK_SCHEDULED)]

    def test_exec_start_recorded(self, env):
        task = make_task(env)
        task.advance(TaskState.TMGR_SCHEDULING)
        task.advance(TaskState.AGENT_SCHEDULING)
        env._now = 3.0
        task.advance(TaskState.AGENT_EXECUTING)
        assert task.exec_start == 3.0

    def test_mark_exec_stop(self, env):
        task = make_task(env)
        task.advance(TaskState.TMGR_SCHEDULING)
        task.advance(TaskState.AGENT_SCHEDULING)
        task.advance(TaskState.AGENT_EXECUTING)
        env._now = 10.0
        task.mark_exec_stop()
        assert task.exec_stop == 10.0


class TestCompletion:
    def test_completion_event_fires_on_done(self, env):
        task = make_task(env)
        ev = task.completion_event()
        task.advance(TaskState.TMGR_SCHEDULING)
        task.advance(TaskState.AGENT_SCHEDULING)
        task.advance(TaskState.AGENT_EXECUTING)
        assert not ev.triggered
        task.advance(TaskState.DONE)
        assert ev.triggered
        assert ev.value == TaskState.DONE

    def test_completion_event_after_final(self, env):
        task = make_task(env)
        task.advance(TaskState.TMGR_SCHEDULING)
        task.fail("broke")
        assert task.completion_event().triggered

    def test_fail_sets_exception(self, env):
        task = make_task(env)
        task.advance(TaskState.TMGR_SCHEDULING)
        task.fail("reason text")
        assert task.state == TaskState.FAILED
        assert task.exception == "reason text"
        assert not task.succeeded

    def test_cancel(self, env):
        task = make_task(env)
        task.cancel()
        assert task.state == TaskState.CANCELED

    def test_cancel_after_final_is_noop(self, env):
        task = make_task(env)
        task.advance(TaskState.TMGR_SCHEDULING)
        task.fail("x")
        task.cancel()
        assert task.state == TaskState.FAILED


class TestTracing:
    def test_creation_event_recorded(self, env, profiler):
        make_task(env, profiler=profiler)
        assert len(profiler.events_named(tev.TASK_CREATED)) == 1

    def test_lifecycle_events_recorded(self, env, profiler):
        task = make_task(env, profiler=profiler)
        task.advance(TaskState.TMGR_SCHEDULING)
        task.advance(TaskState.AGENT_SCHEDULING)
        task.advance(TaskState.AGENT_EXECUTING)
        task.mark_exec_stop()
        task.advance(TaskState.DONE)
        names = [e.name for e in profiler.events_for("task.000000")]
        assert tev.TASK_SCHEDULED in names
        assert tev.TASK_EXEC_START in names
        assert tev.TASK_EXEC_STOP in names
        assert tev.TASK_DONE in names

    def test_event_meta_carries_resources(self, env, profiler):
        from repro.platform import ResourceSpec

        task = Task(env, "t", TaskDescription(
            resources=ResourceSpec(cores=4, gpus=2)), profiler=profiler)
        ev = profiler.events_named(tev.TASK_CREATED)[0]
        assert ev.meta["cores"] == 4
        assert ev.meta["gpus"] == 2


def run_lifecycle(task, backend="flux"):
    """Drive ``task`` through every recorded state, ending in DONE."""
    task.advance(TaskState.TMGR_SCHEDULING)
    task.advance(TaskState.AGENT_SCHEDULING)
    task.backend = backend
    task.advance(TaskState.AGENT_EXECUTING)
    task.mark_exec_stop()
    task.advance(TaskState.DONE)


def export(events):
    import io

    from repro.analytics.export import write_event_lines

    buf = io.StringIO()
    write_event_lines(buf, events)
    return buf.getvalue()


class TestSharedMetas:
    """Task state-event metas are interned per profiler: records with
    equal meta values share one read-only dict."""

    def test_equal_tasks_share_one_meta_per_state_event(self, env, profiler):
        a = Task(env, "a", TaskDescription(), profiler=profiler)
        b = Task(env, "b", TaskDescription(), profiler=profiler)
        run_lifecycle(a)
        run_lifecycle(b)
        evs_a, evs_b = profiler.events_for("a"), profiler.events_for("b")
        assert [e.name for e in evs_a] == [e.name for e in evs_b]
        assert len(evs_a) == 5
        for ea, eb in zip(evs_a, evs_b):
            assert ea.meta is eb.meta
        # exec_stop and done spell the same meta, so they share it too.
        assert evs_a[3].meta is evs_a[4].meta

    def test_equal_values_share_across_call_shapes(self, env, profiler):
        a = Task(env, "a", TaskDescription(), profiler=profiler)
        run_lifecycle(a)
        b = Task(env, "b", TaskDescription(), profiler=profiler)
        b.advance(TaskState.TMGR_SCHEDULING)
        b.advance(TaskState.AGENT_SCHEDULING)
        b.backend = "flux"
        b.advance(TaskState.AGENT_EXECUTING, backend="flux")
        start_a, start_b = profiler.events_named(tev.TASK_EXEC_START)
        assert start_a.meta is start_b.meta

    def test_export_equals_deep_copied_metas(self, env, profiler):
        import copy

        for uid in ("a", "b"):
            run_lifecycle(Task(env, uid, TaskDescription(), profiler=profiler))
        task = Task(env, "c", TaskDescription(), profiler=profiler)
        task.advance(TaskState.TMGR_SCHEDULING)
        task.fail("broke")
        events = list(profiler)
        copied = [ev._replace(meta=copy.deepcopy(ev.meta)) for ev in events]
        assert export(events) == export(copied)

    def test_unhashable_keyword_meta_gets_a_fresh_dict(self, env, profiler):
        from repro.analytics.export import iter_event_lines

        tasks = [Task(env, uid, TaskDescription(), profiler=profiler)
                 for uid in ("a", "b")]
        for task in tasks:
            task.advance(TaskState.TMGR_SCHEDULING)
            task.advance(TaskState.AGENT_SCHEDULING, note=[1])
        ea, eb = profiler.events_named(tev.TASK_SCHEDULED)
        assert ea.meta == eb.meta == {"cores": 1, "gpus": 0, "note": [1]}
        assert ea.meta is not eb.meta
        text = export([ea])
        assert '"note": [1]' in text
        (back,) = iter_event_lines(text.splitlines())
        assert back.meta == ea.meta

    def test_values_of_different_types_never_share(self, env, profiler):
        from repro.platform import ResourceSpec

        for uid, flag in (("a", True), ("b", 1), ("c", 1.0)):
            task = Task(env, uid, TaskDescription(), profiler=profiler)
            task.advance(TaskState.TMGR_SCHEDULING)
            task.advance(TaskState.AGENT_SCHEDULING, flag=flag)
        text = export(profiler.events_named(tev.TASK_SCHEDULED))
        assert ['"flag": true' in text, '"flag": 1,' in text,
                '"flag": 1.0' in text] == [True, True, True]
        for uid, cores in (("d", 2), ("e", 2.0)):
            run_lifecycle(Task(env, uid, TaskDescription(
                resources=ResourceSpec(cores=cores)), profiler=profiler))
        assert '"cores": 2.0' in export(profiler.events_for("e"))
        assert '"cores": 2.0' not in export(profiler.events_for("d"))

    def test_sessions_never_share_a_meta(self):
        metas = []
        for _ in range(2):
            env = Environment()
            profiler = Profiler(env)
            run_lifecycle(Task(env, "a", TaskDescription(), profiler=profiler))
            metas.append([ev.meta for ev in profiler])
        first, second = metas
        assert first == second
        assert not {id(m) for m in first} & {id(m) for m in second}

    def test_flux_n_run_has_one_meta_object_per_spelling(self):
        """Guards the interning end to end: a regression back to one
        meta dict per record fails here."""
        from repro.analytics.export import meta_field
        from repro.experiments.configs import config_by_id
        from repro.experiments.harness import run_experiment

        cfg = config_by_id("flux_n", n_nodes=8, n_partitions=2, waves=1)
        result = run_experiment(cfg, keep_session=True)
        task_events = [ev for ev in result.session.profiler
                       if ev.entity.startswith("task.")]
        spellings = {meta_field(ev.meta) for ev in task_events}
        assert len(task_events) > 10 * len(spellings)
        assert len({id(ev.meta) for ev in task_events}) == len(spellings)
