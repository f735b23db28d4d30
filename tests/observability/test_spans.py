"""Span-model tests: reconstruction from the profile, phase invariants."""

import pytest

from repro.core import (
    PartitionSpec,
    PilotDescription,
    Session,
    TaskDescription,
)
from repro.observability import (
    Span,
    phase_rollup,
    spans_from_events,
    spans_from_profiler,
)
from repro.observability.spans import CAT_PHASE, CAT_TASK, PHASES
from repro.platform import generic
from repro.platform.spec import ResourceSpec


class TestSpan:
    def test_tree_and_walk(self):
        root = Span("root", "session", 0.0, 10.0)
        a = root.child("a", "task", 1.0, 4.0)
        a.child("exec", "phase", 2.0, 3.0)
        root.child("b", "task", 5.0, 6.0)
        assert [s.name for s in root.walk()] == ["root", "a", "exec", "b"]
        assert [s.name for s in root.find("task")] == ["a", "b"]
        assert a.duration == 3.0

    def test_to_dict_round_shape(self):
        root = Span("root", "session", 0.0, 1.0, attrs={"seed": 3})
        root.child("c", "task", 0.1, 0.9)
        d = root.to_dict()
        assert d["attrs"] == {"seed": 3}
        assert d["children"][0]["name"] == "c"


def _hybrid_session():
    """8 nodes split srun/flux, half the tasks pinned to each backend."""
    session = Session(cluster=generic(8, cores_per_node=8), seed=5,
                      observe=True)
    pmgr, tmgr = session.pilot_manager(), session.task_manager()
    pilot = pmgr.submit_pilots(PilotDescription(nodes=8, partitions=(
        PartitionSpec("srun", nodes=4), PartitionSpec("flux", nodes=4))))
    tmgr.add_pilot(pilot)
    tds = [TaskDescription(executable="/bin/x", duration=3.0,
                           resources=ResourceSpec(cores=1),
                           backend="srun" if i % 2 else "flux")
           for i in range(20)]
    tasks = tmgr.submit_tasks(tds)
    session.run(tmgr.wait_tasks())
    return session, tasks


class TestReconstruction:
    @pytest.fixture(scope="class")
    def hybrid(self):
        return _hybrid_session()

    def test_hierarchy_from_hybrid_run(self, hybrid):
        session, tasks = hybrid
        root = spans_from_profiler(session.profiler, session_uid=session.uid)
        assert root.cat == "session"
        pilots = root.find("pilot")
        assert len(pilots) == 1
        groups = {s.name for s in root.walk() if s.cat == "backend_group"}
        assert groups == {"srun", "flux"}
        backends = root.find("backend")
        assert {b.attrs["kind"] for b in backends} == {"srun", "flux"}
        task_spans = root.find(CAT_TASK)
        assert len(task_spans) == len(tasks)
        by_group = {}
        for t in task_spans:
            by_group.setdefault(t.parent.name, []).append(t)
        assert len(by_group["srun"]) == 10
        assert len(by_group["flux"]) == 10

    def test_phase_durations_sum_to_task_lifetime(self, hybrid):
        session, _tasks = hybrid
        root = spans_from_profiler(session.profiler, session_uid=session.uid)
        task_spans = root.find(CAT_TASK)
        assert task_spans
        for span in task_spans:
            phases = [c for c in span.children if c.cat == CAT_PHASE]
            assert phases, span
            total = sum(p.duration for p in phases)
            assert total == pytest.approx(span.duration, abs=1e-9)
            # Phases tile the lifetime contiguously and in order.
            assert phases[0].start == span.start
            assert phases[-1].end == span.end
            for prev, nxt in zip(phases, phases[1:]):
                assert prev.end == nxt.start
                assert PHASES.index(prev.name) < PHASES.index(nxt.name)

    def test_exec_phase_matches_payload_duration(self, hybrid):
        session, _tasks = hybrid
        root = spans_from_profiler(session.profiler, session_uid=session.uid)
        for span in root.find(CAT_TASK):
            execs = [c for c in span.children if c.name == "exec"]
            assert len(execs) == 1
            assert execs[0].duration == pytest.approx(3.0, abs=1e-6)

    def test_pilot_span_starts_at_pilot_active_without_phases(self, hybrid):
        session, _tasks = hybrid
        root = spans_from_profiler(session.profiler, session_uid=session.uid)
        (pilot,) = root.find("pilot")
        (active,) = [ev for ev in session.profiler
                     if ev.entity == pilot.name and ev.name == "pilot_active"]
        assert pilot.start == active.time
        assert pilot.attrs["nodes"] == 8
        # The backend groups hang off the lone pilot; no phase does.
        assert {c.cat for c in pilot.children} == {"backend_group"}

    def test_rollup_counts_every_task(self, hybrid):
        session, tasks = hybrid
        root = spans_from_profiler(session.profiler, session_uid=session.uid)
        rollup = phase_rollup(root)
        assert set(rollup) == set(PHASES)
        for phase in PHASES:
            assert rollup[phase]["count"] == len(tasks)
        assert rollup["exec"]["mean"] == pytest.approx(3.0, abs=1e-6)


class TestEdgeCases:
    def test_empty_stream(self):
        root = spans_from_events([], session_uid="s0")
        assert root.name == "s0"
        assert root.children == []

    def test_unfinalized_task_closes_at_last_event(self):
        from repro.analytics.events import TraceEvent

        events = [
            TraceEvent(1.0, "task.0", "task_created", {}),
            TraceEvent(2.0, "task.0", "task_scheduled", {}),
            TraceEvent(3.0, "task.0", "task_exec_start",
                       {"backend": "flux"}),
        ]
        root = spans_from_events(events)
        task = root.find(CAT_TASK)[0]
        assert task.start == 1.0 and task.end == 3.0
        assert task.attrs["final"] == "open"

    def test_task_without_backend_goes_unrouted(self):
        from repro.analytics.events import TraceEvent

        events = [
            TraceEvent(0.0, "task.0", "task_created", {}),
            TraceEvent(1.0, "task.0", "task_failed", {}),
        ]
        root = spans_from_events(events)
        task = root.find(CAT_TASK)[0]
        assert task.parent.name == "unrouted"
        total = sum(c.duration for c in task.children
                    if c.cat == CAT_PHASE)
        assert total == pytest.approx(task.duration)
