"""Tests for trace-based workload replay."""

import pytest

from repro.core import (
    PartitionSpec,
    PilotDescription,
    Session,
    TaskDescription,
)
from repro.exceptions import WorkloadError
from repro.platform import ResourceSpec, generic
from repro.workloads import ReplayRunner, workload_from_trace


def record_run(backend="flux", seed=11):
    """A source run whose trace we replay."""
    session = Session(cluster=generic(4, 8, 2), seed=seed)
    pmgr, tmgr = session.pilot_manager(), session.task_manager()
    pilot = pmgr.submit_pilots(PilotDescription(
        nodes=4, partitions=(PartitionSpec(backend),)))
    tmgr.add_pilot(pilot)

    def staggered(env):
        for i in range(10):
            tmgr.submit_tasks(TaskDescription(
                duration=10.0 + i,
                resources=ResourceSpec(cores=1 + (i % 3))))
            yield env.timeout(5.0)

    session.run(session.env.process(staggered(session.env)))
    session.run(tmgr.wait_tasks())
    return session


class TestReconstruction:
    def test_workload_shape_recovered(self):
        session = record_run()
        workload = workload_from_trace(session.profiler)
        assert len(workload) == 10
        # Arrivals normalized to t=0 and preserving the 5 s stagger.
        arrivals = [t.arrival for t in workload]
        assert arrivals[0] == 0.0
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        assert all(g == pytest.approx(5.0) for g in gaps)
        # Durations and shapes recovered.
        assert workload[0].description.duration == pytest.approx(10.0,
                                                                 abs=0.01)
        assert workload[4].description.resources.cores == 2

    def test_empty_trace_raises(self):
        from repro.analytics import Profiler
        from repro.sim import Environment

        with pytest.raises(WorkloadError):
            workload_from_trace(Profiler(Environment()))

    def test_roundtrip_through_jsonl(self, tmp_path):
        from repro.analytics import load_events, save_profile

        session = record_run()
        path = tmp_path / "trace.jsonl"
        save_profile(session.profiler, path)
        workload = workload_from_trace(load_events(path))
        assert len(workload) == 10


class TestReplay:
    def test_replay_on_other_backend(self):
        source = record_run(backend="flux")
        workload = workload_from_trace(source.profiler)

        target = Session(cluster=generic(4, 8, 2), seed=99)
        pmgr, tmgr = target.pilot_manager(), target.task_manager()
        pilot = pmgr.submit_pilots(PilotDescription(
            nodes=4, partitions=(PartitionSpec("prrte"),)))
        tmgr.add_pilot(pilot)
        runner = ReplayRunner(target, tmgr, workload)
        target.run(runner.start())
        assert len(runner.tasks) == 10
        assert all(t.succeeded for t in runner.tasks)
        assert all(t.backend == "prrte" for t in runner.tasks)

    def test_arrival_pattern_respected(self):
        source = record_run()
        workload = workload_from_trace(source.profiler)
        target = Session(cluster=generic(4, 8, 2), seed=100)
        pmgr, tmgr = target.pilot_manager(), target.task_manager()
        pilot = pmgr.submit_pilots(PilotDescription(
            nodes=4, partitions=(PartitionSpec("flux"),)))
        tmgr.add_pilot(pilot)
        runner = ReplayRunner(target, tmgr, workload)
        target.run(runner.start())
        submits = [t.created for t in runner.tasks]
        gaps = [b - a for a, b in zip(submits, submits[1:])]
        # The first submission may wait for pilot bootstrap; later gaps
        # follow the recorded 5 s pattern.
        assert all(g == pytest.approx(5.0, abs=0.1) for g in gaps[1:])

    def test_time_scale_compresses(self):
        source = record_run()
        workload = workload_from_trace(source.profiler)
        target = Session(cluster=generic(4, 8, 2), seed=101)
        pmgr, tmgr = target.pilot_manager(), target.task_manager()
        pilot = pmgr.submit_pilots(PilotDescription(
            nodes=4, partitions=(PartitionSpec("flux"),)))
        tmgr.add_pilot(pilot)
        runner = ReplayRunner(target, tmgr, workload, time_scale=0.1)
        target.run(runner.start())
        submits = [t.created for t in runner.tasks]
        gaps = [b - a for a, b in zip(submits, submits[1:])]
        assert all(g == pytest.approx(0.5, abs=0.05) for g in gaps[1:])

    def test_invalid_time_scale(self):
        target = Session(cluster=generic(2, 8, 2), seed=1)
        tmgr = target.task_manager()
        with pytest.raises(WorkloadError):
            ReplayRunner(target, tmgr, [], time_scale=0.0)
