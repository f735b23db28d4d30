"""End-to-end integration tests across the full stack."""

import pytest

from repro.analytics import (
    events as tev,
    makespan,
    task_throughput,
    utilization,
)
from repro.core import (
    PartitionSpec,
    PilotDescription,
    Session,
    TaskDescription,
)
from repro.platform import frontier, generic


class TestHybridPipeline:
    """The paper's flux+dragon configuration, end to end."""

    @pytest.fixture
    def run(self):
        session = Session(cluster=frontier(8), seed=11)
        pmgr, tmgr = session.pilot_manager(), session.task_manager()
        pilot = pmgr.submit_pilots(PilotDescription(
            nodes=8, partitions=(PartitionSpec("flux", n_instances=2),
                                 PartitionSpec("dragon", n_instances=2))))
        tmgr.add_pilot(pilot)
        tasks = tmgr.submit_tasks(
            [TaskDescription(mode="executable", duration=30.0)
             for _ in range(200)] +
            [TaskDescription(mode="function", duration=30.0)
             for _ in range(200)])
        session.run(tmgr.wait_tasks())
        return session, pilot, tasks

    def test_conservation(self, run):
        """Every submitted task reaches exactly one final state."""
        _, _, tasks = run
        assert all(t.is_final for t in tasks)
        assert sum(t.succeeded for t in tasks) == 400

    def test_no_resource_leak(self, run):
        _, pilot, _ = run
        for ex in pilot.agent.executors.values():
            alloc = ex.allocation
            assert alloc.free_cores == alloc.total_cores
            assert alloc.free_gpus == alloc.total_gpus

    def test_exec_intervals_have_exact_duration(self, run):
        _, _, tasks = run
        for t in tasks:
            # Dragon completions arrive over a zmq pipe (~0.2 ms), so
            # allow sub-millisecond notification skew.
            assert t.exec_stop - t.exec_start == pytest.approx(30.0,
                                                               abs=1e-3)

    def test_trace_complete(self, run):
        session, _, tasks = run
        profiler = session.profiler
        assert len(profiler.events_named(tev.TASK_EXEC_START)) == 400
        assert len(profiler.events_named(tev.TASK_EXEC_STOP)) == 400
        assert len(profiler.events_named(tev.TASK_DONE)) == 400

    def test_metrics_sane(self, run):
        session, pilot, tasks = run
        stats = task_throughput(tasks)
        assert stats.avg > 0
        assert stats.peak >= stats.avg * 0.5
        util = utilization(tasks, total_cores=8 * 56)
        assert 0.0 < util <= 1.0
        assert makespan(tasks) >= 30.0


class TestBackendEquivalence:
    """The same workload completes identically (modulo timing) on every
    backend — RP's uniform task lifecycle guarantee (§3.2)."""

    @pytest.mark.parametrize("backend", ["srun", "flux", "dragon"])
    def test_uniform_lifecycle(self, backend):
        session = Session(cluster=generic(4, 8, 2), seed=2)
        pmgr, tmgr = session.pilot_manager(), session.task_manager()
        pilot = pmgr.submit_pilots(PilotDescription(
            nodes=4, partitions=(PartitionSpec(backend),)))
        tmgr.add_pilot(pilot)
        tasks = tmgr.submit_tasks([
            TaskDescription(duration=5.0, backend=backend,
                            input_staging=1, output_staging=1)
            for _ in range(20)])
        session.run(tmgr.wait_tasks())
        assert pilot.agent.stager_in.n_items == 20
        assert pilot.agent.stager_out.n_items == 20
        for t in tasks:
            names = [name for _, name in session.profiler.timeline(t.uid)]
            assert names[0] == tev.TASK_CREATED
            assert tev.TASK_EXEC_START in names
            assert names[-1] == tev.TASK_DONE
            assert session.profiler.duration(
                t.uid, tev.TASK_CREATED, tev.TASK_SCHEDULED) > 0.0


class TestScale:
    def test_thousand_tasks_on_16_nodes(self):
        session = Session(cluster=frontier(16), seed=9)
        pmgr, tmgr = session.pilot_manager(), session.task_manager()
        pilot = pmgr.submit_pilots(PilotDescription(
            nodes=16, partitions=(PartitionSpec("flux", n_instances=4),)))
        tmgr.add_pilot(pilot)
        tasks = tmgr.submit_tasks([TaskDescription(duration=60.0)
                                   for _ in range(2000)])
        session.run(tmgr.wait_tasks())
        assert sum(t.succeeded for t in tasks) == 2000
        # 2000 single-core 60 s tasks on 896 cores: at least 3 waves.
        assert makespan(tasks) >= 3 * 60.0

    def test_heterogeneous_sizes(self):
        session = Session(cluster=frontier(8), seed=10)
        pmgr, tmgr = session.pilot_manager(), session.task_manager()
        pilot = pmgr.submit_pilots(PilotDescription(
            nodes=8, partitions=(PartitionSpec("flux", policy="easy"),)))
        tmgr.add_pilot(pilot)
        from repro.platform import ResourceSpec

        tasks = tmgr.submit_tasks(
            [TaskDescription(duration=10.0,
                             resources=ResourceSpec(cores=c))
             for c in (1, 56, 112, 448, 1, 28, 224)])
        session.run(tmgr.wait_tasks())
        assert all(t.succeeded for t in tasks)
