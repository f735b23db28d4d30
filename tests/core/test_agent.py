"""Unit/integration tests for the Agent: bootstrap, routing, retries,
staging and failover."""

import pytest

from repro.core import (
    PartitionSpec,
    PilotDescription,
    Session,
    TaskDescription,
    TaskState,
)
from repro.core.agent.executor_dragon import DragonExecutor
from repro.exceptions import ConfigurationError
from repro.platform import FRONTIER_LATENCIES, ResourceSpec, generic


def launch(session, partitions):
    pmgr = session.pilot_manager()
    tmgr = session.task_manager()
    pilot = pmgr.submit_pilots(PilotDescription(nodes=8,
                                                partitions=partitions))
    tmgr.add_pilot(pilot)
    return pilot, tmgr


class TestBootstrap:
    def test_all_backends_come_up(self, session):
        pilot, _ = launch(session, (
            PartitionSpec("flux", n_instances=2, nodes=4),
            PartitionSpec("dragon", n_instances=2, nodes=2),
            PartitionSpec("srun", nodes=2),
        ))
        session.run(pilot.active_event())
        assert sorted(pilot.agent.available_backends) == [
            "dragon", "flux", "srun"]

    def test_duplicate_backend_fails_pilot(self, session):
        pilot, _ = launch(session, (
            PartitionSpec("flux", nodes=4),
            PartitionSpec("flux", nodes=4),
        ))
        session.run(pilot.completion_event())
        assert pilot.state == "FAILED"

    def test_partition_nodes_are_disjoint(self, session):
        pilot, _ = launch(session, (
            PartitionSpec("flux", nodes=5),
            PartitionSpec("dragon", nodes=3),
        ))
        session.run(pilot.active_event())
        flux_nodes = {n.index for n in
                      pilot.agent.executors["flux"].allocation.nodes}
        dragon_nodes = {n.index for n in
                        pilot.agent.executors["dragon"].allocation.nodes}
        assert flux_nodes.isdisjoint(dragon_nodes)
        assert len(flux_nodes) == 5 and len(dragon_nodes) == 3


class TestRoutingIntegration:
    def test_mixed_workload_routes_by_type(self, session):
        pilot, tmgr = launch(session, (
            PartitionSpec("flux", n_instances=2),
            PartitionSpec("dragon", n_instances=2),
        ))
        tasks = tmgr.submit_tasks(
            [TaskDescription(mode="executable", duration=1.0)
             for _ in range(10)] +
            [TaskDescription(mode="function", duration=1.0)
             for _ in range(10)])
        session.run(tmgr.wait_tasks())
        backends = {t.description.mode: t.backend for t in tasks}
        assert backends["executable"] == "flux"
        assert backends["function"] == "dragon"

    def test_backend_hint_respected(self, session):
        pilot, tmgr = launch(session, (
            PartitionSpec("flux", n_instances=1),
            PartitionSpec("dragon", n_instances=1),
        ))
        task = tmgr.submit_tasks(TaskDescription(
            mode="executable", backend="dragon", duration=1.0))
        session.run(tmgr.wait_tasks())
        assert task.backend == "dragon"
        assert task.succeeded

    def test_unroutable_task_fails(self, session):
        pilot, tmgr = launch(session, (PartitionSpec("srun"),))
        task = tmgr.submit_tasks(TaskDescription(mode="function"))
        session.run(tmgr.wait_tasks())
        assert task.state == TaskState.FAILED
        assert "no deployed backend" in task.exception


class TestStaging:
    def test_staging_states_traversed(self, session):
        pilot, tmgr = launch(session, (PartitionSpec("flux"),))
        task = tmgr.submit_tasks(TaskDescription(
            duration=1.0, input_staging=3, output_staging=2))
        session.run(tmgr.wait_tasks())
        assert task.succeeded
        assert pilot.agent.stager_in.n_items == 3
        assert pilot.agent.stager_out.n_items == 2
        assert session.profiler.duration(
            task.uid, "task_created", "task_scheduled") > 0.0

    def test_staging_skipped_without_directives(self, session):
        pilot, tmgr = launch(session, (PartitionSpec("flux"),))
        task = tmgr.submit_tasks(TaskDescription(duration=1.0))
        session.run(tmgr.wait_tasks())
        assert task.succeeded
        assert pilot.agent.stager_in.n_items == 0
        assert pilot.agent.stager_out.n_items == 0


class TestRetries:
    def test_failed_task_without_retries_is_final(self, session):
        pilot, tmgr = launch(session, (PartitionSpec("flux"),))
        task = tmgr.submit_tasks(TaskDescription(duration=1.0, fail=True))
        session.run(tmgr.wait_tasks())
        assert task.state == TaskState.FAILED
        assert task.retries_left == 0

    def test_retries_consumed_then_fail(self, session):
        pilot, tmgr = launch(session, (PartitionSpec("flux"),))
        task = tmgr.submit_tasks(TaskDescription(
            duration=1.0, fail=True, retries=2))
        session.run(tmgr.wait_tasks())
        assert task.state == TaskState.FAILED
        # attempts counts every finished attempt: first try + 2 retries.
        assert task.attempts == 3
        assert task.retries_left == 0

    def test_retry_happens_on_each_backend_kind(self, session):
        for backend in ("srun", "flux", "dragon"):
            s = Session(cluster=generic(8, 8, 2), seed=7)
            pilot, tmgr = launch(s, (PartitionSpec(backend),))
            task = tmgr.submit_tasks(TaskDescription(
                duration=1.0, fail=True, retries=1, backend=backend))
            s.run(tmgr.wait_tasks())
            assert task.attempts == 2, backend
            assert task.state == TaskState.FAILED, backend


class TestDragonFailover:
    def test_dragon_startup_timeout_fails_backend(self, small_cluster):
        session = Session(cluster=small_cluster, seed=3)
        pmgr = session.pilot_manager()
        pilot = pmgr.submit_pilots(PilotDescription(
            nodes=4, partitions=(PartitionSpec("dragon"),)))
        # Force the runtime to hang during bootstrap.
        original = DragonExecutor.__init__

        def hanging_init(self, agent, allocation, n_instances=1,
                         fail_startup=False):
            original(self, agent, allocation, n_instances=n_instances,
                     fail_startup=True)

        DragonExecutor.__init__ = hanging_init
        try:
            session.run(pilot.completion_event())
        finally:
            DragonExecutor.__init__ = original
        assert pilot.state == "FAILED"
        # The watchdog fired at the configured timeout, not never.
        assert session.now >= FRONTIER_LATENCIES.dragon_startup_timeout

    def test_dragon_timeout_with_flux_fallback(self, small_cluster):
        """With a second backend deployed, the pilot survives and the
        executable tasks run via Flux."""
        session = Session(cluster=small_cluster, seed=3)
        pmgr = session.pilot_manager()
        tmgr = session.task_manager()
        original = DragonExecutor.__init__

        def hanging_init(self, agent, allocation, n_instances=1,
                         fail_startup=False):
            original(self, agent, allocation, n_instances=n_instances,
                     fail_startup=True)

        DragonExecutor.__init__ = hanging_init
        try:
            pilot = pmgr.submit_pilots(PilotDescription(
                nodes=8, partitions=(PartitionSpec("flux", nodes=4),
                                     PartitionSpec("dragon", nodes=4))))
            tmgr.add_pilot(pilot)
            session.run(pilot.active_event())
        finally:
            DragonExecutor.__init__ = original
        assert pilot.agent.available_backends == ["flux"]
        # Function tasks fall back to Flux now.
        task = tmgr.submit_tasks(TaskDescription(mode="function",
                                                 duration=1.0))
        session.run(tmgr.wait_tasks())
        assert task.succeeded
        assert task.backend == "flux"
