"""End-to-end recovery behavior: retries, failover, blacklist, races."""

import pytest

from repro.analytics.events import (
    TASK_ATTEMPT_FAILED,
    TASK_EXEC_START,
    TASK_SCHEDULED,
)
from repro.core import (
    PartitionSpec,
    PilotDescription,
    Session,
    TaskDescription,
    TaskState,
)
from repro.faults import FaultSpec, RetryPolicy
from repro.platform import generic


FAST_RETRY = RetryPolicy(backoff_base=0.2, jitter=0.0)


def make_session(partitions, nodes=8, seed=17, faults=None, cluster=None):
    session = Session(cluster=cluster or generic(nodes, 8, 0), seed=seed,
                      faults=faults)
    pmgr, tmgr = session.pilot_manager(), session.task_manager()
    pilot = pmgr.submit_pilots(PilotDescription(nodes=nodes,
                                                partitions=partitions))
    tmgr.add_pilot(pilot)
    session.run(pilot.active_event())
    return session, tmgr, pilot


class TestRetryTransitions:
    def test_infra_retry_goes_back_through_scheduling(self):
        spec = FaultSpec(retry=FAST_RETRY)
        session, tmgr, pilot = make_session(
            (PartitionSpec("flux", n_instances=2),), faults=spec)
        tasks = tmgr.submit_tasks([TaskDescription(duration=30.0)
                                   for _ in range(16)])
        victim = pilot.agent.executors["flux"].hierarchy.instances[0]
        session.env.schedule_callback(
            5.0, lambda: session.faults.inject_backend_crash(
                pilot.agent, "flux", victim))
        session.run(tmgr.wait_tasks())
        assert all(t.succeeded for t in tasks)
        hit = [t for t in tasks if t.attempts > 1]
        assert hit
        # The retried task went executing -> scheduling(retry) ->
        # executing again, and the failed attempt left a trace event.
        uid = hit[0].uid
        names = [ev.name for ev in session.profiler.events_for(uid)]
        assert names.count(TASK_EXEC_START) >= 2
        assert any(ev.name == TASK_SCHEDULED and ev.meta.get("retry")
                   for ev in session.profiler.events_for(uid))
        retry_events = [
            r for r in session.profiler.events_named(TASK_ATTEMPT_FAILED)
            if r.entity == uid]
        assert retry_events
        assert retry_events[0].meta["infra"] is True
        assert retry_events[0].meta["backend"] == "flux"

    def test_attempt_budget_exhaustion_fails_task(self):
        # One flux instance, crash it, no restart: every retry finds
        # infrastructure down until the budget runs out.
        spec = FaultSpec(retry=RetryPolicy(max_attempts=2, backoff_base=0.2,
                                           jitter=0.0,
                                           backend_restart=False))
        session, tmgr, pilot = make_session(
            (PartitionSpec("flux", n_instances=1),), faults=spec)
        tasks = tmgr.submit_tasks([TaskDescription(duration=30.0)
                                   for _ in range(4)])
        victim = pilot.agent.executors["flux"].hierarchy.instances[0]
        session.env.schedule_callback(
            5.0, lambda: session.faults.inject_backend_crash(
                pilot.agent, "flux", victim))
        session.run(tmgr.wait_tasks())
        assert all(t.state == TaskState.FAILED for t in tasks)
        assert all(t.attempts == 2 for t in tasks)
        assert all("retries exhausted" in str(t.exception) for t in tasks)

    def test_payload_failures_do_not_consume_infra_budget(self):
        # A deterministic payload failure with no task-level retries
        # fails on attempt 1 even though the policy allows 4: the infra
        # budget is reserved for infrastructure faults.
        spec = FaultSpec(retry=FAST_RETRY)
        session, tmgr, _pilot = make_session(
            (PartitionSpec("flux", n_instances=1),), faults=spec)
        task = tmgr.submit_tasks(TaskDescription(duration=1.0, fail=True))
        session.run(tmgr.wait_tasks())
        assert task.state == TaskState.FAILED
        assert task.attempts == 1


class TestCancelDuringRetry:
    def test_cancel_while_backoff_pending_stays_canceled(self):
        # Long backoff: the retry callback fires well after the cancel
        # and must notice the task is already final.
        spec = FaultSpec(retry=RetryPolicy(backoff_base=50.0, jitter=0.0))
        session, tmgr, pilot = make_session(
            (PartitionSpec("flux", n_instances=2),), faults=spec)
        tasks = tmgr.submit_tasks([TaskDescription(duration=30.0)
                                   for _ in range(8)])
        victim = pilot.agent.executors["flux"].hierarchy.instances[0]
        session.env.schedule_callback(
            5.0, lambda: session.faults.inject_backend_crash(
                pilot.agent, "flux", victim))
        # Give the crash time to fail attempts into their backoff wait,
        # then cancel everything before any retry fires.
        session.run(until=session.now + 10.0)
        waiting = [t for t in tasks if t.state == TaskState.AGENT_SCHEDULING]
        assert waiting, "some tasks should be parked in retry backoff"
        tmgr.cancel_tasks(tasks)
        session.run(tmgr.wait_tasks())
        final = {t.state for t in tasks}
        assert final <= {TaskState.CANCELED, TaskState.DONE,
                         TaskState.FAILED}
        for t in waiting:
            assert t.state == TaskState.CANCELED
        # The pending retry callbacks fire harmlessly after the fact.
        session.run(until=session.now + 120.0)
        for t in waiting:
            assert t.state == TaskState.CANCELED


class TestBlacklistFailover:
    def test_striking_backend_is_blacklisted_and_tasks_fail_over(self):
        spec = FaultSpec(retry=RetryPolicy(blacklist_after=3,
                                           backoff_base=0.2, jitter=0.0,
                                           backend_restart=False))
        session, tmgr, pilot = make_session(
            (PartitionSpec("srun", nodes=4),
             PartitionSpec("flux", nodes=4, n_instances=1)),
            faults=spec)
        tasks = tmgr.submit_tasks([TaskDescription(duration=20.0)
                                   for _ in range(24)])
        victim = pilot.agent.executors["flux"].hierarchy.instances[0]
        session.env.schedule_callback(
            5.0, lambda: session.faults.inject_backend_crash(
                pilot.agent, "flux", victim))
        session.run(tmgr.wait_tasks())
        assert all(t.succeeded for t in tasks)
        flux = pilot.agent.executors["flux"]
        assert flux.routable is False
        assert session.faults.injected["blacklist"] == 1
        # Every task that lost an attempt to the crash finished on srun.
        rerouted = [t for t in tasks if t.attempts > 1]
        assert rerouted
        assert all(t.backend == "srun" for t in rerouted)

    def test_last_backend_is_never_blacklisted(self):
        spec = FaultSpec(retry=RetryPolicy(blacklist_after=1,
                                           backoff_base=0.2, jitter=0.0))
        session, tmgr, pilot = make_session(
            (PartitionSpec("flux", n_instances=2),), faults=spec)
        tasks = tmgr.submit_tasks([TaskDescription(duration=20.0)
                                   for _ in range(8)])
        victim = pilot.agent.executors["flux"].hierarchy.instances[0]
        session.env.schedule_callback(
            5.0, lambda: session.faults.inject_backend_crash(
                pilot.agent, "flux", victim))
        session.run(tmgr.wait_tasks())
        # Strikes accrued, but the sole backend kept routing.
        assert pilot.agent.executors["flux"].routable is True
        assert session.faults.injected["blacklist"] == 0
        assert all(t.succeeded for t in tasks)


class TestPilotFailurePropagation:
    def test_bootstrap_failure_fails_pilot_with_faults_enabled(
            self, small_cluster):
        from repro.core.agent.executor_dragon import DragonExecutor

        session = Session(cluster=small_cluster, seed=3,
                          faults=FaultSpec(mtbf=100.0))
        pmgr = session.pilot_manager()
        pilot = pmgr.submit_pilots(PilotDescription(
            nodes=4, partitions=(PartitionSpec("dragon"),)))
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
        # The fault model never armed (the agent never came up), so no
        # injections happened and the clocks are not ticking.
        assert session.faults.schedule_log == []


class TestDragonRecovery:
    def test_node_failure_shrinks_pool_and_tasks_recover(self):
        spec = FaultSpec(retry=FAST_RETRY)
        session, tmgr, pilot = make_session(
            (PartitionSpec("dragon"),), nodes=4, faults=spec)
        tasks = tmgr.submit_tasks([
            TaskDescription(mode="function", duration=15.0)
            for _ in range(48)])
        node = session.cluster.nodes[0]
        rt = pilot.agent.executors["dragon"].runtimes[0]
        cap0 = rt.pool.capacity

        def crash():
            session.faults.inject_node_failure(pilot.agent, node)
            assert rt.pool.capacity == cap0 - node.n_cores

        session.env.schedule_callback(5.0, crash)
        session.env.schedule_callback(
            20.0, lambda: session.faults.repair_node(pilot.agent, node))
        session.run(tmgr.wait_tasks())
        assert rt.pool.capacity == cap0
        assert all(t.succeeded for t in tasks)
        assert session.faults.injected["node_crash"] == 1


class TestFluxPartitionLoss:
    def test_64_partition_run_survives_partition_loss(self):
        """Acceptance gate: a 64-partition Flux run that loses one
        partition mid-run still completes every task via restart and
        failover routing."""
        spec = FaultSpec(retry=FAST_RETRY)
        session, tmgr, pilot = make_session(
            (PartitionSpec("flux", n_instances=64),), nodes=64,
            cluster=generic(64, 4, 0), faults=spec)
        executor = pilot.agent.executors["flux"]
        assert executor.n_instances == 64
        tasks = tmgr.submit_tasks([TaskDescription(duration=20.0)
                                   for _ in range(512)])
        victim = executor.hierarchy.instances[7]
        session.env.schedule_callback(
            8.0, lambda: session.faults.inject_backend_crash(
                pilot.agent, "flux", victim))
        session.run(tmgr.wait_tasks())
        assert all(t.succeeded for t in tasks)
        assert session.faults.injected["backend_crash"] == 1
        # The lost partition's tasks were re-run elsewhere or after the
        # instance restarted.
        assert [t for t in tasks if t.attempts > 1]
        assert session.faults.n_unrecovered == 0


class TestSrunCeilingLeak:
    def test_killed_queued_steps_release_ceiling_slots(self):
        """Regression: steps killed while waiting for the srun
        concurrency ceiling must cancel their queued request — leaked
        grants used to drain the ceiling until no launch could ever
        start again."""
        spec = FaultSpec(retry=RetryPolicy(max_attempts=5, backoff_base=0.2,
                                           jitter=0.0))
        session, tmgr, pilot = make_session(
            (PartitionSpec("srun"),), nodes=4,
            cluster=generic(4, 64, 0), faults=spec)
        # 256 slots but a 112-wide ceiling: plenty of steps queued.
        tasks = tmgr.submit_tasks([TaskDescription(duration=30.0)
                                   for _ in range(256)])
        for when, index in ((5.0, 0), (6.0, 1)):
            session.env.schedule_callback(
                when, lambda i=index: session.faults.inject_node_failure(
                    pilot.agent, session.cluster.nodes[i]))
        session.env.schedule_callback(
            25.0, lambda: session.faults.repair_node(
                pilot.agent, session.cluster.nodes[0]))
        session.env.schedule_callback(
            26.0, lambda: session.faults.repair_node(
                pilot.agent, session.cluster.nodes[1]))
        session.run(tmgr.wait_tasks())
        assert all(t.succeeded for t in tasks)
        assert session.srun._ceiling.count == 0
        assert session.srun._ceiling.queued == 0
