"""Tests for staging concurrency and contention behaviour."""

import pytest

from repro.core import (
    PartitionSpec,
    PilotDescription,
    Session,
    TaskDescription,
)
from repro.core.agent.staging import Stager
from repro.platform import DETERMINISTIC_LATENCIES, SharedFilesystem, generic
from repro.sim import Environment, RngStreams


class TestStagerUnit:
    def test_zero_items_is_noop(self, env, rng):
        stager = Stager(env, DETERMINISTIC_LATENCIES, rng)
        env.run(env.process(stager.stage(0)))
        assert env.now == 0.0
        assert stager.n_items == 0

    def test_worker_pool_limits_concurrency(self, env, rng):
        lat = DETERMINISTIC_LATENCIES.with_overrides(
            staging_cost_per_item=1.0)
        stager = Stager(env, lat, rng, concurrency=2)
        procs = [env.process(stager.stage(1)) for _ in range(6)]
        env.run(env.all_of(procs))
        # 6 items, 2 workers, 1 s each -> 3 waves.
        assert env.now == pytest.approx(3.0)
        assert stager.n_items == 6

    def test_filesystem_transfers_accounted(self, env, rng):
        fs = SharedFilesystem(env, aggregate_bandwidth=1e9,
                              access_latency=0.0)
        stager = Stager(env, DETERMINISTIC_LATENCIES, rng, filesystem=fs)
        env.run(env.process(stager.stage(2, item_mb=100.0)))
        assert fs.n_transfers == 2
        assert stager.bytes_staged == pytest.approx(2 * 100 * 1024 * 1024)

    def test_no_filesystem_means_no_transfers(self, env, rng):
        stager = Stager(env, DETERMINISTIC_LATENCIES, rng, filesystem=None)
        env.run(env.process(stager.stage(2, item_mb=100.0)))
        assert stager.bytes_staged == 0.0


class TestStagingUnderLoad:
    def test_many_staging_tasks_share_the_filesystem(self):
        session = Session(cluster=generic(4, 8, 2), seed=77)
        pmgr, tmgr = session.pilot_manager(), session.task_manager()
        pilot = pmgr.submit_pilots(PilotDescription(
            nodes=4, partitions=(PartitionSpec("flux"),)))
        tmgr.add_pilot(pilot)
        tasks = tmgr.submit_tasks([
            TaskDescription(duration=1.0, input_staging=1,
                            staging_item_mb=500.0)
            for _ in range(16)])
        session.run(tmgr.wait_tasks())
        assert all(t.succeeded for t in tasks)
        assert session.filesystem.n_transfers == 16
        # Contention pushed at least some transfers past the
        # uncontended single-transfer time.
        single = session.filesystem.transfer_time(500 * 1024 * 1024, 1)
        assert session.now > single

    def test_staging_phases_visible_in_summary(self):
        """Staging-in happens between task creation and
        AGENT_SCHEDULING, so its transfer time shows up in the
        ``schedule`` phase the run summary prints."""
        from repro.observability import phase_rollup, spans_from_profiler

        def schedule_mean(input_staging):
            session = Session(cluster=generic(4, 8, 2), seed=78)
            pmgr, tmgr = session.pilot_manager(), session.task_manager()
            pilot = pmgr.submit_pilots(PilotDescription(
                nodes=4, partitions=(PartitionSpec("flux"),)))
            tmgr.add_pilot(pilot)
            tmgr.submit_tasks([
                TaskDescription(duration=2.0, input_staging=input_staging,
                                staging_item_mb=100.0)
                for _ in range(8)])
            session.run(tmgr.wait_tasks())
            assert pilot.agent.stager_in.n_items == 8 * input_staging
            rollup = phase_rollup(spans_from_profiler(session.profiler))
            return rollup["schedule"]["mean"]

        assert schedule_mean(2) > schedule_mean(0) + 0.1
