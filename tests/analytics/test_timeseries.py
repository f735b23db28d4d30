"""Unit tests for concurrency/rate time series."""

import numpy as np
import pytest

from repro.analytics import (
    Profiler,
    backlog_series,
    concurrency_series,
    resource_usage_series,
    start_rate_series,
)
from repro.core import TaskDescription
from repro.core.states import TaskState
from repro.core.task import Task
from tests.analytics.test_metrics import executed_task


class TestConcurrency:
    def test_plateau(self, env):
        tasks = [executed_task(env, 0.0, 100.0) for _ in range(5)]
        series = concurrency_series(tasks, resolution=10.0)
        assert series.max() == 5
        # Mid-run samples all see 5 concurrent tasks.
        mid = series.values[(series.times > 10) & (series.times < 90)]
        assert np.all(mid == 5)

    def test_staircase(self, env):
        tasks = [executed_task(env, float(10 * i), 100.0) for i in range(4)]
        series = concurrency_series(tasks, resolution=5.0)
        assert series.values[0] <= series.max()
        assert series.max() == 4

    def test_empty(self):
        series = concurrency_series([], resolution=1.0)
        assert series.times.size == 0
        assert series.max() == 0.0


class TestStartRate:
    def test_uniform_rate(self, env):
        tasks = [executed_task(env, i * 0.1, 1000.0) for i in range(500)]
        series = start_rate_series(tasks, bin_width=10.0)
        assert series.mean() == pytest.approx(10.0, rel=0.15)

    def test_empty(self):
        series = start_rate_series([], bin_width=1.0)
        assert series.times.size == 0


class TestStateOccupancy:
    """The scheduling backlog, from a run's profile."""

    def test_scheduling_backlog_visible(self, env):
        """Tasks queued (AGENT_SCHEDULING) before a staggered launch
        show up as occupancy that drains over time."""
        profiler = Profiler(env)
        for i in range(10):
            t = Task(env, f"t{i}", TaskDescription(), profiler=profiler)
            env._now = 0.0
            t.advance(TaskState.TMGR_SCHEDULING)
            t.advance(TaskState.AGENT_SCHEDULING)
            env._now = 10.0 * (i + 1)
            t.advance(TaskState.AGENT_EXECUTING)
            env._now = 10.0 * (i + 1) + 5.0
            t.mark_exec_stop()
            t.advance(TaskState.DONE)
        series = backlog_series(profiler, resolution=10.0)
        assert series.values[0] == 10  # all queued at t=0
        # Monotone drain as launches proceed.
        assert series.values[-1] <= 1
        assert all(b <= a for a, b in zip(series.values, series.values[1:]))

    def test_retry_reenters_backlog(self, env):
        """A retry back to scheduling is a second backlog interval; a
        task that never leaves the backlog is counted up to the
        profile's last task state event."""
        profiler = Profiler(env)
        retried = Task(env, "retried", TaskDescription(), profiler=profiler)
        waiting = Task(env, "waiting", TaskDescription(), profiler=profiler)
        retried.advance(TaskState.TMGR_SCHEDULING)
        retried.advance(TaskState.AGENT_SCHEDULING)
        env._now = 5.0
        waiting.advance(TaskState.TMGR_SCHEDULING)
        waiting.advance(TaskState.AGENT_SCHEDULING)
        env._now = 10.0
        retried.advance(TaskState.AGENT_EXECUTING)
        env._now = 20.0
        retried.advance(TaskState.AGENT_SCHEDULING, retry=True)
        env._now = 30.0
        retried.advance(TaskState.AGENT_EXECUTING)
        env._now = 40.0
        retried.mark_exec_stop()
        retried.advance(TaskState.DONE)
        series = backlog_series(profiler, resolution=5.0)
        assert series.times.tolist() == [5.0 * i for i in range(9)]
        assert series.values.tolist() == [1, 2, 1, 1, 2, 2, 1, 1, 0]

    def test_faulty_run_pins_the_series(self):
        """The series of the CLI's faulty run equals the one the
        per-task state lists gave before the profile became the only
        record of task states.  Its failed launch attempts retry
        inside the backlog, between one task_scheduled and the next
        task_exec_start."""
        import dataclasses

        from repro.experiments.configs import config_by_id
        from repro.experiments.harness import run_experiment
        from repro.faults import FaultSpec

        cfg = config_by_id("faults")
        cfg = dataclasses.replace(cfg, faults=FaultSpec.parse(
            "mtbf=900,p_launch_fail=0.02", base=cfg.faults))
        profiler = run_experiment(cfg, keep_session=True).session.profiler
        assert len(profiler.events_named("task_attempt_failed")) == 38
        series = backlog_series(profiler, resolution=1.0)
        assert series.times[0] == 23.96464473739857
        assert np.array_equal(series.times,
                              series.times[0] + np.arange(21.0))
        assert series.values.tolist() == [
            1, 1624, 1442, 1255, 1075, 884, 693, 506, 322, 232, 210,
            187, 161, 141, 120, 96, 75, 51, 28, 7, 0]

    def test_empty(self, env):
        series = backlog_series(Profiler(env))
        assert series.times.size == 0


class TestResourceUsage:
    def test_fraction_busy(self, env):
        tasks = [executed_task(env, 0.0, 100.0, cores=8)]
        series = resource_usage_series(tasks, total=16, resolution=10.0)
        mid = series.values[(series.times > 5) & (series.times < 95)]
        assert np.all(np.isclose(mid, 0.5))

    def test_weighted_by_cores(self, env):
        tasks = [executed_task(env, 0.0, 50.0, cores=4),
                 executed_task(env, 0.0, 50.0, cores=12)]
        series = resource_usage_series(tasks, total=16, resolution=5.0)
        mid = series.values[(series.times > 2) & (series.times < 48)]
        assert np.all(np.isclose(mid, 1.0))

    def test_gpus(self, env):
        tasks = [executed_task(env, 0.0, 10.0, cores=1, gpus=4)]
        series = resource_usage_series(tasks, total=8, resolution=1.0,
                                       resource="gpus")
        assert series.max() == pytest.approx(0.5)
