"""Tests for session summaries."""

import pytest

from repro.analytics import summarize
from repro.core import (
    PartitionSpec,
    PilotDescription,
    Session,
    TaskDescription,
)
from repro.platform import generic


@pytest.fixture
def hybrid_run():
    session = Session(cluster=generic(8, 8, 2), seed=61)
    pmgr, tmgr = session.pilot_manager(), session.task_manager()
    pilot = pmgr.submit_pilots(PilotDescription(
        nodes=8, partitions=(PartitionSpec("flux"),
                             PartitionSpec("dragon"))))
    tmgr.add_pilot(pilot)
    tasks = tmgr.submit_tasks(
        [TaskDescription(duration=5.0) for _ in range(20)] +
        [TaskDescription(mode="function", duration=5.0) for _ in range(20)] +
        [TaskDescription(duration=1.0, fail=True) for _ in range(5)])
    session.run(tmgr.wait_tasks())
    return session, tasks


class TestSummarize:
    def test_counts(self, hybrid_run):
        _, tasks = hybrid_run
        summary = summarize(tasks)
        assert summary.n_tasks == 45
        assert summary.n_done == 40
        assert summary.n_failed == 5
        assert summary.n_canceled == 0

    def test_backend_breakdown(self, hybrid_run):
        _, tasks = hybrid_run
        summary = summarize(tasks)
        by_name = {b.backend: b for b in summary.backends}
        assert by_name["flux"].n_tasks == 25   # 20 exec + 5 fail-injected
        assert by_name["dragon"].n_tasks == 20
        assert by_name["flux"].n_failed == 5

    def test_phases_present(self, hybrid_run):
        """A run report's phases are the rollup of the run's profile."""
        from repro.observability import phase_rollup, spans_from_profiler

        session, tasks = hybrid_run
        rollup = phase_rollup(spans_from_profiler(session.profiler))
        assert list(rollup) == ["schedule", "launch", "exec", "collect"]
        assert rollup["schedule"]["count"] == len(tasks) == 45
        # The 40 payloads that finished ran 5 s each; the 5
        # fail-injected tasks fail as they start, with no exec phase.
        assert rollup["exec"]["count"] == 40
        assert rollup["exec"]["mean"] == pytest.approx(5.0, abs=0.1)

    def test_utilization_optional(self, hybrid_run):
        _, tasks = hybrid_run
        assert summarize(tasks).utilization_cores is None
        summary = summarize(tasks, total_cores=64)
        assert 0.0 < summary.utilization_cores <= 1.0

    def test_to_text(self, hybrid_run):
        _, tasks = hybrid_run
        text = summarize(tasks, total_cores=64).to_text()
        assert "backend" in text
        assert "flux" in text and "dragon" in text
        assert "core utilization" in text

    def test_empty_task_list(self):
        summary = summarize([])
        assert summary.n_tasks == 0
        assert summary.backends == ()
        assert "tasks" in summary.to_text()
