"""API-surface tests for Workflow/WorkflowResult helpers."""

import pytest

from repro.core import TaskDescription
from repro.workloads import Workflow, WorkflowResult


class TestWorkflowApi:
    def test_len_and_contains(self):
        wf = Workflow()
        wf.add("a", TaskDescription())
        wf.add("b", TaskDescription(), depends_on=("a",))
        assert len(wf) == 2
        assert "a" in wf
        assert "c" not in wf

    def test_nodes_snapshot(self):
        wf = Workflow()
        wf.add("a", TaskDescription())
        nodes = wf.nodes
        nodes.clear()
        assert len(wf) == 1  # snapshot, not the internal list

    def test_empty_workflow_metrics(self):
        wf = Workflow()
        assert wf.topological_order() == []
        assert wf.critical_path_length() == 0.0

    def test_duplicate_deps_counted_once(self):
        wf = Workflow()
        wf.add("a", TaskDescription(duration=1.0))
        wf.add("b", TaskDescription(duration=1.0),
               depends_on=("a", "a", "a"))
        assert wf.topological_order() == ["a", "b"]
        assert wf.critical_path_length() == pytest.approx(2.0)


class TestWorkflowResult:
    def test_succeeded_requires_no_skips(self):
        result = WorkflowResult()
        assert result.succeeded  # vacuous truth: nothing ran, nothing skipped
        result.skipped.append("x")
        assert not result.succeeded

