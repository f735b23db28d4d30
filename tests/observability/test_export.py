"""Exporter tests: the Perfetto trace format."""

import json

import pytest

from repro.observability import (
    Span,
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)


def _tree():
    root = Span("session.0", "session", 0.0, 20.0)
    pilot = root.child("pilot.0", "pilot", 0.0, 20.0)
    group = pilot.child("flux", "backend_group", 0.0, 20.0)
    group.child("agent.flux.000", "backend", 0.0, 18.0, kind="flux")
    task = group.child("task.0", "task", 1.0, 9.0, backend="flux")
    task.child("schedule", "phase", 1.0, 2.0)
    task.child("launch", "phase", 2.0, 4.0)
    task.child("exec", "phase", 4.0, 8.0)
    task.child("collect", "phase", 8.0, 9.0)
    return root


class TestChromeTrace:
    def test_document_validates(self):
        doc = chrome_trace(_tree())
        assert validate_chrome_trace(doc) == []
        assert doc["traceEvents"]

    def test_microsecond_scaling(self):
        doc = chrome_trace(_tree())
        task = next(e for e in doc["traceEvents"]
                    if e.get("name") == "task.0")
        assert task["ts"] == pytest.approx(1.0e6)
        assert task["dur"] == pytest.approx(8.0e6)

    def test_backend_groups_become_processes(self):
        doc = chrome_trace(_tree())
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert names == {"runtime", "flux"}

    def test_task_and_phases_share_one_lane(self):
        doc = chrome_trace(_tree())
        lanes = {(e["pid"], e["tid"]) for e in doc["traceEvents"]
                 if e["ph"] == "X"
                 and e["name"] in ("task.0", "schedule", "launch",
                                   "exec", "collect")}
        assert len(lanes) == 1

    def test_write_round_trip(self, tmp_path):
        path = write_chrome_trace(_tree(), tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []

    def test_validator_flags_bad_events(self):
        assert validate_chrome_trace({}) == \
            ["traceEvents missing or not a list"]
        doc = {"traceEvents": [
            {"ph": "Z"},
            {"ph": "X", "name": "", "pid": 0, "tid": 0, "ts": -1},
            "nope",
        ]}
        problems = validate_chrome_trace(doc)
        assert len(problems) >= 3

