"""The CI benchmark regression gate (tools/bench_gate.py)."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_gate",
    Path(__file__).resolve().parent.parent / "tools" / "bench_gate.py")
bench_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_gate)


class TestExtractRates:
    def test_flat_and_nested(self):
        doc = {
            "tasks_per_wall_second": 100.0,
            "tasks_per_wall_second_disabled": 90.0,
            "other": 5.0,
            "points": [{"tasks_per_wall_second": 50.0, "n_nodes": 9408}],
        }
        rates = {p: v for p, v, _ in bench_gate.extract_rates(doc)}
        assert rates == {
            "tasks_per_wall_second": 100.0,
            "tasks_per_wall_second_disabled": 90.0,
            "points.9408n.tasks_per_wall_second": 50.0,
        }

    def test_non_numeric_metric_ignored(self):
        assert list(bench_gate.extract_rates(
            {"tasks_per_wall_second": "fast"})) == []

    def test_labels_are_content_derived_not_positional(self):
        # Reordering or inserting points must not shift the labels:
        # each point compares against its own baseline entry.
        a = {"n_nodes": 588, "n_partitions": 4, "tasks_per_wall_second": 1.0}
        b = {"n_nodes": 9408, "n_partitions": 64,
             "tasks_per_wall_second": 2.0}
        forward = {p: v for p, v, _ in
                   bench_gate.extract_rates({"points": [a, b]})}
        reordered = {p: v for p, v, _ in
                     bench_gate.extract_rates({"points": [b, a]})}
        assert forward == reordered == {
            "points.588n4p.tasks_per_wall_second": 1.0,
            "points.9408n64p.tasks_per_wall_second": 2.0,
        }

    def test_unlabelled_entries_stay_positional(self):
        rates = {p: v for p, v, _ in bench_gate.extract_rates(
            {"runs": [{"tasks_per_wall_second": 3.0}]})}
        assert rates == {"runs[0].tasks_per_wall_second": 3.0}


class TestCompare:
    def test_within_threshold_passes(self):
        failures, notes = bench_gate.compare(
            {"tasks_per_wall_second": 80.0},
            {"tasks_per_wall_second": 100.0}, threshold=0.25)
        assert failures == []
        assert len(notes) == 1

    def test_regression_fails(self):
        failures, _ = bench_gate.compare(
            {"tasks_per_wall_second": 70.0},
            {"tasks_per_wall_second": 100.0}, threshold=0.25)
        assert len(failures) == 1
        assert "0.70x" in failures[0]

    def test_improvement_passes(self):
        failures, _ = bench_gate.compare(
            {"tasks_per_wall_second": 130.0},
            {"tasks_per_wall_second": 100.0}, threshold=0.25)
        assert failures == []

    def test_new_metric_skipped(self):
        failures, notes = bench_gate.compare(
            {"tasks_per_wall_second_enabled": 50.0}, {}, threshold=0.25)
        assert failures == []
        assert "no baseline" in notes[0]

    def test_nested_points_compared(self):
        failures, _ = bench_gate.compare(
            {"points": [{"tasks_per_wall_second": 10.0}]},
            {"points": [{"tasks_per_wall_second": 100.0}]}, threshold=0.25)
        assert len(failures) == 1

    def test_cost_metric_is_extracted_as_cost(self):
        kinds = {p: k for p, _, k in bench_gate.extract_rates(
            {"checkpoint_overhead": 0.02, "recovery_seconds_median": 0.01,
             "tasks_per_wall_second": 10.0})}
        assert kinds["checkpoint_overhead"] == "cost"
        assert kinds["recovery_seconds_median"] == "cost"
        assert kinds["tasks_per_wall_second"] == "rate"

    def test_cost_within_ceiling_passes(self):
        # Costs gate the other way: rising is the regression.  The
        # slack is absolute, so a 0 -> 0.05 move on a near-zero cost
        # does not trip a ratio explosion.
        failures, notes = bench_gate.compare(
            {"checkpoint_overhead": 0.05},
            {"checkpoint_overhead": 0.0}, threshold=0.25)
        assert failures == []
        assert "ceiling" in notes[0]

    def test_cost_rise_past_ceiling_fails(self):
        failures, _ = bench_gate.compare(
            {"checkpoint_overhead": 0.40},
            {"checkpoint_overhead": 0.02}, threshold=0.25)
        assert len(failures) == 1
        assert "ceiling" in failures[0]

    def test_cost_drop_passes(self):
        failures, _ = bench_gate.compare(
            {"recovery_seconds_median": 0.001},
            {"recovery_seconds_median": 0.5}, threshold=0.25)
        assert failures == []


class TestEndToEnd:
    def _repo(self, tmp_path, baseline_rate):
        subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
        subprocess.run(["git", "-c", "user.email=t@t", "-c", "user.name=t",
                        "commit", "-q", "--allow-empty", "-m", "seed"],
                       cwd=tmp_path, check=True)
        bench = tmp_path / "BENCH_kernel.json"
        bench.write_text(json.dumps(
            {"tasks_per_wall_second": baseline_rate}))
        subprocess.run(["git", "add", "BENCH_kernel.json"],
                       cwd=tmp_path, check=True)
        subprocess.run(["git", "-c", "user.email=t@t", "-c", "user.name=t",
                        "commit", "-q", "-m", "baseline"],
                       cwd=tmp_path, check=True)
        return bench

    def _run_gate(self, tmp_path, *args):
        gate = Path(bench_gate.__file__)
        # run from a tools/-like layout inside the temp repo so the
        # script resolves tmp_path as its repo root
        tools = tmp_path / "tools"
        tools.mkdir(exist_ok=True)
        (tools / "bench_gate.py").write_text(gate.read_text())
        return subprocess.run(
            [sys.executable, str(tools / "bench_gate.py"), *args],
            capture_output=True, text=True, cwd=tmp_path)

    def test_pass_and_fail_paths(self, tmp_path):
        bench = self._repo(tmp_path, 100.0)
        bench.write_text(json.dumps({"tasks_per_wall_second": 90.0}))
        ok = self._run_gate(tmp_path, "BENCH_kernel.json")
        assert ok.returncode == 0, ok.stderr
        assert "bench-gate: ok" in ok.stdout

        bench.write_text(json.dumps({"tasks_per_wall_second": 30.0}))
        bad = self._run_gate(tmp_path, "BENCH_kernel.json")
        assert bad.returncode == 1
        assert "REGRESSION" in bad.stderr

    def test_missing_baseline_is_skipped(self, tmp_path):
        self._repo(tmp_path, 100.0)
        new = tmp_path / "BENCH_scale.json"
        new.write_text(json.dumps({"tasks_per_wall_second": 10.0}))
        res = self._run_gate(tmp_path, "BENCH_scale.json")
        assert res.returncode == 0, res.stderr
        assert "no baseline" in res.stdout
