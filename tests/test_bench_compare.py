"""The base-vs-change benchmark comparison (tools/bench_compare.py)."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "bench_compare", ROOT / "tools" / "bench_compare.py")
bench_compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_compare)

BOUNDS = {m["name"]: m for m in
          json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def _doc(workloads=("fluxn_null", "sweep_store"), failed=0):
    """A tiny ``bench run --out`` document: every metric reads 100."""
    return {"seed": 0, "seconds": 1.0, "results": [
        {"workload": name, "attempted": 6, "failed": failed,
         "end_to_end": {metric: {"value": 100.0, "unit": m["unit"]}
                        for metric, m in BOUNDS.items()}}
        for name in workloads]}


def _exit(parent, change, tmp_path) -> int:
    paths = []
    for name, doc in (("parent.json", parent), ("change.json", change)):
        (tmp_path / name).write_text(json.dumps(doc))
        paths.append(str(tmp_path / name))
    return bench_compare.main(paths)


def _with(metric, factor, workload=1):
    """The parent document with one metric scaled by ``factor``."""
    doc = _doc()
    doc["results"][workload]["end_to_end"][metric]["value"] *= factor
    return doc


def _worse(metric, share):
    """The factor that makes ``metric`` worse by ``share`` of its
    value (better, when ``share`` is negative)."""
    lower = BOUNDS[metric]["better"] == "lower"
    return 1 + share if lower else 1 - share


class TestCompare:
    def test_identical_passes(self, tmp_path):
        assert _exit(_doc(), _doc(), tmp_path) == 0

    @pytest.mark.parametrize("metric", ["tasks_per_s", "wall_s"])
    def test_regression_fails(self, tmp_path, metric):
        factor = _worse(metric, BOUNDS[metric]["bound"] + 0.02)
        assert _exit(_doc(), _with(metric, factor), tmp_path) == 1

    @pytest.mark.parametrize("metric", ["tasks_per_s", "wall_s"])
    def test_within_threshold_passes(self, tmp_path, metric):
        factor = _worse(metric, BOUNDS[metric]["bound"] - 0.02)
        assert _exit(_doc(), _with(metric, factor), tmp_path) == 0

    @pytest.mark.parametrize("metric", ["tasks_per_s", "wall_s"])
    def test_improvement_passes(self, tmp_path, metric):
        factor = _worse(metric, -0.5)
        assert _exit(_doc(), _with(metric, factor), tmp_path) == 0

    def test_every_declared_metric_is_gated(self, tmp_path):
        for metric in BOUNDS:
            factor = _worse(metric, BOUNDS[metric]["bound"] + 0.02)
            assert _exit(_doc(), _with(metric, factor, workload=0),
                         tmp_path) == 1, metric


class TestEndToEnd:
    def test_more_failed_operations_fails(self, tmp_path):
        assert _exit(_doc(failed=1), _doc(failed=1), tmp_path) == 0
        assert _exit(_doc(), _doc(failed=1), tmp_path) == 1

    def test_missing_workload_fails(self, tmp_path):
        assert _exit(_doc(), _doc(workloads=("fluxn_null",)), tmp_path) == 1
        # A workload only the change has is not compared.
        assert _exit(_doc(workloads=("fluxn_null",)), _doc(), tmp_path) == 0

    def test_pass_and_fail_paths(self, tmp_path):
        (tmp_path / "parent.json").write_text(json.dumps(_doc()))
        (tmp_path / "change.json").write_text(
            json.dumps(_with("peak_rss_mb", 1.5)))
        cmd = [sys.executable, str(ROOT / "tools" / "bench_compare.py")]
        ok = subprocess.run(cmd + [str(tmp_path / "parent.json")] * 2,
                            capture_output=True, text=True)
        assert ok.returncode == 0, ok.stderr
        assert "bench-compare: ok" in ok.stdout
        bad = subprocess.run(cmd + [str(tmp_path / "parent.json"),
                                    str(tmp_path / "change.json")],
                             capture_output=True, text=True)
        assert bad.returncode == 1
        assert "REGRESSION sweep_store.peak_rss_mb" in bad.stderr
        usage = subprocess.run(cmd, capture_output=True, text=True)
        assert usage.returncode == 2
