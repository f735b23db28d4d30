"""Self-test of the benchmark on tiny configs: ``pytest bench/tests``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import run
from bench.workloads import KIND_RUN, KIND_SWEEP, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY_RUN = Workload("tiny_run", KIND_RUN, "", exp_id="flux_n",
                    overrides=(("n_nodes", 8), ("n_partitions", 2),
                               ("waves", 1)))
TINY_SWEEP = Workload("tiny_sweep", KIND_SWEEP, "", sweep_keys=2,
                      sweep_requests=3)


def test_catalogue_matches_benchmark_json():
    assert BENCHMARK["run_seconds"] == run.DEFAULT_SECONDS
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert BENCHMARK["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in run.END_TO_END]
    assert BENCHMARK["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in run.PER_LAYER]


@pytest.mark.parametrize("workload", [TINY_RUN, TINY_SWEEP],
                         ids=lambda w: w.name)
def test_traced_round_on_a_fresh_seed(workload):
    # Seed 1 has no pinned digest: the oracle checks every round
    # against the first one, and the traced round against them too.
    result = run.measure(workload, seed=1, seconds=0, trace=True,
                         min_rounds=1)
    assert result["problems"] == []
    assert result["failed"] == 0
    assert result["attempted"] == 3 * workload.requests
    assert {name: entry["unit"]
            for name, entry in result["end_to_end"].items()} == {
        m.name: m.unit for m in run.END_TO_END}
    layers = {name: entry["value"]
              for name, entry in result["per_layer"].items()}
    assert list(layers) == [m.name for m in run.PER_LAYER]
    # The layer samples, with the process start and exit the parent
    # measures around them, add up to the traced round's wall.
    assert layers["trace.coverage_pct"] == pytest.approx(100, abs=5)
    busy = "ensemble.self_pct" if workload is TINY_SWEEP else "sim.self_pct"
    assert layers[busy] > 0


def test_oracle_rejects_a_wrong_pin():
    result = run.measure(TINY_RUN, seed=0, seconds=0, trace=False,
                         pinned="0" * 64, min_rounds=1)
    assert result["failed"] == result["attempted"] == 2
    assert "differs from the reference" in result["problems"][0]


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable] + BENCHMARK["command"][1:] + [
        "--workload", "fluxn_null", "--seed", "0", "--seconds", "1",
        "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
