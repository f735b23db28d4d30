"""Full-machine weak-scaling benchmark (not a paper figure).

Runs the ``frontier_full`` family — flux_n at a fixed 147
nodes/partition, from 588 nodes up to the whole 9408-node machine —
with one null-task wave per point, and writes wall time, simulated
throughput and peak RSS per point to ``BENCH_scale.json``.

Each point runs in a fresh subprocess so ``ru_maxrss`` is the honest
per-point peak (in-process it would only ever ratchet up), and so the
points do not share allocator state.  Each point runs with a spilling
profiler, as full-machine runs should; task admission and Flux
retention have one mode each, so there is nothing else to switch on.

The full-machine point carries a resource budget: it must
finish inside ``WALL_BUDGET_S`` and ``RSS_BUDGET_MB``.  The budgets
are deliberately loose versus the measured values (documented in
EXPERIMENTS.md, "Simulator performance and scaling") — they are
there to catch order-of-magnitude regressions, not noise; trend
tracking happens on the recorded JSON across commits.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.experiments.configs import FRONTIER_SCALE_POINTS

from .conftest import run_once, write_bench

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_scale.json"

#: One wave keeps the sweep benchmark-sized (526,848 tasks at the
#: full-machine point); four-wave feasibility is documented, not run
#: on every commit.
WAVES = 1

#: Resource budget for the 9408-node / 64-partition point.
WALL_BUDGET_S = 600.0
RSS_BUDGET_MB = 2048.0

#: Runs in the child: one scaling point, metrics as JSON on stdout.
_CHILD = """\
import json, resource, sys, tempfile, time
from dataclasses import replace
from repro.experiments.configs import frontier_full_configs
from repro.experiments.harness import run_experiment

idx, waves = int(sys.argv[1]), int(sys.argv[2])
cfg = replace(frontier_full_configs(waves=waves)[idx], seed=0)
t0 = time.perf_counter()
res = run_experiment(cfg, spill_dir=tempfile.mkdtemp(prefix="repro-scale-"))
wall = time.perf_counter() - t0
point = {
    "n_nodes": cfg.n_nodes,
    "n_partitions": cfg.n_partitions,
    "n_tasks": res.n_tasks,
    "n_done": res.n_done,
    "wall_seconds": wall,
    "tasks_per_wall_second": res.n_tasks / wall,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}
print(json.dumps(point))
"""


def _run_point(idx: int) -> dict:
    env = dict(os.environ)
    src = str(BENCH_FILE.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(idx), str(WAVES)],
        capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_weak_scaling_to_full_machine(benchmark, emit):
    def sweep():
        return [_run_point(i) for i in range(len(FRONTIER_SCALE_POINTS))]

    points = run_once(benchmark, sweep)

    for p in points:
        assert p["n_done"] == p["n_tasks"], (
            f"{p['n_nodes']}-node point lost tasks: "
            f"{p['n_done']}/{p['n_tasks']}")

    write_bench(BENCH_FILE, {
        "waves": WAVES,
        "points": points,
        "wall_budget_s": WALL_BUDGET_S,
        "rss_budget_mb": RSS_BUDGET_MB,
    })

    rows = "\n".join(
        f"  {p['n_nodes']:>5} nodes / {p['n_partitions']:>2} parts"
        f": {p['n_tasks']:>7,} tasks  {p['wall_seconds']:7.1f}s  "
        f"{p['tasks_per_wall_second']:7,.0f} tasks/s  "
        f"{p['peak_rss_mb']:6.0f} MB peak"
        for p in points)
    emit(f"weak scaling ({WAVES} wave):\n{rows}\nwrote {BENCH_FILE}")

    full = next(p for p in points if p["n_nodes"] == 9408)
    assert full["n_partitions"] == 64
    assert full["wall_seconds"] <= WALL_BUDGET_S, (
        f"full-machine point took {full['wall_seconds']:.0f}s "
        f"(budget {WALL_BUDGET_S:.0f}s)")
    assert full["peak_rss_mb"] <= RSS_BUDGET_MB, (
        f"full-machine point peaked at {full['peak_rss_mb']:.0f} MB "
        f"(budget {RSS_BUDGET_MB:.0f} MB)")
