"""Same-session cost gates (not a paper figure).

Every gate here but the frontier_full budget is a ratio of two
measurements taken in this session, on this host, so no number
measured on another machine or another day enters its verdict, and
nothing is written to disk.  Cross-commit speed is the business of
``python3 -m bench run`` and ``tools/bench_compare.py``; these gates
pin what one commit costs on top of itself:

* **Instrumented legs** on the kernel reference configuration (flux,
  64 nodes, 4 partitions, 14,336 null tasks): live progress, fault
  injection and durable checkpointing, each against the plain run.
* **Ensemble legs**: per-seed speedup of the vectorized engine over
  independent runs, for srun, flux_1 and dragon, and of auto-parallel
  over serial replay on hosts with room for it.
* **Store legs**: a warm hit against the simulation it replaces, and
  the exact hit/miss/put counts of a seeded Zipf request stream.
* **frontier_full**: the whole-machine scale sweep within its wall,
  memory and rate budget, every task done at every point.

Rounds interleave with their baseline as ``b x b x ... b`` and each
round is judged against the mean of its two neighbouring baseline
rounds, which cancels the slow drift of a shared host.  One noise rule
holds for every leg: when the per-round ratios' interquartile range
exceeds :data:`MAX_SPREAD` of their median and the bound falls inside
that range, the host cannot certify the leg either way and it skips,
reporting the spread.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np
import pytest

from repro.ensemble import run_ensemble, supports_vectorized
from repro.experiments import ExperimentConfig, run_experiment
from repro.experiments.configs import FRONTIER_SCALE_POINTS, config_by_id
from repro.experiments.parallel import resolve_jobs
from repro.faults import FaultSpec, RetryPolicy
from repro.resilience import ResilienceSpec
from repro.store import STATS, RunStore

#: Measured rounds per leg, after one discarded round of each.
ROUNDS = 5

#: The noise rule: the most the per-round ratios' interquartile range
#: may span, as a share of their median, before a leg skips.
MAX_SPREAD = 0.10

#: The kernel reference configuration: 64 * 56 * 4 = 14,336 null tasks.
CFG = ExperimentConfig(exp_id="cost_gates", launcher="flux",
                       workload="null", n_nodes=64, n_partitions=4,
                       waves=4, seed=0)
N_TASKS = 14336

#: A mid-pressure fault specification: node failures every ~30
#: simulated minutes, 1% flaky launches, occasional partition crashes.
FAULTY = FaultSpec(mtbf=1800.0, mttr=120.0, p_launch_fail=0.01,
                   backend_mtbf=3600.0,
                   retry=RetryPolicy(backoff_base=0.5, jitter=0.1))

#: Bounds on the instrumented legs, as the share of the plain rate
#: they may cost.  Progress may cost 15 %; faulty keeps three quarters
#: of the rate it ran at against the plain run on a 2-vCPU host (0.903
#: of it).
MAX_PROGRESS_COST = 0.15
MAX_FAULTY_COST = 1 - 0.75 * 0.903
MAX_CHECKPOINT_COST = 0.10

#: Per-seed speedup floors of the vectorized ensemble engine over
#: independent runs: three quarters of the 34.71x, 8.585x and 14.54x
#: measured on a 2-vCPU host when the engines landed.  An ensemble
#: call takes tens of milliseconds, so each of its rounds repeats the
#: call :data:`ENSEMBLE_REPEAT` times.
ENSEMBLE_REPEAT = 10
MIN_SRUN_SPEEDUP = 0.75 * 34.71
MIN_FLUX_SPEEDUP = 0.75 * 8.585
MIN_DRAGON_SPEEDUP = 0.75 * 14.54
#: Auto-parallel replay over serial replay, judged only where the pool
#: has this many workers.
MIN_REPLAY_SPEEDUP = 2.0
MIN_REPLAY_WORKERS = 4

#: A warm store hit against the cold simulation it replaces (flux,
#: 64 nodes, 4 partitions, one null wave = 3,584 tasks): three quarters
#: of the 341.2x measured on a 2-vCPU host when the store landed.
MIN_WARM_SPEEDUP = 0.75 * 341.2
#: A hit takes a millisecond or two, so a warm round serves
#: :data:`WARM_HITS` of them.
STORE_CFG = replace(CFG, exp_id="cost_gates_store", waves=1)
STORE_TASKS = 3584
WARM_HITS = 200

#: Seeded Zipf request stream: 96 draws, exponent 1.3, seeds folded
#: into [0, 32), so the hit/miss/put counts are exact.
ZIPF_REQUESTS = 96
ZIPF_EXPONENT = 1.3
ZIPF_SEED_SPACE = 32

#: frontier_full budget for the 9408-node / 64-partition point, and a
#: floor on every point's tasks per wall second: three quarters of the
#: 7,784, 6,565 and 5,831 tasks/s the sweep ran at on a 2-vCPU host.
WALL_BUDGET_S = 600.0
RSS_BUDGET_MB = 2048.0
MIN_SCALE_RATE = {588: 0.75 * 7784, 2352: 0.75 * 6565, 9408: 0.75 * 5831}


def _wall(fn: Callable[[], object]) -> float:
    gc.collect()  # no round pays for the garbage of the one before
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def interleaved(base: Callable[[], object],
                legs: Dict[str, Callable[[], object]],
                rounds: int = ROUNDS) -> Dict[str, List[float]]:
    """Each leg's per-round speed relative to ``base``.

    Runs ``b x1 b x2 b ... b`` for ``rounds`` cycles after one
    discarded round of each.  A leg round's ratio is the mean wall of
    its two neighbouring ``base`` rounds over its own wall: above 1
    when the leg is faster, below 1 when it costs.
    """
    for fn in (base, *legs.values()):
        fn()
    prev = _wall(base)
    ratios: Dict[str, List[float]] = {name: [] for name in legs}
    for _ in range(rounds):
        for name, leg in legs.items():
            wall = _wall(leg)
            nxt = _wall(base)
            ratios[name].append((prev + nxt) / 2.0 / wall)
            prev = nxt
    return ratios


def certified(ratios: List[float], floor: float, what: str, emit) -> float:
    """The median of ``ratios``, to be held to ``floor``.

    Skips when the rounds disagree by more than :data:`MAX_SPREAD`
    and the floor falls inside their interquartile range; when the
    whole range lies on one side of the floor, the verdict stands even
    on a noisy host.
    """
    median = statistics.median(ratios)
    q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    spread = (q3 - q1) / median
    emit(f"{what}: median ratio {median:.4g}, floor {floor:.4g} "
         f"(per round {', '.join(f'{r:.4g}' for r in ratios)}; "
         f"spread {spread:.1%})")
    if spread > MAX_SPREAD and q1 < floor <= q3:
        pytest.skip(f"{what}: per-round ratios spread by {spread:.1%} "
                    f"(> {MAX_SPREAD:.0%}) across the floor; host too "
                    f"noisy to certify")
    return median


# -- instrumented legs ------------------------------------------------------


def _run(cfg: ExperimentConfig = CFG, **options) -> None:
    result = run_experiment(cfg, **options)
    assert result.n_done == result.n_tasks == N_TASKS


@pytest.fixture(scope="module")
def instrumented(tmp_path_factory) -> Dict[str, List[float]]:
    ckpt = tmp_path_factory.mktemp("ckpt")
    return interleaved(_run, {
        "progress": lambda: _run(progress=lambda record: None),
        "faulty": lambda: _run(replace(CFG, faults=FAULTY)),
        "checkpoint": lambda: _run(resilience=ResilienceSpec(
            checkpoint_dir=str(ckpt))),
    })


@pytest.mark.parametrize("leg, bound", [
    ("progress", MAX_PROGRESS_COST),
    ("faulty", MAX_FAULTY_COST),
    ("checkpoint", MAX_CHECKPOINT_COST),
], ids=["progress", "faulty", "checkpoint"])
def test_instrumented_cost(instrumented, leg, bound, emit):
    what = f"{leg} vs plain"
    cost = 1.0 - certified(instrumented[leg], 1.0 - bound, what, emit)
    emit(f"{what}: cost {cost:+.1%} (bound {bound:.1%})")
    assert cost <= bound, (
        f"{leg} costs {cost:.1%} of the plain rate (> {bound:.1%})")


# -- ensemble legs ----------------------------------------------------------


def _ensemble(cfg, seeds, tasks_per_seed, engine, **options):
    def run() -> None:
        ens = run_ensemble(cfg, seeds=seeds, **options)
        assert ens.engine == engine
        for member in ens.members:
            assert member.result.n_done == member.result.n_tasks \
                == tasks_per_seed

    return run


def _independent(cfg, seeds, tasks_per_seed):
    def run() -> None:
        for seed in seeds:
            result = run_experiment(cfg.with_seed(seed))
            assert result.n_done == result.n_tasks == tasks_per_seed

    return run


@pytest.mark.parametrize("cfg, n_seeds, tasks_per_seed, floor", [
    (ExperimentConfig(exp_id="cost_gates_srun", launcher="srun",
                      workload="null", n_nodes=4, waves=1, seed=0),
     64, 224, MIN_SRUN_SPEEDUP),
    (config_by_id("flux_1", n_nodes=1, waves=2), 32, 112,
     MIN_FLUX_SPEEDUP),
    (config_by_id("dragon", n_nodes=1, waves=2), 32, 112,
     MIN_DRAGON_SPEEDUP),
], ids=["srun", "flux_1", "dragon"])
def test_vectorized_ensemble_speedup(cfg, n_seeds, tasks_per_seed, floor,
                                     emit):
    assert supports_vectorized(cfg)
    seeds = list(range(n_seeds))
    ensemble = _ensemble(cfg, seeds, tasks_per_seed, "vectorized")
    ratios = interleaved(
        _independent(cfg, seeds, tasks_per_seed),
        {"ensemble": lambda: [ensemble() for _ in range(ENSEMBLE_REPEAT)]})
    speedup = ENSEMBLE_REPEAT * certified(
        ratios["ensemble"], floor / ENSEMBLE_REPEAT,
        f"{cfg.launcher} ensemble vs independent", emit)
    emit(f"{cfg.launcher} per-seed speedup {speedup:.1f}x "
         f"(floor {floor:.2f}x)")
    assert speedup >= floor, (
        f"{cfg.launcher} ensemble is only {speedup:.1f}x cheaper per seed "
        f"than independent runs (floor {floor:.2f}x)")


def test_parallel_replay_speedup(emit):
    cfg = config_by_id("flux_n", n_nodes=2, n_partitions=2, waves=1)
    seeds = list(range(128))
    workers = resolve_jobs("auto", n_items=len(seeds))
    if workers < MIN_REPLAY_WORKERS:
        pytest.skip(f"{workers} workers (< {MIN_REPLAY_WORKERS}): no room "
                    f"for a parallel speedup")
    ratios = interleaved(
        _ensemble(cfg, seeds, 112, "replay", parallel=1),
        {"auto": _ensemble(cfg, seeds, 112, "replay")})
    speedup = certified(ratios["auto"], MIN_REPLAY_SPEEDUP,
                        "auto vs serial replay", emit)
    assert speedup >= MIN_REPLAY_SPEEDUP, (
        f"auto-parallel replay is only {speedup:.2f}x faster than serial "
        f"with {workers} workers (floor {MIN_REPLAY_SPEEDUP:.0f}x)")


# -- store legs -------------------------------------------------------------


def test_store_warm_hit_speedup(tmp_path, emit):
    root = tmp_path / "store"

    def cold() -> None:
        shutil.rmtree(root, ignore_errors=True)
        result = run_experiment(STORE_CFG, cache=root)
        assert result.provenance == "fresh"
        assert result.n_done == result.n_tasks == STORE_TASKS

    def warm() -> None:
        for _ in range(WARM_HITS):
            result = run_experiment(STORE_CFG, cache=root)
            assert result.provenance == "cached"
            assert result.n_tasks == STORE_TASKS

    # Each warm round follows a cold one, which left the entry it hits.
    ratios = interleaved(cold, {"warm": warm})["warm"]
    speedup = WARM_HITS * certified(ratios, MIN_WARM_SPEEDUP / WARM_HITS,
                                    "warm hits vs cold run", emit)
    emit(f"store warm-hit speedup {speedup:.0f}x "
         f"(floor {MIN_WARM_SPEEDUP:.0f}x)")
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"a warm store hit is only {speedup:.0f}x cheaper than the cold "
        f"simulation (floor {MIN_WARM_SPEEDUP:.0f}x)")


def test_store_zipf_counts(tmp_path, emit):
    rng = np.random.default_rng(2026)
    seeds = [int(s) % ZIPF_SEED_SPACE
             for s in rng.zipf(ZIPF_EXPONENT, size=ZIPF_REQUESTS)]
    distinct = len(set(seeds))
    cfg = ExperimentConfig(exp_id="cost_gates_zipf", launcher="srun",
                           workload="null", n_nodes=1, waves=1, seed=0)
    store = RunStore(tmp_path / "store")
    before = STATS.snapshot()
    for seed in seeds:
        run_experiment(cfg.with_seed(seed), cache=store)
    delta = STATS.delta(before)
    emit(f"store zipf: {len(seeds)} requests, {distinct} distinct seeds, "
         f"counters {delta}")
    assert delta["hits"] == len(seeds) - distinct
    assert delta["misses"] == distinct
    assert delta["stored"] == distinct
    assert delta["integrity_failures"] == 0


# -- frontier_full ----------------------------------------------------------

#: One scale point in a fresh process, so ``ru_maxrss`` is that point's
#: own peak; the spilling profiler writes to a directory removed after.
_SCALE_CHILD = """\
import json, resource, sys, tempfile, time
from dataclasses import replace
from repro.experiments.configs import frontier_full_configs
from repro.experiments.harness import run_experiment

cfg = replace(frontier_full_configs(waves=1)[int(sys.argv[1])], seed=0)
with tempfile.TemporaryDirectory(prefix="repro-scale-") as spill:
    t0 = time.perf_counter()
    res = run_experiment(cfg, spill_dir=spill)
    wall = time.perf_counter() - t0
print(json.dumps({
    "n_nodes": cfg.n_nodes, "n_partitions": cfg.n_partitions,
    "n_tasks": res.n_tasks, "n_done": res.n_done, "wall_s": wall,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""


def test_frontier_full_budget(emit):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    points = []
    for idx in range(len(FRONTIER_SCALE_POINTS)):
        proc = subprocess.run([sys.executable, "-c", _SCALE_CHILD, str(idx)],
                              capture_output=True, text=True, env=env,
                              check=True)
        point = json.loads(proc.stdout.strip().splitlines()[-1])
        emit(f"{point['n_nodes']:>5} nodes / {point['n_partitions']:>2} "
             f"parts: {point['n_tasks']:>7,} tasks  "
             f"{point['wall_s']:7.1f}s  {point['peak_rss_mb']:6.0f} MB peak")
        assert point["n_done"] == point["n_tasks"], point
        rate = point["n_tasks"] / point["wall_s"]
        assert rate >= MIN_SCALE_RATE[point["n_nodes"]], (
            f"{point['n_nodes']}-node point ran {rate:,.0f} tasks/s "
            f"(floor {MIN_SCALE_RATE[point['n_nodes']]:,.0f})")
        points.append(point)
    full = points[-1]
    assert (full["n_nodes"], full["n_partitions"]) == (9408, 64)
    assert full["wall_s"] <= WALL_BUDGET_S, (
        f"full-machine point took {full['wall_s']:.0f}s "
        f"(budget {WALL_BUDGET_S:.0f}s)")
    assert full["peak_rss_mb"] <= RSS_BUDGET_MB, (
        f"full-machine point peaked at {full['peak_rss_mb']:.0f} MB "
        f"(budget {RSS_BUDGET_MB:.0f} MB)")
