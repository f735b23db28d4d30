"""Resilience-layer overhead guard (not a paper figure).

One cost is pinned to ``BENCH_resilience.json``: the **checkpoint
overhead** — the kernel-benchmark reference workload run plain and
with durable checkpointing at the default cadence
(``checkpoint_sim_interval=60``).  The budget is <= 10%: a crash-safe
run must stay within a tenth of the unprotected run, or nobody will
leave checkpointing on.

As with the fault-layer guard, wall-clock ratios on a shared machine
are noisy — and they *drift* (rates fall over a session), so plain
and checkpointed rounds are interleaved and each checkpointed round
is judged against its neighboring plain rounds.  When the per-round
overheads disagree by more than the allowance the machine cannot
certify either way and the assertion is skipped — the recorded JSON
tracks the trend across commits either way (see
``tools/bench_gate.py``, which gates ``checkpoint_overhead`` as a
ceiling metric).
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.experiments import ExperimentConfig, run_experiment
from repro.resilience import ResilienceSpec

from .conftest import BENCH_ROUNDS, run_once, write_bench

BENCH_FILE = Path(__file__).resolve().parent.parent / \
    "BENCH_resilience.json"

CFG = ExperimentConfig(exp_id="perf_resilience", launcher="srun",
                       workload="null", n_nodes=64, waves=2, seed=0)

#: The ISSUE's checkpoint budget: crash safety at the default cadence
#: must cost no more than a tenth of the run.
MAX_CHECKPOINT_OVERHEAD = 0.10

#: Noise certificate: allowed spread between the per-round overhead
#: estimates (mirrors the fault-layer benchmark's allowance).
MAX_PLAIN_SPREAD = 0.10


def _rate(resilience) -> float:
    wall0 = time.perf_counter()
    result = run_experiment(CFG, resilience=resilience)
    wall = time.perf_counter() - wall0
    assert result.n_done == result.n_tasks > 0
    return result.n_tasks / wall


def test_checkpoint_overhead(benchmark, emit, tmp_path):
    import statistics

    spec = ResilienceSpec(checkpoint_dir=str(tmp_path / "ckpt"))

    def _measure():
        # Shared machines drift — rates fall monotonically over a
        # session (frequency scaling, cache pressure), so bracketing
        # legs mis-attribute the drift to the checkpoint layer.
        # Interleave instead: p c p c ... p, and compare each
        # checkpointed round against the *average of its neighboring
        # plain rounds*, which cancels linear drift exactly.
        _rate(None)  # warmup
        plain = [_rate(None)]
        overheads = []
        for _ in range(BENCH_ROUNDS):
            checked = _rate(spec)
            plain.append(_rate(None))
            local = (plain[-2] + plain[-1]) / 2.0
            overheads.append(1.0 - checked / local)
        return plain, overheads

    plain, overheads = run_once(benchmark, _measure)
    # Certify from the closest-agreeing pair of rounds: interference
    # only ever *adds* overhead, so a single slow outlier round must
    # not veto an otherwise clean measurement.
    srt = sorted(overheads)
    if len(srt) == 1:
        jitter, overhead = 0.0, max(0.0, srt[0])
    else:
        jitter, lo = min((srt[i + 1] - srt[i], srt[i])
                         for i in range(len(srt) - 1))
        overhead = max(0.0, lo + jitter / 2.0)
    drift = abs(plain[0] - plain[-1]) / max(plain)

    write_bench(BENCH_FILE, {
        "tasks_per_wall_second_plain": statistics.median(plain),
        "checkpoint_overhead": overhead,
        "checkpoint_sim_interval": spec.checkpoint_sim_interval,
        "overhead_per_round": overheads,
        "plain_drift": drift,
        "rounds": BENCH_ROUNDS,
    })

    emit(f"plain: {statistics.median(plain):,.0f} tasks/s  "
         f"checkpoint overhead {overhead:+.1%} at "
         f"{spec.checkpoint_sim_interval:.0f}s sim cadence "
         f"(per-round {', '.join(f'{o:+.1%}' for o in overheads)}; "
         f"plain drift {drift:.1%})\n"
         f"wrote {BENCH_FILE}")

    if jitter > MAX_PLAIN_SPREAD:
        import pytest

        pytest.skip(f"per-round overheads spread by {jitter:.1%} "
                    f"(> {MAX_PLAIN_SPREAD:.0%}); machine too noisy to "
                    f"certify checkpoint overhead")
    assert overhead <= MAX_CHECKPOINT_OVERHEAD, (
        f"checkpointing at the default cadence costs {overhead:.1%} "
        f"(budget {MAX_CHECKPOINT_OVERHEAD:.0%})")

