"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper and
prints the measured rows next to the paper-reported values.  The
pytest-benchmark fixture times the *harness run* (one round — the
simulations are deterministic); the scientific output is the printed
table, echoed to stdout with ``-s`` or captured in the benchmark
report.  ``test_cost_gates.py`` is the exception: it gates what
features cost as ratios measured in one session and times its own
rounds.
"""

from __future__ import annotations

import os

import pytest

#: Worker-process count for :func:`repetitions` below, taken from the
#: ``REPRO_BENCH_PARALLEL`` environment variable (``auto`` = one per
#: core, an integer = that many workers).  Unset means serial — the
#: benchmarks time identically to the paper-reproduction runs unless
#: parallelism is asked for explicitly.
BENCH_PARALLEL = os.environ.get("REPRO_BENCH_PARALLEL")


def run_once(benchmark, fn):
    """Benchmark a deterministic simulation exactly once."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def repetitions(cfg, n_reps):
    """``run_repetitions`` honoring ``REPRO_BENCH_PARALLEL``.

    Parallel and serial aggregates are identical (each repetition is
    an independent seeded simulation); only wall time differs.
    """
    from repro.experiments import run_repetitions

    return run_repetitions(cfg, n_reps=n_reps, parallel=BENCH_PARALLEL)


@pytest.fixture
def emit(capsys):
    """Print through pytest's capture so tables land in the report."""

    def _emit(text: str) -> None:
        with capsys.disabled():
            print()
            print(text)

    return _emit
