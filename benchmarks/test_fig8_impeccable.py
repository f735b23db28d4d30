"""Fig. 8 — IMPECCABLE at scale: srun vs Flux backends.

Paper (dummy 180 s tasks, 256 and 1024 Frontier nodes):

=============  ========  =========  ==========================
backend        nodes     makespan   CPU/GPU utilization
=============  ========  =========  ==========================
srun           256       ~26,000 s  30 % / 20 %
srun           1024      ~44,000 s  15 % / 14 %
flux           256       ~22,000 s  68 % / 33 %
flux           1024      ~17,500 s  69 % / 43 %
=============  ========  =========  ==========================

Tasks: ~550 at 256 nodes, ~1800 at 1024 nodes (1-7,168 cores, up to
1,024 GPUs).  The panels plot running-task concurrency and the
execution start rate over time.
"""

from __future__ import annotations

import numpy as np

from repro.analytics import (
    backlog_series,
    concurrency_series,
    start_rate_series,
)
from repro.analytics.report import format_series, format_table
from repro.experiments import ExperimentConfig, run_experiment

from .conftest import run_once

PAPER = {
    ("srun", 256): dict(makespan=26_000, cpu=0.30, gpu=0.20),
    ("srun", 1024): dict(makespan=44_000, cpu=0.15, gpu=0.14),
    ("flux", 256): dict(makespan=22_000, cpu=0.68, gpu=0.33),
    ("flux", 1024): dict(makespan=17_500, cpu=0.69, gpu=0.43),
}


def test_fig8_impeccable_campaign(benchmark, emit):
    results = {}

    def sweep():
        for launcher in ("srun", "flux"):
            for nodes in (256, 1024):
                cfg = ExperimentConfig(
                    exp_id=f"impeccable_{launcher}", launcher=launcher,
                    workload="impeccable", n_nodes=nodes)
                results[(launcher, nodes)] = run_experiment(
                    cfg, keep_session=True)
        return results

    run_once(benchmark, sweep)

    rows = []
    for key, paper in PAPER.items():
        r = results[key]
        rows.append((key[0], key[1], r.n_tasks,
                     paper["makespan"], round(r.makespan),
                     paper["cpu"], round(r.utilization_cores, 2),
                     paper["gpu"], round(r.utilization_gpus, 2)))
    emit("Fig. 8: IMPECCABLE campaign, srun vs Flux\n" + format_table(
        ["backend", "nodes", "tasks", "paper mkspan", "mkspan[s]",
         "paper cpu", "cpu util", "paper gpu", "gpu util"], rows))

    for (launcher, nodes), r in results.items():
        conc = concurrency_series(r.tasks, resolution=120.0)
        rate = start_rate_series(r.tasks, bin_width=120.0)
        emit(format_series(conc.times, conc.values,
                           label=f"{launcher}@{nodes}n running tasks")
             + "\n"
             + format_series(rate.times, rate.values,
                             label=f"{launcher}@{nodes}n start rate [/s]"))

    # Task counts near the paper's ~550 / ~1800.
    assert 430 <= results[("flux", 256)].n_tasks <= 700
    assert 1400 <= results[("flux", 1024)].n_tasks <= 2300
    # Ordering: Flux beats srun on makespan at 1024 nodes, decisively.
    assert (results[("flux", 1024)].makespan
            < 0.7 * results[("srun", 1024)].makespan)
    # Flux utilization beats srun's at 1024 nodes.
    assert (results[("flux", 1024)].utilization_cores
            > results[("srun", 1024)].utilization_cores)
    # Flux at 1024 nodes is faster than Flux at 256 (scaling works).
    assert (results[("flux", 1024)].makespan
            < results[("flux", 256)].makespan)
    # srun at 1024 is slower than srun at 256 (launch path degrades).
    assert (results[("srun", 1024)].makespan
            > results[("srun", 256)].makespan)
    # Makespan magnitudes within a factor-of-two of the paper.
    for key, paper in PAPER.items():
        measured = results[key].makespan
        assert 0.4 * paper["makespan"] <= measured <= 2.0 * paper["makespan"], \
            (key, measured)
    # "The number of running tasks consistently trails the number of
    # scheduled tasks, with the gap widening at 1024 nodes" (§4.2):
    # time-integrated scheduling backlog per task is far larger under
    # srun than under Flux at 1024 nodes.
    def backlog_per_task(result):
        series = backlog_series(result.session.profiler, resolution=60.0)
        if series.values.size == 0:
            return 0.0
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        return float(trapezoid(series.values,
                               series.times)) / result.n_tasks

    srun_backlog = backlog_per_task(results[("srun", 1024)])
    flux_backlog = backlog_per_task(results[("flux", 1024)])
    assert srun_backlog > 2 * flux_backlog
