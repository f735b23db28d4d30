"""One benchmark round in a fresh interpreter.

    python -m bench.child SPEC.json REPORT.json

The parent (:mod:`bench.run`) times this process from spawn to exit.
A ``run`` round calls the same public functions as ``python -m
repro.experiments run <exp> --profile <file>``; a ``sweep`` round
serves its whole request stream from one fresh run store.  The report
carries the round's own clock marks, the outcome counts the oracle
checks and, in the traced round, the layer samples, spans and counts.
Clock marks are ``time.perf_counter`` readings, which on Linux come
from the same monotonic clock as the parent's.
"""

import time

T_START = time.perf_counter()

import dataclasses  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


class Marks:
    """First entry into ``Session.run`` and the total time inside it."""

    def __init__(self) -> None:
        self.first = None
        self.inside = 0.0

    def install(self) -> None:
        from repro.core.session import Session

        run = Session.run
        marks = self

        def timed_run(session, until=None):
            t0 = time.perf_counter()
            if marks.first is None:
                marks.first = t0
            try:
                return run(session, until)
            finally:
                marks.inside += time.perf_counter() - t0

        Session.run = timed_run


def store_stats():
    """Process-wide run-store counters.  The process is fresh, so these
    are the round's deltas; a round that never imported the store had
    none."""
    store = sys.modules.get("repro.store")
    return store.STATS.snapshot() if store is not None else {}


def peak_rss_mb() -> float:
    """This process's peak resident set since its ``exec``.  The parent
    cannot use ``wait4``'s ``ru_maxrss`` for this: on Linux that also
    counts the parent's memory, copied or shared at fork time."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_round(spec, workload, marks):
    import repro.analytics
    from repro.experiments.configs import config_by_id
    from repro.experiments.harness import run_experiment

    cfg = dataclasses.replace(
        config_by_id(workload.exp_id, **dict(workload.overrides)),
        seed=spec["seed"])
    result = run_experiment(cfg, keep_session=True)
    repro.analytics.save_profile(result.session.profiler, spec["profile"])
    session = result.session
    return {
        "n_tasks": result.n_tasks,
        "n_done": result.n_done,
        "n_failed": result.n_failed,
        "t_setup": marks.first,
        "run_s": marks.inside,
        "total_cores": cfg.n_nodes * session.cluster.cores_per_node,
        "queue_entries": session.env.snapshot()["seq"],
        "records": len(session.profiler),
    }


def sweep_round(spec, workload):
    from repro.experiments.configs import config_by_id
    from repro.experiments.harness import run_ensemble
    from repro.store import RunStore
    from repro.store.store import result_to_doc

    from .workloads import (
        SWEEP_BLOCK,
        SWEEP_EXPERIMENTS,
        SWEEP_OVERRIDES,
        sweep_stream,
    )

    configs = {exp_id: config_by_id(exp_id, **dict(SWEEP_OVERRIDES))
               for exp_id in SWEEP_EXPERIMENTS}
    stream = sweep_stream(spec["seed"], workload)
    store = RunStore(spec["store"])
    ensembles, latencies = [], []
    t_setup = time.perf_counter()
    for exp_id, first in stream:
        t0 = time.perf_counter()
        ensembles.append(run_ensemble(
            configs[exp_id], seeds=list(range(first, first + SWEEP_BLOCK)),
            cache=store, parallel=1))
        latencies.append(time.perf_counter() - t0)
    members = []
    for (exp_id, _), ens in zip(stream, ensembles):
        for member in ens.members:
            doc = result_to_doc(member.result)
            del doc["wall_seconds"]
            members.append([exp_id, member.seed, member.result.provenance,
                            doc])
    results = [m.result for ens in ensembles for m in ens.members]
    return {
        "n_tasks": sum(r.n_tasks for r in results),
        "n_done": sum(r.n_done for r in results),
        "n_failed": sum(r.n_failed for r in results),
        "t_setup": t_setup,
        "run_s": sum(latencies),
        "latencies_ms": [s * 1e3 for s in latencies],
        "members": members,
    }


def main(argv) -> int:
    spec_path, report_path = argv
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sampler = boundaries = None
    if spec["trace"]:
        from .layers import Sampler

        sampler = Sampler(spec["repro_root"])
        sampler.start()
    from .workloads import KIND_SWEEP, Workload

    workload = Workload(**spec["workload"])
    # The CLI's import set, so that setup time covers what
    # ``python -m repro.experiments`` loads before it runs anything.
    import repro.experiments.__main__  # noqa: F401

    marks = Marks()
    marks.install()
    if sampler is not None:
        from .layers import Boundaries, install

        boundaries = Boundaries()
        install(boundaries, sweep=workload.kind == KIND_SWEEP)
    if workload.kind == KIND_SWEEP:
        report = sweep_round(spec, workload)
    else:
        report = run_round(spec, workload, marks)
    t_last = time.perf_counter()
    report.update(t_start=T_START, t_last=t_last, store=store_stats(),
                  rss_mb=peak_rss_mb())
    if sampler is not None:
        sampler.stop()
        report["trace"] = {
            "self_s": sampler.seconds,
            "spans": boundaries.spans,
            "span_s": {**boundaries.span_seconds(), **boundaries.seconds},
            "counts": boundaries.counts,
        }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
