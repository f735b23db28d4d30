"""The benchmark's parent: fresh-process rounds, an oracle, metrics.

    python3 -m bench run [--workload NAME ...] [--seed N] [--seconds S]
                         [--trace 0|1] [--out FILE]

Per workload: one discarded warm-up round, then timed rounds until
``--seconds`` are used up (at least :data:`MIN_ROUNDS`), then, with
``--trace 1``, one traced round.  Every round is a fresh child process
(:mod:`bench.child`); rounds run one at a time, and the parent times
each from spawn to exit.  Every round is checked outside its timed
region.  The program prints every metric by name and unit; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or
with ``--trace 1`` the per-layer ones).  It exits with 1 when an
operation failed and with 2 when there is no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .layers import LAYERS
from .workloads import (
    KIND_RUN,
    SWEEP_BLOCK,
    WORKLOADS,
    Workload,
    sweep_expected,
    sweep_stream,
)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Where children keep their bytecode between runs, and where each run
#: keeps its profiles and stores until it ends.  Both are inside the
#: checkout and ignored by git.
PYCACHE = ROOT / ".bench_build" / "pycache"
TMP_PARENT = ROOT / ".bench_tmp"
#: Result digests pinned for one seed, per workload.
PINNED = Path(__file__).resolve().parent / "pinned.json"

DEFAULT_SECONDS = 25
#: Fewest timed rounds per workload, however long they take.
MIN_ROUNDS = 5
#: A child still running after this long is killed and fails its round.
ROUND_TIMEOUT = 120.0
#: Iterations of :func:`probe`, and the probe time that defines the
#: reference speed timings are scaled to (about this host's best).
PROBE_ITERATIONS = 40_000
PROBE_REF_S = 0.035


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which an end-to-end metric may
    #: worsen before a change counts as a regression.
    bound: Optional[float] = None


#: What a user of the simulator waits for and pays.  A request is one
#: ``run`` of the experiment in the ``run`` workloads (so a round's
#: request quantiles are its wall there) and one ``run_ensemble`` call
#: in ``sweep_store``.  How timings are estimated: :func:`end_to_end_metrics`.
END_TO_END = (
    Metric("wall_s", "s", "lower", 0.24),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("tasks_per_s", "1/s", "higher", 0.24),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
    Metric("req_p50_ms", "ms", "lower", 0.24),
    Metric("req_p90_ms", "ms", "lower", 0.24),
)

#: Boundary spans, reported as a share of the traced round's wall.
SPANS = ("experiments.session_build", "core.submit_pilots",
         "experiments.build_workload", "core.submit_tasks",
         "core.session_run", "analytics.metrics", "analytics.export",
         "platform.try_place", "ensemble.run_ensemble",
         "ensemble.vectorized", "store.digest", "store.load", "store.put")
#: Exact counts; each repeats from run to run for a given seed.
COUNTS = ("platform.try_place.calls", "sim.queue_entries",
          "analytics.profiler.records", "flux.submit.calls",
          "flux.match.calls", "flux.least_loaded.calls",
          "dragon.submit.calls", "core.agent.place.calls",
          "core.agent.route.calls", "sim.random.draws", "store.misses",
          "store.integrity_failures")

#: Where the traced round's wall time went.  Layer and span times are
#: shares of that wall: a layer a workload never enters reads 0 % there.
PER_LAYER = (
    tuple(Metric(f"{layer}.self_pct", "%", "lower") for layer in LAYERS)
    + (Metric("trace.coverage_pct", "%", "higher"),)
    + tuple(Metric(f"{span}_pct", "%", "lower") for span in SPANS)
    + (Metric("process.startup_s", "s", "lower"),
       Metric("process.teardown_s", "s", "lower"),
       Metric("trace.wall_s", "s", "lower"),
       Metric("trace_overhead", "ratio", "lower"))
    + tuple(Metric(name, "count", "lower") for name in COUNTS)
    + (Metric("store.hits", "count", "higher"),
       Metric("store.hit_ratio", "ratio", "higher"))
)


def child_env(tmp: Path) -> Dict[str, str]:
    """The environment of every round: the repository's sources, a
    fixed hash seed, temp files under ``tmp``, a persistent bytecode
    cache, and single-threaded numeric libraries."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", TMPDIR=str(tmp),
               PYTHONPYCACHEPREFIX=str(PYCACHE), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


@dataclass
class Round:
    """One child process: its timings and what the oracle found."""

    wall: float = 0.0
    setup: float = 0.0
    startup: float = 0.0
    teardown: float = 0.0
    rate: float = 0.0
    rss_mb: float = 0.0
    requests_ms: Tuple[float, ...] = ()
    ops: int = 1
    failed_ops: int = 0
    problems: Tuple[str, ...] = ()
    report: Optional[dict] = None


def spawn(argv: List[str], env: Dict[str, str], log_path: Path):
    """Run one child to exit.  Returns ``(seconds from spawn to exit,
    spawn time, exit code)``."""
    with open(log_path, "wb") as log:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
        # A blocking wait, not Popen.wait(timeout), which polls and
        # would add its polling delay to the wall; the timer bounds it.
        watchdog = threading.Timer(ROUND_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            proc.wait()
            t_exit = time.perf_counter()
        finally:
            watchdog.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return t_exit - t_spawn, t_spawn, proc.returncode


def sha256_file(path: Path) -> str:
    hasher = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            hasher.update(chunk)
    return hasher.hexdigest()


def check_run(report: dict, profile: Path) -> Tuple[str, List[str]]:
    """Digest and problems of a ``run`` round."""
    problems = []
    if report["n_done"] != report["n_tasks"] or report["n_failed"]:
        problems.append(f"{report['n_done']}/{report['n_tasks']} tasks "
                        f"done, {report['n_failed']} failed")
    moved = {k: v for k, v in report["store"].items() if v}
    if moved:
        problems.append(f"run-store counters moved: {moved}")
    return sha256_file(profile), problems


def check_sweep(report: dict, workload: Workload, seed: int
                ) -> Tuple[str, List[str], int]:
    """Digest, round problems and failed requests of a ``sweep`` round.

    Every request that repeats an earlier one must be served entirely
    from the store and every first request must miss entirely; a store
    hit must return the same document the miss stored.  A request that
    breaks this fails alone; the round's problems fail all of them.
    The digest covers each distinct member's result document once.
    """
    repeats = sweep_expected(sweep_stream(seed, workload))
    members = report["members"]
    problems = []
    if len(members) != len(repeats) * SWEEP_BLOCK:
        return "", [f"{len(members)} members for {len(repeats)} "
                    "requests"], len(repeats)
    failed = 0
    docs: Dict[Tuple[str, int], str] = {}
    for i, repeat in enumerate(repeats):
        block = members[i * SWEEP_BLOCK:(i + 1) * SWEEP_BLOCK]
        want = "cached" if repeat else "fresh"
        wrong = any(provenance != want for _, _, provenance, _ in block)
        for exp_id, seed_, _, doc in block:
            text = json.dumps(doc, sort_keys=True)
            if docs.setdefault((exp_id, seed_), text) != text:
                wrong = True
        failed += wrong
    if report["n_done"] != report["n_tasks"] or report["n_failed"]:
        problems.append(f"{report['n_done']}/{report['n_tasks']} member "
                        f"tasks done, {report['n_failed']} failed")
    n_repeats = sum(repeats)
    want = {"hits": n_repeats * SWEEP_BLOCK,
            "misses": (len(repeats) - n_repeats) * SWEEP_BLOCK,
            "stored": (len(repeats) - n_repeats) * SWEEP_BLOCK,
            "integrity_failures": 0}
    got = {key: report["store"].get(key, 0) for key in want}
    if got != want:
        problems.append(f"store counters {got}, expected {want}")
    digest = hashlib.sha256(json.dumps(
        sorted([exp_id, seed_, text] for (exp_id, seed_), text
               in docs.items())).encode("utf-8")).hexdigest()
    return digest, problems, failed


def validate_profile(path: Path, total_cores: int) -> List[str]:
    """Trace invariants of an exported profile (conservation, monotone
    timestamps, exec intervals, capacity), via ``validate_trace``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.analytics import Profiler, load_events, validate_trace

    profiler = Profiler(None)
    for ev in load_events(path):
        profiler.record_event(ev.entity, ev.name, ev.meta, at=ev.time)
    return [str(v) for v in validate_trace(profiler, total_cores)]


class Rounds:
    """The rounds of one workload at one seed, in one temp root."""

    def __init__(self, workload: Workload, seed: int, tmp: Path,
                 reference: Optional[str] = None) -> None:
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.env = child_env(tmp)
        #: The digest every round must reproduce: the pinned one, or
        #: else the first round's.
        self.reference = reference
        self._n = 0

    def round(self, traced: bool = False) -> Round:
        self._n += 1
        base = self.tmp / f"round-{self._n}"
        profile = base.with_suffix(".jsonl")
        spec = {"workload": asdict(self.workload), "seed": self.seed,
                "trace": traced, "repro_root": str(SRC / "repro"),
                "profile": str(profile), "store": str(base) + "-store"}
        spec_path = base.with_suffix(".spec.json")
        report_path = base.with_suffix(".report.json")
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        wall, t_spawn, code = spawn(
            [sys.executable, "-m", "bench.child", str(spec_path),
             str(report_path)], self.env, base.with_suffix(".log"))
        n_ops = self.workload.requests
        if code != 0 or not report_path.exists():
            log = base.with_suffix(".log").read_text(errors="replace")
            return Round(wall=wall, ops=n_ops, failed_ops=n_ops, problems=(
                f"child exited with {code}: {log[-2000:]}",))
        report = json.loads(report_path.read_text(encoding="utf-8"))
        if self.workload.kind == KIND_RUN:
            digest, problems = check_run(report, profile)
            failed = 0
            requests = (wall * 1e3,)
        else:
            digest, problems, failed = check_sweep(report, self.workload,
                                                   self.seed)
            requests = tuple(report["latencies_ms"])
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            problems.append(f"digest {digest[:16]} differs from the "
                            f"reference {self.reference[:16]}")
        if traced and self.workload.kind == KIND_RUN:
            problems.extend(validate_profile(profile, report["total_cores"]))
        profile.unlink(missing_ok=True)
        failed_ops = n_ops if problems else failed
        if failed:
            problems.append(f"{failed} requests served the wrong way or "
                            "returned a document that differs from the "
                            "store's")
        return Round(
            wall=wall,
            setup=report["t_setup"] - t_spawn,
            startup=report["t_start"] - t_spawn,
            teardown=t_spawn + wall - report["t_last"],
            rate=report["n_done"] / report["run_s"],
            rss_mb=report["rss_mb"],
            requests_ms=requests,
            ops=n_ops,
            failed_ops=failed_ops,
            problems=tuple(problems),
            report=report)


def probe() -> float:
    """Seconds for a fixed pure-Python loop of the kind the simulator
    runs (heap pushes and pops, tuple, dict and string churn): the
    host's current speed, measured between rounds."""
    t0 = time.perf_counter()
    heap: list = []
    table: dict = {}
    for i in range(PROBE_ITERATIONS):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        table[i & 1023] = (i, str(i))
        if len(heap) > 512:
            heapq.heappop(heap)
    return time.perf_counter() - t0


def quantile(values: List[float], p: int) -> float:
    """The ``p``-th percentile (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def stat(values: List[float], raw: float, scale: float = 1.0) -> dict:
    """One metric: ``value`` is the estimate ``raw`` scaled to the
    reference speed, reported with ``raw`` itself and the median,
    quartiles and count of the per-round ``values``."""
    return {"value": raw * scale, "raw": raw,
            "median": quantile(values, 50), "q1": quantile(values, 25),
            "q3": quantile(values, 75), "n": len(values)}


def end_to_end_metrics(good: List[Round], probes: List[float]) -> dict:
    """The end-to-end metrics of the timed rounds.

    The host's noise only ever slows code down, and it drifts over
    minutes (see README), so timings are best-of estimates: the best
    round's wall and rate, and each request's best latency over the
    rounds (every round replays the same requests).  Set-up time is the
    median round's.  All are scaled from the best speed the probe saw
    during the run to the reference speed.
    """
    if not good:
        return {m.name: {"value": 0.0, "raw": 0.0, "n": 0}
                for m in END_TO_END}
    speed = PROBE_REF_S / min(probes)
    walls = [r.wall for r in good]
    setups = [r.setup for r in good]
    rates = [r.rate for r in good]
    rss = [r.rss_mb for r in good]
    best_requests = [min(request) for request in
                     zip(*(r.requests_ms for r in good))]
    out = {
        "wall_s": stat(walls, min(walls), speed),
        "setup_s": stat(setups, statistics.median(setups), speed),
        "tasks_per_s": stat(rates, max(rates), 1 / speed),
        "peak_rss_mb": stat(rss, statistics.median(rss)),
    }
    for p in (50, 90):
        out[f"req_p{p}_ms"] = stat(
            [quantile(r.requests_ms, p) for r in good],
            quantile(best_requests, p), speed)
    return out


def layer_metrics(traced: Round, untraced_wall: float) -> Dict[str, float]:
    """The per-layer metrics of the traced round."""
    report = traced.report
    trace = report["trace"]
    wall = traced.wall
    out = {f"{layer}.self_pct": 100 * trace["self_s"][layer] / wall
           for layer in LAYERS}
    sampled = sum(trace["self_s"].values())
    out["trace.coverage_pct"] = (100 * (sampled + traced.startup
                                        + traced.teardown) / wall)
    for span in SPANS:
        out[f"{span}_pct"] = 100 * trace["span_s"].get(span, 0.0) / wall
    out["process.startup_s"] = traced.startup
    out["process.teardown_s"] = traced.teardown
    out["trace.wall_s"] = wall
    out["trace_overhead"] = wall / untraced_wall - 1
    store = report["store"]
    hits, misses = store.get("hits", 0), store.get("misses", 0)
    counts = {**trace["counts"],
              "sim.queue_entries": report.get("queue_entries", 0),
              "analytics.profiler.records": report.get("records", 0),
              "store.hits": hits, "store.misses": misses,
              "store.integrity_failures": store.get("integrity_failures", 0)}
    for name in COUNTS + ("store.hits",):
        out[name] = counts.get(name, 0)
    out["store.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            pinned: Optional[str] = None,
            min_rounds: int = MIN_ROUNDS) -> dict:
    """Run one workload's rounds and return its metrics and checks."""
    TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=TMP_PARENT))
    try:
        rounds = Rounds(workload, seed, tmp, reference=pinned)
        warm = rounds.round()
        timed: List[Round] = []
        probes: List[float] = []
        t0 = time.perf_counter()
        while len(timed) < min_rounds or (
                time.perf_counter() - t0
                + statistics.median(r.wall for r in timed) <= seconds):
            probes.append(probe())
            timed.append(rounds.round())
            if timed[-1].report is None:
                break
        probes.append(probe())
        traced = rounds.round(traced=True) if trace else None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass  # another run's temp root is still there
    every = [warm, *timed] + ([traced] if traced is not None else [])
    good = [r for r in timed if r.report is not None]
    end_to_end = end_to_end_metrics(good, probes)
    for metric in END_TO_END:
        end_to_end[metric.name]["unit"] = metric.unit
    per_layer = {}
    if traced is not None and traced.report is not None and good:
        values = layer_metrics(traced,
                               statistics.median(r.wall for r in good))
        per_layer = {m.name: {"value": values[m.name], "unit": m.unit}
                     for m in PER_LAYER}
    return {
        "workload": workload.name,
        "seed": seed,
        "rounds": len(good),
        "attempted": sum(r.ops for r in every),
        "failed": sum(r.failed_ops for r in every),
        "problems": [p for r in every for p in r.problems],
        "digest": rounds.reference,
        "probe_s": {"best": min(probes),
                    "median": statistics.median(probes), "n": len(probes)},
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "spans": (traced.report["trace"]["spans"]
                  if per_layer else []),
    }


def render(result: dict) -> List[str]:
    """Human-readable lines for one workload's result."""
    lines = [f"# {result['workload']}  seed {result['seed']}  "
             f"{result['rounds']} timed rounds  "
             f"{result['failed']}/{result['attempted']} operations failed  "
             f"digest {(result['digest'] or '-')[:16]}"]
    for problem in result["problems"]:
        lines.append(f"!  {problem}")
    probe_s = result["probe_s"]
    lines.append(f"speed probe  best {probe_s['best']:.6g} s  median "
                 f"{probe_s['median']:.6g} s  (reference {PROBE_REF_S} s)")
    for metric in END_TO_END:
        entry = result["end_to_end"][metric.name]
        lines.append(f"{metric.name:<12} {entry['value']:>10.6g} "
                     f"{metric.unit:<4} raw {entry['raw']:.6g}  rounds: "
                     f"median {entry.get('median', 0):.6g}  "
                     f"q1 {entry.get('q1', 0):.6g}  "
                     f"q3 {entry.get('q3', 0):.6g}  n={entry['n']}  "
                     f"bound {metric.bound:.0%}  ({metric.better} is better)")
    for name, entry in result["per_layer"].items():
        lines.append(f"{name:<36} {entry['value']:>12.6g} {entry['unit']}")
    return lines


def _terminate(signum, frame):
    # Unwind through the ``finally`` blocks: the running child is
    # killed and the temp root removed.
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m bench",
        description="Fresh-process benchmark of the simulator.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="measure workloads")
    p_run.add_argument("--workload", action="extend", nargs="+",
                       choices=sorted(WORKLOADS), metavar="NAME",
                       help="workloads to run (default: all of "
                            f"{', '.join(WORKLOADS)})")
    p_run.add_argument("--seed", type=int, default=0,
                       help="input seed (default 0, whose profile "
                            "digests are pinned)")
    p_run.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                       help="timed rounds per workload stop starting "
                            "once this budget would be exceeded "
                            f"(default {DEFAULT_SECONDS})")
    p_run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                       help="1: add a traced round and report the "
                            "per-layer metrics")
    p_run.add_argument("--out", default="",
                       help="also write every result, with quartiles "
                            "and spans, to this JSON file")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no {SRC / 'repro'} to measure", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    # The parent imports the sources too, to validate traced profiles.
    sys.pycache_prefix = str(PYCACHE)
    pins = json.loads(PINNED.read_text(encoding="utf-8"))
    names = args.workload or list(WORKLOADS)
    results = []
    for name in names:
        pinned = (pins["digests"].get(name)
                  if args.seed == pins["seed"] else None)
        result = measure(WORKLOADS[name], args.seed, args.seconds,
                         bool(args.trace), pinned)
        results.append(result)
        print("\n".join(render(result)), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds,
             "results": results}, indent=1) + "\n", encoding="utf-8")
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for result in results:
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        for name, entry in result[section].items():
            metrics[prefix + name] = {"value": entry["value"],
                                      "unit": entry["unit"]}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1
