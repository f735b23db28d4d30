#!/usr/bin/env python3
"""Benchmark regression gate: fresh BENCH_*.json vs committed baselines.

CI regenerates the benchmark JSONs on every run; this script compares
each throughput metric in them against the copy committed at a git
ref (default ``HEAD``) and fails when any rate dropped by more than
the threshold (default 25% — CI runners are shared and noisy, and
the benchmarks already take a median over warmed rounds, so a drop
past that is a real regression, not jitter).

Usage::

    python tools/bench_gate.py                       # all BENCH_*.json
    python tools/bench_gate.py BENCH_kernel.json     # a subset
    python tools/bench_gate.py --ref origin/main --threshold 0.3

Only ``tasks_per_wall_second*``, ``per_seed_speedup*``,
``warm_speedup*`` and ``hit_rate*`` keys are compared (recursively,
so BENCH_scale.json's per-point entries are covered;
BENCH_ensemble.json's ensemble-vs-independent speedup and
BENCH_store.json's cold-vs-warm speedup and memoized hit rate are
gated like rates — a drop means the engine or the store lost its
edge).
``checkpoint_overhead*`` and ``recovery_seconds*`` are **cost**
metrics gated the other way around: they fail when the fresh value
*rises* more than the threshold above the baseline (absolute slack —
costs sit near zero, where ratios explode on noise).  A file or key
missing from the baseline is reported and skipped — new benchmarks
must not fail the gate on the commit that introduces them.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

#: Metric keys compared by the gate (prefix match, tuple form as
#: accepted by ``str.startswith``).  Rates fail when they *drop*,
#: costs fail when they *rise*.  ``warm_speedup`` and ``hit_rate``
#: (BENCH_store.json) gate like rates: a drop means warm store hits
#: got slower relative to cold runs, or the memoized sweep stopped
#: hitting.
METRIC_PREFIX = ("tasks_per_wall_second", "per_seed_speedup",
                 "warm_speedup", "hit_rate")
COST_PREFIX = ("checkpoint_overhead", "recovery_seconds")


def entry_label(entry, index: int) -> str:
    """A content-derived label for one list entry.

    BENCH_scale.json's ``points[]`` entries are labelled by what they
    measure (``9408n64p``), not by position — so reordering points or inserting one in the middle
    compares each point against *its own* baseline instead of its
    neighbour's.  Entries without identifying keys keep the positional
    ``[i]`` form.
    """
    if isinstance(entry, dict) and "n_nodes" in entry:
        label = f"{entry['n_nodes']}n"
        if "n_partitions" in entry:
            label += f"{entry['n_partitions']}p"
        return label
    return f"[{index}]"


def extract_rates(doc, prefix: str = ""
                  ) -> Iterator[Tuple[str, float, str]]:
    """Yield ``(dotted.path, value, kind)`` for every gated metric,
    where ``kind`` is ``"rate"`` or ``"cost"``."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            if not isinstance(value, (int, float)) or isinstance(
                    value, bool):
                yield from extract_rates(value, path)
            elif key.startswith(METRIC_PREFIX):
                yield path, float(value), "rate"
            elif key.startswith(COST_PREFIX):
                yield path, float(value), "cost"
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            label = entry_label(value, i)
            sep = "." if label[0] != "[" else ""
            yield from extract_rates(value, f"{prefix}{sep}{label}"
                                     if sep else f"{prefix}{label}")


def compare(fresh: dict, baseline: dict, threshold: float
            ) -> Tuple[List[str], List[str]]:
    """Compare gated metrics; returns (failures, notes)."""
    failures: List[str] = []
    notes: List[str] = []
    base_rates: Dict[str, float] = {
        path: value for path, value, _ in extract_rates(baseline)}
    for path, rate, kind in extract_rates(fresh):
        base = base_rates.get(path)
        if base is None:
            notes.append(f"{path}: no baseline (new metric), skipped")
            continue
        if kind == "cost":
            # Ceiling gate with absolute slack: costs live near zero,
            # where a ratio gate would flag pure noise.
            line = (f"{path}: {rate:.3f} vs baseline {base:.3f} "
                    f"(ceiling {base + threshold:.3f})")
            if rate > base + threshold:
                failures.append(line)
            else:
                notes.append(line)
            continue
        if base <= 0:
            notes.append(f"{path}: non-positive baseline {base}, skipped")
            continue
        ratio = rate / base
        line = f"{path}: {rate:,.0f} vs baseline {base:,.0f} ({ratio:.2f}x)"
        if ratio < 1.0 - threshold:
            failures.append(line)
        else:
            notes.append(line)
    return failures, notes


def baseline_text(path: Path, ref: str, repo_root: Path) -> str:
    """The file's content at ``ref``, or '' when absent there."""
    rel = path.resolve().relative_to(repo_root.resolve())
    proc = subprocess.run(
        ["git", "show", f"{ref}:{rel.as_posix()}"],
        capture_output=True, text=True, cwd=repo_root)
    return proc.stdout if proc.returncode == 0 else ""


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*",
                        help="benchmark JSONs (default: BENCH_*.json "
                             "at the repo root)")
    parser.add_argument("--ref", default="HEAD",
                        help="git ref holding the baselines "
                             "(default: HEAD)")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="max allowed fractional throughput drop "
                             "(default: 0.25)")
    args = parser.parse_args(argv)

    repo_root = Path(__file__).resolve().parent.parent
    files = ([Path(f) for f in args.files] if args.files
             else sorted(repo_root.glob("BENCH_*.json")))
    if not files:
        print("bench-gate: no BENCH_*.json files found", file=sys.stderr)
        return 2

    any_failures = False
    for path in files:
        if not path.is_file():
            print(f"bench-gate: {path}: missing", file=sys.stderr)
            any_failures = True
            continue
        fresh = json.loads(path.read_text())
        base_text = baseline_text(path, args.ref, repo_root)
        if not base_text:
            print(f"{path.name}: no baseline at {args.ref}, skipped")
            continue
        failures, notes = compare(fresh, json.loads(base_text),
                                  args.threshold)
        for note in notes:
            print(f"{path.name}: {note}")
        for failure in failures:
            print(f"{path.name}: REGRESSION {failure}", file=sys.stderr)
        any_failures = any_failures or bool(failures)

    if any_failures:
        print(f"bench-gate: metrics regressed past the "
              f"{args.threshold:.0%} threshold", file=sys.stderr)
        return 1
    print("bench-gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
