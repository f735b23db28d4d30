#!/usr/bin/env python3
"""Compare two ``python3 -m bench run --out`` documents: parent vs change.

Usage::

    python3 tools/bench_compare.py PARENT.json CHANGE.json

Both documents should come from the same host in the same job, so the
comparison is between two commits, not two machines.  For every
workload of the parent and every end-to-end metric declared in
``BENCHMARK.json`` it prints the change, and it exits 1 when a metric is
worse than the parent's by more than its declared bound (a share of the
parent's value), when the change failed more operations than the
parent, or when the change lacks one of the parent's workloads.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Optional

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def regressions(parent: dict, change: dict, spec: dict) -> List[str]:
    """Print every comparison; return the ones past their bound."""
    found = []
    results = {r["workload"]: r for r in change["results"]}
    for base in parent["results"]:
        name = base["workload"]
        head = results.get(name)
        if head is None:
            found.append(f"{name}: missing from the change")
            continue
        if head["failed"] > base["failed"]:
            found.append(f"{name}: {head['failed']} failed operations "
                         f"(parent {base['failed']})")
        for metric in spec["end_to_end"]:
            was = base["end_to_end"][metric["name"]]["value"]
            now = head["end_to_end"][metric["name"]]["value"]
            delta = (now - was) / was if was else 0.0
            worse = delta if metric["better"] == "lower" else -delta
            line = (f"{name}.{metric['name']}: {was:.6g} -> {now:.6g} "
                    f"{metric['unit']} ({delta:+.1%}, bound "
                    f"{metric['bound']:.0%}, {metric['better']} is better)")
            print(line)
            if worse > metric["bound"]:
                found.append(line)
    return found


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: bench_compare.py PARENT.json CHANGE.json",
              file=sys.stderr)
        return 2
    parent, change = (json.loads(Path(a).read_text(encoding="utf-8"))
                      for a in args)
    found = regressions(parent, change,
                        json.loads(SPEC.read_text(encoding="utf-8")))
    for line in found:
        print(f"REGRESSION {line}", file=sys.stderr)
    print(f"bench-compare: {len(found)} regressions" if found
          else "bench-compare: ok")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
