"""The ``store`` CLI: inspect and maintain a run store from a shell.

Wired into ``python -m repro.experiments`` as a subcommand::

    python -m repro.experiments store ls /path/to/store
    python -m repro.experiments store get /path/to/store 3fa9c1 --out d/
    python -m repro.experiments store query /path/to/store \\
        launcher=flux 'n_nodes>=64' --near 3fa9c1 -k 3
    python -m repro.experiments store gc /path/to/store --max-bytes 1e9
    python -m repro.experiments store verify /path/to/store

``ls``/``query``/``get`` print human tables by default and machine
JSON with ``--json``; ``verify`` exits non-zero when any blob fails
its integrity check, so CI can gate on it directly.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List, Sequence

from ..exceptions import StoreError
from . import query as q
from .store import RunStore

#: Filter operators accepted in ``key<op>value`` tokens, longest
#: first so ``>=`` is not split as ``>`` + ``=value``.
_TOKEN_OPS = ((">=", "ge"), ("<=", "le"), ("!=", "ne"),
              ("==", "eq"), (">", "gt"), ("<", "lt"), ("=", "eq"))


def _coerce(text: str) -> Any:
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            continue
    if text in ("true", "false"):
        return text == "true"
    return text


def parse_filters(tokens: Sequence[str]) -> Dict[str, Any]:
    """``["launcher=flux", "n_nodes>=64"]`` → a ``query(where=)`` dict."""
    where: Dict[str, Any] = {}
    for token in tokens:
        for symbol, name in _TOKEN_OPS:
            if symbol in token:
                field, value = token.split(symbol, 1)
                if not field:
                    break
                key = field if name == "eq" else f"{field}__{name}"
                where[key] = _coerce(value)
                break
        else:
            raise StoreError(
                f"bad filter {token!r}; expected key=value or "
                "key>=value / key<=value / key!=value / key<value / "
                "key>value")
    return where


def _age(stamp) -> str:
    """Time since ``stamp`` (epoch seconds), e.g. ``3m``."""
    if not stamp:
        return "?"
    seconds = max(time.time() - float(stamp), 0.0)
    for unit, span in (("d", 86400.0), ("h", 3600.0), ("m", 60.0)):
        if seconds >= span:
            return f"{seconds / span:.0f}{unit}"
    return f"{seconds:.0f}s"


def _row(doc: Dict[str, Any]) -> tuple:
    cfg = doc.get("config") or doc
    result = doc.get("result") or {}
    throughput = result.get("throughput") or {}
    return (
        doc["digest"][:12],
        cfg.get("exp_id"),
        cfg.get("launcher"),
        cfg.get("n_nodes"),
        cfg.get("n_partitions"),
        doc.get("seed"),
        f"{throughput.get('avg', 0.0):,.0f}" if throughput else "-",
        f"{result.get('makespan', 0.0):.1f}" if result else "-",
        _age(doc.get("created")),
    )


_HEADER = ["digest", "exp", "launcher", "nodes", "parts", "seed",
           "avg tasks/s", "makespan[s]", "age"]


def _print_table(rows: List[tuple], header: List[str]) -> None:
    from ..analytics.report import format_table

    print(format_table(header, rows))


def cmd_store(args: argparse.Namespace) -> int:
    store = RunStore(args.store_dir)
    command = args.store_command

    if command == "ls":
        rows = store.entries()
        if args.json:
            print(json.dumps(rows, indent=2, sort_keys=True))
            return 0
        table = [(r["digest"][:12], r.get("exp_id"), r.get("launcher"),
                  r.get("n_nodes"), r.get("n_partitions"), r.get("seed"),
                  f"{(r.get('bytes') or 0) / 1024.0:,.0f}",
                  _age(r.get("last_access")), _age(r.get("created")))
                 for r in rows]
        _print_table(table, ["digest", "exp", "launcher", "nodes", "parts",
                             "seed", "KiB", "used", "age"])
        print(f"{len(rows)} run(s) in {store.root}")
        return 0

    if command == "get":
        cached = store.get(args.digest)
        if cached is None:
            print(f"error: no store entry matches {args.digest!r}",
                  file=sys.stderr)
            return 1
        if args.out:
            written = store.export(cached.digest, args.out)
            for name in sorted(written):
                print(f"wrote {written[name]}")
            return 0
        doc = {"digest": cached.digest, "entry": cached.entry,
               "result": cached.result_doc}
        if args.json:
            print(json.dumps(doc, indent=2, sort_keys=True, default=repr))
            return 0
        _print_table([_row({"digest": cached.digest,
                            "config": cached.entry.get("config", {}),
                            "seed": cached.entry.get("seed"),
                            "created": cached.entry.get("created"),
                            "result": cached.result_doc})], _HEADER)
        return 0

    if command == "query":
        where = parse_filters(args.filters)
        if args.compare:
            rows = q.compare(store, args.compare)
            if args.json:
                print(json.dumps(rows, indent=2, sort_keys=True))
                return 0
            header = ["metric"] + [d[:12] for d in args.compare]
            table = [[r["metric"]] + [f"{v:,.3f}" for v in r["values"]]
                     for r in rows]
            _print_table(table, header)
            return 0
        if args.near:
            pairs = q.nearest(store, args.near, k=args.k, where=where or None)
            if args.json:
                print(json.dumps(
                    [dict(doc, distance=dist) for doc, dist in pairs],
                    indent=2, sort_keys=True))
                return 0
            _print_table([_row(doc) + (f"{dist:.3f}",)
                          for doc, dist in pairs],
                         _HEADER + ["distance"])
            return 0
        docs = q.query(store, where=where or None, limit=args.limit)
        if args.json:
            print(json.dumps(docs, indent=2, sort_keys=True))
            return 0
        _print_table([_row(doc) for doc in docs], _HEADER)
        print(f"{len(docs)} matching run(s)")
        return 0

    if command == "gc":
        max_bytes = int(args.max_bytes) if args.max_bytes else None
        evicted = store.gc(max_bytes=max_bytes,
                           max_entries=args.max_entries)
        for digest in evicted:
            print(f"evicted {digest[:12]}")
        print(f"{len(evicted)} entry(ies) evicted, "
              f"{len(store.entries())} kept")
        return 0

    if command == "verify":
        problems = store.verify()
        for problem in problems:
            print(f"corrupt: {problem}", file=sys.stderr)
        n = len(store.entries())
        if problems:
            print(f"store verify: {len(problems)} problem(s) across "
                  f"{n} entry(ies)", file=sys.stderr)
            return 1
        print(f"store verify: ok ({n} entry(ies))")
        return 0

    return 2  # pragma: no cover - argparse enforces the choices


def add_store_parser(subparsers) -> None:
    """Attach the ``store`` subcommand tree to the experiments CLI."""
    p_store = subparsers.add_parser(
        "store", help="inspect and maintain a content-addressed run "
                      "store (see run --cache)")
    store_sub = p_store.add_subparsers(dest="store_command", required=True)

    def common(p):
        p.add_argument("store_dir", help="store root directory")

    p_ls = store_sub.add_parser("ls", help="list stored runs")
    common(p_ls)
    p_ls.add_argument("--json", action="store_true",
                      help="machine-readable summary rows")

    p_get = store_sub.add_parser(
        "get", help="show one stored run (or export its artifacts)")
    common(p_get)
    p_get.add_argument("digest", help="run digest (unambiguous prefix ok)")
    p_get.add_argument("--out", default="",
                       help="export profile/result/entry into this "
                            "directory")
    p_get.add_argument("--json", action="store_true",
                       help="print the full entry + result documents")

    p_query = store_sub.add_parser(
        "query", help="filter runs by config fields, compare metric "
                      "profiles, or rank nearest neighbours")
    common(p_query)
    p_query.add_argument("filters", nargs="*",
                         help="config/metric filters, e.g. launcher=flux "
                              "'n_nodes>=64' 'throughput_avg>1000'")
    p_query.add_argument("--near", default="", metavar="DIGEST",
                         help="rank stored runs by metric-space distance "
                              "to this run")
    p_query.add_argument("-k", type=int, default=5,
                         help="neighbours to return with --near "
                              "(default 5)")
    p_query.add_argument("--compare", nargs="+", default=None,
                         metavar="DIGEST",
                         help="side-by-side metric table for two or "
                              "more runs")
    p_query.add_argument("--limit", type=int, default=None,
                         help="cap the number of matches returned")
    p_query.add_argument("--json", action="store_true",
                         help="machine-readable documents")

    p_gc = store_sub.add_parser(
        "gc", help="evict least-recently-used entries down to a cap")
    common(p_gc)
    p_gc.add_argument("--max-bytes", type=float, default=None,
                      help="total artifact size cap (bytes; "
                           "scientific notation ok)")
    p_gc.add_argument("--max-entries", type=int, default=None,
                      help="entry count cap")

    p_verify = store_sub.add_parser(
        "verify", help="integrity-check every stored artifact")
    common(p_verify)
