"""Command-line entry point: run Table-1 experiments from a shell.

Usage::

    python -m repro.experiments list
    python -m repro.experiments run flux_1 --nodes 64 --reps 3
    python -m repro.experiments run srun --seeds 0-15 --profile-dir out
    python -m repro.experiments run impeccable_flux --nodes 256
    python -m repro.experiments table1 --waves 1   # quick full sweep
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from ..analytics.report import format_table
from ..exceptions import ConfigurationError, ReproError
from .configs import (
    config_by_id,
    faults_configs,
    frontier_full_configs,
    table1_configs,
)
from .harness import run_ensemble, run_experiment


def _cmd_list(_args: argparse.Namespace) -> int:
    rows = [
        (c.exp_id, c.launcher, c.workload, c.n_nodes, c.n_partitions,
         c.duration)
        for c in table1_configs() + faults_configs() + frontier_full_configs()
    ]
    print(format_table(
        ["exp", "launcher", "workload", "nodes", "partitions", "dur[s]"],
        rows))
    return 0


def _progress_sink(spec: str):
    """Build the telemetry subscriber ``--progress`` asked for.

    ``line`` renders one human-readable status line per record,
    ``jsonl`` one JSON object — both to stderr, so stdout tables and
    shell pipelines stay clean.
    """
    if not spec:
        return None
    from ..observability.telemetry import jsonl_sink, line_sink

    return jsonl_sink() if spec == "jsonl" else line_sink()


def _print_cache(result) -> None:
    """Echo one run's store outcome (``run --cache`` only)."""
    doc = getattr(result, "cache", None)
    if not doc:
        return
    digest = (doc.get("digest") or "")[:12]
    if doc.get("hit"):
        print(f"cache: hit {digest}", file=sys.stderr)
    elif doc.get("stored"):
        print(f"cache: miss {digest} (stored)", file=sys.stderr)
    else:
        print(f"cache: miss {digest} (lost write race)", file=sys.stderr)


def _overrides(args: argparse.Namespace) -> dict:
    """Config fields set by ``--nodes``/``--partitions``/``--waves``.

    Only flags that were given count; an explicit 0 is passed on, so
    config validation rejects it instead of the default running.
    """
    flags = (("nodes", "n_nodes"), ("partitions", "n_partitions"),
             ("waves", "waves"))
    return {field: getattr(args, flag) for flag, field in flags
            if getattr(args, flag, None) is not None}


#: The shapes of ``run``: one seed (``run_experiment``) or a multi-seed
#: sweep (``run_ensemble``).
_SINGLE, _SWEEP = "single run", "--reps/--seeds sweep"
#: The shapes that honour each shape-specific ``run`` flag (by argparse
#: dest).  Any other shape rejects it instead of dropping it silently;
#: flags missing here (--faults, --progress, --cache, ...) apply to all.
_FLAG_SHAPES = {
    "summary": (_SINGLE,), "profile": (_SINGLE,), "spill_dir": (_SINGLE,),
    "bundle": (_SINGLE, _SWEEP),
    "profile_dir": (_SWEEP,), "parallel": (_SWEEP,),
}


def _check_run_flags(args: argparse.Namespace, shape: str) -> None:
    """Reject every given flag that ``shape`` would not honour."""
    for dest, shapes in _FLAG_SHAPES.items():
        value = getattr(args, dest)
        if value is None or value is False or value == "":
            continue
        if shape not in shapes:
            raise ConfigurationError(
                f"--{dest.replace('_', '-')} does not apply to a {shape} "
                f"(only to: {', '.join(shapes)})")


def _report_single(result, args: argparse.Namespace) -> None:
    """Print one finished single run, with the extras its
    ``--bundle``/``--summary``/``--profile`` asked for."""
    cfg = result.config
    _print_cache(result)
    print(format_table(
        ["exp", "nodes", "parts", "tasks", "done", "failed",
         "avg tasks/s", "peak tasks/s", "util", "makespan[s]", "wall[s]"],
        [(cfg.exp_id, cfg.n_nodes, cfg.n_partitions, result.n_tasks,
          result.n_done, result.n_failed, result.throughput.avg,
          result.throughput.peak, result.utilization_cores,
          result.makespan, result.wall_seconds)]))
    if args.bundle:
        print(f"wrote observability bundle to {args.bundle}")
    if result.faults is not None:
        print()
        print(result.faults.to_text())
    if args.summary:
        from ..analytics import summarize
        from ..observability import spans_from_profiler

        total_cores = cfg.n_nodes * result.session.cluster.cores_per_node
        print(summarize(result.tasks, total_cores=total_cores).to_text())
        print(_phase_line(spans_from_profiler(result.session.profiler)))
    if args.profile:
        from ..analytics import save_profile

        n = save_profile(result.session.profiler, args.profile)
        print(f"wrote {n} trace events to {args.profile}")


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = config_by_id(args.exp_id, **_overrides(args))
    if args.faults:
        from dataclasses import replace

        from ..faults import FaultSpec

        cfg = replace(cfg, faults=FaultSpec.parse(args.faults,
                                                  base=cfg.faults))
    bundle = args.bundle or None
    seeds = args.seeds or None
    cache = args.cache or None
    # One run unless told otherwise; an explicit --reps next to --seeds
    # is passed on so the seed resolver rejects the pair, and so is a
    # --reps below 1.
    n_reps = 1 if args.reps is None and not seeds else args.reps
    shape = _SWEEP if seeds or n_reps != 1 else _SINGLE
    _check_run_flags(args, shape)
    progress = _progress_sink(args.progress)
    if shape == _SINGLE:
        result = run_experiment(
            cfg, keep_session=bool(args.summary or args.profile),
            bundle=bundle, spill_dir=args.spill_dir or None,
            progress=progress, cache=cache)
        _report_single(result, args)
        return 0
    ens = run_ensemble(cfg, seeds=seeds, n_reps=n_reps,
                       profile_dir=args.profile_dir or None,
                       parallel=args.parallel, progress=progress,
                       bundle=bundle, cache=cache)
    agg = ens.aggregate()
    # Wall time and store outcome go to stderr: stdout is a pure
    # function of the config and seeds, whatever the worker count.
    if cache:
        provenance = agg.provenance
        print(f"cache: {provenance.get('cached', 0)} hit(s), "
              f"{provenance.get('fresh', 0)} simulated", file=sys.stderr)
    print(f"wall: {ens.wall_seconds_per_seed * 1e3:.3f} ms/seed",
          file=sys.stderr)
    print(format_table(
        ["exp", "nodes", "parts", "seeds", "engine", "avg tasks/s",
         "max tasks/s", "util", "makespan[s]"],
        [(cfg.exp_id, cfg.n_nodes, cfg.n_partitions, agg.n_reps,
          ens.engine, agg.throughput_avg, agg.throughput_max,
          agg.utilization_avg, agg.makespan_avg)]))
    if bundle:
        print(f"wrote ensemble bundle to {bundle}")
    if args.profile_dir:
        print(f"wrote {len(ens.members)} per-seed profiles to "
              f"{args.profile_dir}")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    cfgs = []
    for cfg in table1_configs():
        if args.waves is not None:
            cfg = cfg.scaled(args.waves)
        if cfg.n_nodes > args.max_nodes:
            continue
        cfgs.append(cfg)
    from .parallel import run_many

    def done(_n, _total, r):
        print(f"  done: {r.config.exp_id} @ {r.config.n_nodes} nodes "
              f"({r.wall_seconds:.1f}s wall)", file=sys.stderr)

    results = run_many(cfgs, jobs=args.parallel or 1, progress=done)
    rows = [(cfg.exp_id, cfg.launcher, cfg.n_nodes, cfg.n_partitions,
             r.n_tasks, r.throughput.avg, r.throughput.peak,
             r.utilization_cores, r.makespan)
            for cfg, r in zip(cfgs, results)]
    print(format_table(
        ["exp", "launcher", "nodes", "parts", "tasks", "avg/s", "peak/s",
         "util", "makespan[s]"],
        rows))
    return 0


def _trace_source(path: str):
    """``(manifest, span tree)`` of a bundle directory or profile JSONL.

    The tree is always rebuilt from the profile (``spans.json`` is a
    pure function of it).  ``manifest`` is ``None`` for a bare profile,
    the tree ``None`` for a bundle without one; unreadable input
    raises :class:`ReproError`.
    """
    from pathlib import Path

    from ..analytics import load_events
    from ..observability import read_manifest, spans_from_events

    target = Path(path)
    try:
        if not target.is_dir():
            return None, spans_from_events(load_events(target))
        manifest = read_manifest(target)
        profile = manifest.get("files", {}).get("profile")
        root = spans_from_events(
            load_events(target / profile),
            session_uid=manifest.get("session_uid", "session")
        ) if profile else None
        return manifest, root
    except OSError as exc:
        raise ReproError(f"{exc.filename or path}: "
                         f"{exc.strerror or exc}") from exc
    except ValueError as exc:
        raise ReproError(str(exc)) from exc


def _phase_line(root) -> str:
    """Mean duration and task count of each task phase in a span tree:
    the one phase breakdown ``run --summary`` and ``trace inspect``
    print."""
    from ..observability import phase_rollup

    return "phases:   " + "  ".join(
        f"{name}={stats['mean']:.3f}s×{int(stats['count'])}"
        for name, stats in phase_rollup(root).items())


def _cmd_trace(args: argparse.Namespace) -> int:
    from ..observability import validate_chrome_trace, write_chrome_trace

    if args.trace_command == "inspect":
        manifest, root = _trace_source(args.bundle)
        if manifest is None:
            raise ReproError(f"{args.bundle}: not a bundle directory")
        print(f"bundle:   {args.bundle} (v{manifest.get('bundle_version')})")
        print(f"session:  {manifest.get('session_uid', '?')}  "
              f"seed {manifest.get('seed', '?')}")
        cfg = manifest.get("config") or {}
        if cfg:
            print(f"config:   {cfg.get('exp_id')} — {cfg.get('launcher')} "
                  f"@ {cfg.get('n_nodes')} nodes")
        res = manifest.get("result") or {}
        if res:
            print(f"result:   {res.get('n_done')}/{res.get('n_tasks')} done, "
                  f"{res.get('throughput_avg', 0.0):.1f} tasks/s avg, "
                  f"makespan {res.get('makespan', 0.0):.1f}s")
        print(f"files:    {', '.join(sorted(manifest.get('files', {})))}")
        if root is not None:
            print(_phase_line(root))
        return 0

    if args.trace_command == "watch":
        from pathlib import Path

        from ..observability.telemetry import (
            read_telemetry,
            render_progress_line,
        )

        target = Path(args.bundle)
        path = target / "telemetry.jsonl" if target.is_dir() else target
        if not path.exists():
            print(f"error: no telemetry at {path} (run with --progress "
                  "or --bundle to record some)", file=sys.stderr)
            return 1
        records = read_telemetry(path)
        for record in records:
            print(render_progress_line(record))
        print(f"{len(records)} telemetry records from {path}")
        return 0

    if args.trace_command == "critical":
        from ..analytics import critical_path, format_critical_path

        _manifest, root = _trace_source(args.bundle)
        if root is None:
            raise ReproError(f"{args.bundle}: bundle has no profile")
        steps = critical_path(root)
        print(format_critical_path(steps))
        if steps:
            gate = max(steps, key=lambda s: s.exclusive)
            print(f"\ncritical path: {len(steps)} levels, "
                  f"{steps[0].duration:.3f}s end to end; largest "
                  f"exclusive contribution {gate.exclusive:.3f}s "
                  f"at {gate.cat}:{gate.name}")
        return 0

    if args.trace_command == "export":
        import json

        _manifest, root = _trace_source(args.profile)
        if root is None:
            raise ReproError(f"{args.profile}: bundle has no profile")
        path = write_chrome_trace(root, args.out)
        doc = json.loads(path.read_text(encoding="utf-8"))
        problems = validate_chrome_trace(doc)
        n = len(doc["traceEvents"])
        if problems:
            for p in problems:
                print(f"invalid: {p}", file=sys.stderr)
            return 1
        print(f"wrote {n} trace events to {path} "
              f"(open in https://ui.perfetto.dev)")
        return 0
    return 2  # pragma: no cover


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run the paper's experiments on the simulated stack.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list Table-1 configurations")

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("exp_id", help="experiment id (see 'list')")
    p_run.add_argument("--nodes", type=int, default=None)
    p_run.add_argument("--partitions", type=int, default=None)
    p_run.add_argument("--waves", type=int, default=None)
    p_run.add_argument("--reps", type=int, default=None)
    p_run.add_argument("--parallel", nargs="?", const="auto", default=None,
                       metavar="N",
                       help="fan a --reps/--seeds sweep out over N "
                            "worker processes (bare flag = one per core; "
                            "unset, a replay-engine sweep of 4 or more "
                            "seeds uses one per core)")
    p_run.add_argument("--faults", default="", metavar="SPEC",
                       help="fault injection spec, key=value pairs "
                            "(e.g. mtbf=1800,p_launch_fail=0.01,"
                            "max_attempts=5); layered over the "
                            "config's own spec if it has one")
    p_run.add_argument("--summary", action="store_true",
                       help="print the per-backend session summary and "
                       "the task phases of the run's profile")
    p_run.add_argument("--profile", default="",
                       help="write the trace profile to this JSONL file")
    p_run.add_argument("--bundle", default="",
                       help="write the observability bundle (manifest, "
                            "spans, Perfetto trace, profile, telemetry) "
                            "to this directory")
    p_run.add_argument("--progress", nargs="?", const="line", default="",
                       choices=["line", "jsonl"], metavar="FMT",
                       help="stream live telemetry to stderr while the "
                            "run executes: 'line' (default) renders one "
                            "status line per record, 'jsonl' one JSON "
                            "object (the machine feed); same-seed "
                            "results are identical with or without it")
    p_run.add_argument("--spill-dir", default="", metavar="DIR",
                       help="stream the trace to chunked files under "
                            "DIR, bounding profiler memory")
    p_run.add_argument("--seeds", default="", metavar="SPEC",
                       help="explicit seed list, e.g. 1,2,5-20 "
                            "(default: cfg.seed + rep for --reps "
                            "repetitions; not both)")
    p_run.add_argument("--profile-dir", default="", metavar="DIR",
                       help="with --reps/--seeds: export each seed's "
                            "trace to DIR/profile-seed<seed>.jsonl")
    p_run.add_argument("--cache", default="", metavar="DIR",
                       help="memoize runs through a content-addressed "
                            "store rooted at DIR: an exact match "
                            "(config, seed, workload, code version) is "
                            "delivered without simulating; misses "
                            "populate the store, so a re-run sweep "
                            "simulates only its missing seeds (see the "
                            "'store' subcommand)")

    p_t1 = sub.add_parser("table1", help="run the full Table-1 sweep")
    p_t1.add_argument("--waves", type=int, default=None)
    p_t1.add_argument("--max-nodes", type=int, default=1024)
    p_t1.add_argument("--parallel", nargs="?", const="auto", default=None,
                      metavar="N",
                      help="run the sweep's configurations over N worker "
                           "processes (bare flag = one per core)")

    p_fig = sub.add_parser(
        "figures", help="regenerate paper figures as CSV data files")
    p_fig.add_argument("--out", default="results",
                       help="output directory (default: results/)")
    p_fig.add_argument("--only", nargs="*", default=None,
                       help="figure ids (default: all), e.g. fig4 fig6")
    p_fig.add_argument("--quick", action="store_true",
                       help="reduced scales for a fast smoke run")

    from ..store.cli import add_store_parser

    add_store_parser(sub)

    p_tr = sub.add_parser(
        "trace", help="observability bundles and Perfetto traces")
    tr_sub = p_tr.add_subparsers(dest="trace_command", required=True)
    tr_ins = tr_sub.add_parser(
        "inspect", help="summarize a bundle's manifest and phases")
    tr_ins.add_argument("bundle", help="bundle directory")
    tr_exp = tr_sub.add_parser(
        "export", help="convert a profile JSONL into a Perfetto trace")
    tr_exp.add_argument("profile", help="profile JSONL file")
    tr_exp.add_argument("--out", default="trace.json",
                        help="output trace file (default: trace.json)")
    tr_watch = tr_sub.add_parser(
        "watch", help="render a run's recorded telemetry stream")
    tr_watch.add_argument("bundle",
                          help="bundle directory or telemetry.jsonl file")
    tr_crit = tr_sub.add_parser(
        "critical", help="extract the critical path from the span tree "
                         "rebuilt from a bundle's (or a bare) profile")
    tr_crit.add_argument("bundle",
                         help="bundle directory or profile JSONL file")

    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "table1":
            return _cmd_table1(args)
        if args.command == "store":
            from ..store.cli import cmd_store

            return cmd_store(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "figures":
            from .figures import export_figures

            written = export_figures(args.out, figures=args.only,
                                     quick=args.quick)
            for path in written:
                print(f"wrote {path}")
            return 0
    except ReproError as exc:
        # Configuration and stack errors are user errors, not crashes:
        # one line on stderr, non-zero exit, no traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
