"""Exporters: Perfetto/Chrome ``trace_event`` JSON and telemetry JSONL.

``chrome_trace`` turns a span tree into the Trace Event Format that
both ``chrome://tracing`` and https://ui.perfetto.dev open directly:
complete (``"ph": "X"``) events with microsecond timestamps, one
process per backend group and one thread per task, plus metadata
records naming them.  ``validate_chrome_trace`` is the schema check
the tests (and the CLI's ``trace inspect``) run against any produced
document.  ``write_telemetry`` writes the bundle's
``telemetry.jsonl``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..resilience.atomic import atomic_write_text, atomic_writer
from .spans import CAT_PHASE, CAT_TASK, Span

PathLike = Union[str, Path]

#: Trace Event Format phase codes we emit.
_PH_COMPLETE = "X"
_PH_METADATA = "M"


def chrome_trace(root: Span, time_unit: float = 1e6) -> Dict[str, Any]:
    """Convert a span tree to a Chrome/Perfetto trace document.

    Sim-time seconds are scaled by ``time_unit`` into the format's
    microsecond timestamps.  Track layout: the session, pilots and
    backend instances live on process 0 ("runtime"); each backend
    group becomes its own process with one thread (track) per task, so
    Perfetto renders per-backend task Gantt lanes with the four
    lifecycle phases nested inside each task slice.
    """
    events: List[Dict[str, Any]] = []
    pids: Dict[str, int] = {}
    tids: Dict[int, Dict[str, int]] = {}

    def pid_for(group: str) -> int:
        pid = pids.get(group)
        if pid is None:
            pid = len(pids)
            pids[group] = pid
            tids[pid] = {}
            events.append({
                "name": "process_name", "ph": _PH_METADATA, "pid": pid,
                "tid": 0, "args": {"name": group},
            })
        return pid

    def tid_for(pid: int, track: str) -> int:
        lanes = tids[pid]
        tid = lanes.get(track)
        if tid is None:
            tid = len(lanes)
            lanes[track] = tid
        return tid

    def emit(span: Span, pid: int, tid: int) -> None:
        end = span.end if span.end is not None else span.start
        args = {k: v for k, v in span.attrs.items() if v is not None}
        events.append({
            "name": span.name,
            "cat": span.cat,
            "ph": _PH_COMPLETE,
            "ts": span.start * time_unit,
            "dur": (end - span.start) * time_unit,
            "pid": pid,
            "tid": tid,
            "args": args,
        })

    runtime_pid = pid_for("runtime")

    def walk(span: Span, group: Optional[str]) -> None:
        if span.cat == "backend_group":
            group = span.name
            pid_for(group)
        elif span.cat == CAT_TASK and group is not None:
            pid = pids[group]
            tid = tid_for(pid, span.name)
            emit(span, pid, tid)
            for phase in span.children:
                if phase.cat == CAT_PHASE:
                    emit(phase, pid, tid)
            return  # phases handled; tasks have no deeper structure
        else:
            emit(span, runtime_pid, tid_for(runtime_pid, span.cat))
        for child in span.children:
            walk(child, group)

    walk(root, None)
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"generator": "repro.observability"}}


def validate_chrome_trace(doc: Dict[str, Any]) -> List[str]:
    """Check a document against the trace_event schema we rely on.

    Returns a list of human-readable violations (empty = valid): the
    shape Perfetto's JSON importer requires — ``traceEvents`` array,
    per-event ``name``/``ph``/``ts``/``pid``/``tid`` with the right
    types, a ``dur`` on complete events, and non-negative times.
    """
    problems: List[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "B", "E", "M", "C", "i"):
            problems.append(f"{where}: unsupported ph {ph!r}")
            continue
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            problems.append(f"{where}: missing name")
        for field in ("pid", "tid"):
            if not isinstance(ev.get(field), int):
                problems.append(f"{where}: {field} not an int")
        if ph == _PH_METADATA:
            if not isinstance(ev.get("args"), dict):
                problems.append(f"{where}: metadata event without args")
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: bad ts {ts!r}")
        if ph == _PH_COMPLETE:
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: bad dur {dur!r}")
        if "args" in ev and not isinstance(ev["args"], dict):
            problems.append(f"{where}: args not an object")
    return problems


def write_chrome_trace(root: Span, path: PathLike) -> Path:
    """Export a span tree as a Perfetto-openable JSON file."""
    path = Path(path)
    doc = chrome_trace(root)
    problems = validate_chrome_trace(doc)
    if problems:  # pragma: no cover - internal consistency guard
        raise ValueError(f"invalid trace produced: {problems[:3]}")
    atomic_write_text(path, json.dumps(doc))
    return path


# ---------------------------------------------------------------------------
# Telemetry
# ---------------------------------------------------------------------------


def write_telemetry(records, path: PathLike) -> Path:
    """Write telemetry records as JSONL (the bundle's
    ``telemetry.jsonl``) — the same stream ``run --progress jsonl``
    prints live, so ``trace watch`` replays either identically."""
    path = Path(path)
    with atomic_writer(path, encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return path
