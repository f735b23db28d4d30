"""Trace persistence: dump/load profiles as JSON lines.

RADICAL-Analytics operates on profile files written by RP at runtime;
this module provides the equivalent round-trip so traces can be
archived and analysed offline (``save_profile`` after a run,
``load_events`` in the analysis notebook/script).

Profiles start with a one-line schema header
(``{"format": "repro-profile", "version": 2}``); the loader also
accepts headerless version-1 files written before the header existed.
Metadata values survive the trip even when they are not plain JSON:
non-finite floats (``inf`` walltimes, ``nan`` placeholders) are
encoded as ``{"__nonfinite__": ...}`` markers, numpy scalars collapse
to their Python values, and anything else falls back to ``repr`` so a
single exotic value cannot make a whole profile unwritable.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path
from typing import Any, List, Union

from .events import TraceEvent
from .profiler import Profiler

PathLike = Union[str, Path]

#: Schema identifier in the profile header line.
PROFILE_FORMAT = "repro-profile"

#: Current profile schema version (1 = headerless legacy files).
PROFILE_VERSION = 2

_NONFINITE_KEY = "__nonfinite__"

#: The record encoder, built once: ``json.dumps`` with keyword
#: arguments constructs a fresh ``JSONEncoder`` on every call.
_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False)

#: How the encoder spells a float, subclasses included (the template's
#: ``time``; ``_encode_str`` is its string spelling).
float_repr = float.__repr__
_INF = float("inf")

#: The schema line every profile starts with.
PROFILE_HEADER = json.dumps({"format": PROFILE_FORMAT,
                             "version": PROFILE_VERSION},
                            sort_keys=True) + "\n"

#: A record line's opening, before its entity's string spelling.
_ENTITY_OPEN = '{"entity": '
#: A record line's end, after its time digits.
RECORD_END = "}\n"

#: Entries each of :func:`write_event_lines`' memos (metas, event
#: names) holds before it starts over; bounds memory when every record
#: has its own meta.
_MEMO_LIMIT = 64


def _sanitize(value: Any) -> Any:
    """Make one value JSON-encodable without information loss.

    Non-finite floats become ``{"__nonfinite__": "nan"|"inf"|"-inf"}``
    markers (plain JSON has no spelling for them), numpy scalars are
    unwrapped via ``.item()``, containers recurse, and unknown types
    degrade to their ``repr`` rather than failing the export.
    """
    if isinstance(value, float):
        if math.isfinite(value):
            return value
        if math.isnan(value):
            return {_NONFINITE_KEY: "nan"}
        return {_NONFINITE_KEY: "inf" if value > 0 else "-inf"}
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_sanitize(v) for v in value]
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return _sanitize(item())
        except (TypeError, ValueError):
            pass
    return repr(value)


def _restore(value: Any) -> Any:
    """Undo :func:`_sanitize`'s non-finite markers."""
    if isinstance(value, dict):
        if len(value) == 1 and _NONFINITE_KEY in value:
            return float(value[_NONFINITE_KEY])
        return {k: _restore(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_restore(v) for v in value]
    return value


def entity_field(entity: str) -> str:
    """A plain record line's start: ``{"entity": "<entity>"``."""
    return _ENTITY_OPEN + _encode_str(entity)


def meta_field(meta) -> str:
    """A record's ``, "meta": {...}`` field: the encoder's spelling of
    ``meta``, or of its :func:`_sanitize` copy when plain JSON cannot
    spell it."""
    try:
        encoded = _ENCODER.encode(meta)
    except (ValueError, TypeError):
        encoded = _ENCODER.encode(_sanitize(meta))
    return ', "meta": ' + encoded


def name_field(name: str) -> str:
    """A plain record's ``, "name": "<name>", "time": `` tail; the
    time's :data:`float_repr` and :data:`RECORD_END` follow it."""
    return ', "name": ' + _encode_str(name) + ', "time": '


def write_event_lines(fh, events) -> int:
    """Serialize trace events to ``fh``, one JSON object per line.

    The record encoder of every profiler-backed export: full-profile
    export and the streaming profiler's spill chunks both write
    through here, which is what makes chunk files verbatim slices of a
    profile.  The vectorized ensemble engine spells its task records
    from column arrays with the same field helpers
    (:func:`entity_field`, :func:`meta_field`, :func:`name_field`) and
    encodes its captured bootstrap records here.  Returns the number
    of lines written.

    Every line is byte-identical to ``_ENCODER.encode(record)`` (with
    the :func:`_sanitize` retry) for ``record = {"time", "entity",
    "name", "meta"}``: sorted keys, ``", "``/``": "`` separators,
    ASCII-escaped strings.  A plain record — ``entity`` and ``name``
    exactly ``str``, ``time`` a finite float (``numpy.float64``
    included: the C encoder prints float subclasses with
    ``float.__repr__`` too) — is spelled from the field helpers instead
    of walking the dict; anything else takes the encoder.  Encoded metas
    are memoized by identity, so the few meta dicts that every task
    record shares (see
    :meth:`~repro.analytics.profiler.Profiler.task_meta`) are encoded
    about once each.  Each memo entry holds its meta,
    so a freed dict's id cannot alias it, and the memo is cleared
    every ``_MEMO_LIMIT`` entries, so per-record metas keep memory
    flat.  A recorded meta is read-only (see :class:`TraceEvent`).
    """
    encode = _ENCODER.encode
    write = fh.write
    # Module names bound locally, and entity_field inlined: a lookup
    # or call per record would cost the hot loop.
    entity_open, encode_str = _ENTITY_OPEN, _encode_str
    spell_time, end = float_repr, RECORD_END
    spell_meta, inf, limit = meta_field, _INF, _MEMO_LIMIT
    metas: dict = {}
    names: dict = {}
    meta_get, name_get = metas.get, names.get
    count = 0
    for time, entity, name, meta in events:
        if (type(entity) is str and type(name) is str
                and isinstance(time, float) and -inf < time < inf):
            cached = meta_get(id(meta))
            if cached is None or cached[0] is not meta:
                if len(metas) >= limit:
                    metas.clear()
                cached = metas[id(meta)] = (meta, spell_meta(meta))
            tail = name_get(name)
            if tail is None:
                if len(names) >= limit:
                    names.clear()
                tail = names[name] = name_field(name)
            write(entity_open + encode_str(entity) + cached[1]
                  + tail + spell_time(time) + end)
        else:
            record = {"time": time, "entity": entity, "name": name,
                      "meta": meta}
            try:
                line = encode(record)
            except (ValueError, TypeError):
                line = encode(_sanitize(record))
            write(line + "\n")
        count += 1
    return count


def iter_event_lines(fh, contains: str = None):
    """Parse profile record lines from ``fh`` into trace events.

    The loader twin of :func:`write_event_lines` (no header handling):
    used by the streaming profiler to re-read its spill chunks.

    ``contains`` is a raw-line prefilter: lines without that substring
    are skipped *before* JSON decoding, which is what makes filtered
    queries over spilled chunks cheap (decoding dominates re-read
    cost).  It may over-match — e.g. the substring appearing inside a
    meta value — so callers still check the decoded field; it must
    never under-match, so build it in the spelling
    :func:`write_event_lines` guarantees — ASCII-escaped strings,
    ``": "`` and ``", "`` separators, sorted keys — e.g.
    ``'"name": ' + json.dumps(name)`` (see :meth:`Profiler._named`).
    """
    for line in fh:
        if contains is not None and contains not in line:
            continue
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        yield TraceEvent(
            time=float(record["time"]),
            entity=str(record["entity"]),
            name=str(record["name"]),
            meta=_restore(dict(record.get("meta", {}))),
        )


def write_profile_lines(fh, chunks, events) -> int:
    """Write a profile: the schema header, then the record lines of
    the spill ``chunks`` verbatim, then ``events``.

    Chunks are already in the record format, so copying them before
    the in-memory tail is byte-identical to encoding every record.
    The header does not count toward the returned number of records.
    """
    fh.write(PROFILE_HEADER)
    count = 0
    for chunk in chunks:
        with chunk.open("r", encoding="utf-8") as src:
            for line in src:
                fh.write(line)
                count += 1
    return count + write_event_lines(fh, events)


def write_profile(fh, profiler: Profiler) -> int:
    """Write a whole profile to the text handle ``fh``.

    The single source of the profile wire format: :func:`save_profile`
    writes through it into a file, and the run store into memory.  A
    streaming (spill-to-disk) profiler's chunks are copied verbatim
    (see :func:`write_profile_lines`), so the output is byte-identical
    to an in-memory profiler's, without materializing the trace.
    """
    if getattr(profiler, "spilling", False):
        return write_profile_lines(fh, profiler.spilled_chunks,
                                   profiler._events)
    return write_profile_lines(fh, (), profiler)


def save_profile(profiler: Profiler, path: PathLike) -> int:
    """Write every trace event as one JSON object per line
    (:func:`write_profile`'s format); returns the number of events.

    The write is crash-safe: the profile is staged to a temp file in
    the target directory and atomically renamed into place, so a kill
    mid-export leaves either the previous profile or the new one —
    never a truncated file (see :mod:`repro.resilience.atomic`).
    """
    from ..resilience.atomic import atomic_writer

    with atomic_writer(Path(path), encoding="utf-8") as fh:
        return write_profile(fh, profiler)


def load_events(path: PathLike) -> List[TraceEvent]:
    """Read a JSON-lines profile back into trace events (in file order).

    Accepts current (headered) and legacy (headerless) profiles; a
    header from a *newer* schema than this code understands raises so
    half-parsed data never masquerades as a clean load.
    """
    path = Path(path)
    events: List[TraceEvent] = []
    first = True
    with path.open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if first:
                    first = False
                    if (isinstance(record, dict)
                            and record.get("format") == PROFILE_FORMAT):
                        version = record.get("version")
                        if not isinstance(version, int) \
                                or version > PROFILE_VERSION:
                            raise ValueError(
                                f"unsupported profile version {version!r}")
                        continue
                events.append(TraceEvent(
                    time=float(record["time"]),
                    entity=str(record["entity"]),
                    name=str(record["name"]),
                    meta=_restore(dict(record.get("meta", {}))),
                ))
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(
                    f"{path}:{line_no}: malformed profile record: {exc}"
                ) from exc
    return events
