"""Differential property: the template record encoder vs ``json.dumps``.

``write_event_lines`` spells plain records from a string template and
memoizes encoded metas by identity; everything else goes through the
JSON encoder with the ``_sanitize`` retry.  The contract is that every
line equals, byte for byte, the reference
``json.dumps(record, sort_keys=True, allow_nan=False)`` (retried on the
sanitized record), whatever the event: odd time types, non-finite
times, non-ASCII or non-str entities, metas shared by many records,
metas that only encode after sanitizing, and transient metas whose ids
the allocator reuses once they are freed.
"""

import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics.events import TraceEvent
from repro.analytics.export import _sanitize, write_event_lines


class _Exotic:
    """Not JSON-encodable; ``_sanitize`` degrades it to its repr."""

    def __repr__(self):
        return "<exotic é>"


class _ReprFloat(float):
    """A float subclass whose own repr the encoder must ignore."""

    def __repr__(self):
        return "not-a-float"


def reference_line(ev):
    record = {"time": ev.time, "entity": ev.entity, "name": ev.name,
              "meta": ev.meta}
    try:
        line = json.dumps(record, sort_keys=True, allow_nan=False)
    except (ValueError, TypeError):
        line = json.dumps(_sanitize(record), sort_keys=True,
                          allow_nan=False)
    return line + "\n"


def encoded_lines(events):
    buf = io.StringIO()
    count = write_event_lines(buf, events)
    lines = buf.getvalue().split("\n")
    assert lines.pop() == ""
    assert count == len(lines)
    return [line + "\n" for line in lines]


finite = st.floats(allow_nan=False, allow_infinity=False)
times = st.one_of(
    finite,
    finite.map(np.float64),
    finite.map(_ReprFloat),
    st.integers(min_value=-2**40, max_value=2**40),
    st.booleans(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"),
                     np.float64("nan"), np.float64("inf")]),
)
texts = st.text(max_size=12)
entities = st.one_of(texts, texts, st.integers(), st.none(),
                     finite.map(np.float64))
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), texts,
    st.floats(),                                  # nan and +-inf too
    st.integers(min_value=-2**31, max_value=2**31).map(np.int64),
    st.floats(width=32).map(np.float32),
    st.just(_Exotic()),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(texts, inner, max_size=3)),
    max_leaves=6)
metas = st.dictionaries(st.one_of(texts, st.integers()), values,
                        max_size=4)

#: Metas shared by identity across many records, like the task
#: lifecycle payloads.
SHARED = ({"cores": 1, "gpus": 0, "mode": "exec"},
          {"cores": 1, "gpus": 0},
          {"backend": "flux", "cores": 1, "gpus": 0},
          {"walltime": float("inf")})

records = st.tuples(times, entities, texts,
                    st.one_of(metas, st.sampled_from(SHARED)))


@settings(max_examples=200, deadline=None)
@given(st.lists(records, max_size=150))
def test_template_encoder_matches_json_dumps(specs):
    events = [TraceEvent(*spec) for spec in specs]
    assert encoded_lines(events) == [reference_line(ev) for ev in events]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(times, texts, texts, metas), max_size=300))
def test_transient_metas_from_a_generator(specs):
    """Every meta is a fresh dict that dies once written, so the
    allocator hands its id to a later record's meta; the sequence
    number makes every meta's encoding differ from its predecessors'."""
    def generate():
        for seq, (time, entity, name, meta) in enumerate(specs):
            yield TraceEvent(time, entity, name, {**meta, "seq": seq})

    assert encoded_lines(generate()) == [
        reference_line(ev) for ev in generate()]


def test_freed_meta_id_does_not_alias_its_encoding():
    # Shrunk from the transient-meta property run against a memo whose
    # entries did not hold their meta: the third dict reuses the first
    # one's freed id.
    def generate():
        for seq in range(3):
            yield TraceEvent(0.0, "", "", {"seq": seq})

    assert encoded_lines(generate()) == [
        reference_line(ev) for ev in generate()]
