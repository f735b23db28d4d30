"""Streaming (spill-to-disk) profiler: bounded memory, identical data.

A profiler given a ``spill_dir`` flushes its in-memory tail to
chunked JSONL files every ``spill_threshold`` records.  Everything
observable must match the in-memory profiler: query results, event
counts, iteration order, and — most strictly — the bytes
:func:`save_profile` writes.
"""

import pytest

from repro.analytics.export import load_events, save_profile
from repro.analytics.profiler import PROBE_STRIDE, Profiler
from repro.sim import Environment


def _fill(profiler, n=100):
    """Record a deterministic mix of events at distinct times."""
    for i in range(n):
        profiler.record(f"task.{i % 7}", f"ev_{i % 3}", at=float(i),
                        index=i, tag=f"t{i % 5}")


@pytest.fixture
def twins(tmp_path):
    """An in-memory profiler and a spilling one fed identical events."""
    env = Environment()
    mem = Profiler(env)
    spill = Profiler(env, spill_dir=tmp_path / "chunks", spill_threshold=16)
    _fill(mem)
    _fill(spill)
    return mem, spill


class TestSpillMechanics:
    def test_chunks_written_and_tail_bounded(self, twins):
        _, spill = twins
        assert spill.spilling
        assert len(spill.spilled_chunks) == 100 // 16
        assert len(spill._events) < 16
        assert all(p.is_file() for p in spill.spilled_chunks)

    def test_flush_forces_tail_out(self, twins):
        _, spill = twins
        spill.flush()
        assert not spill._events
        assert len(spill) == 100

    def test_flush_on_empty_tail_is_noop(self, tmp_path):
        p = Profiler(Environment(), spill_dir=tmp_path, spill_threshold=8)
        p.flush()
        assert p.spilled_chunks == []

    def test_non_spilling_profiler_reports_so(self):
        assert not Profiler(Environment()).spilling


class TestQueryEquivalence:
    def test_len_and_iteration_order(self, twins):
        mem, spill = twins
        assert len(spill) == len(mem) == 100
        assert list(spill) == list(mem)

    def test_events_named(self, twins):
        mem, spill = twins
        for name in ("ev_0", "ev_1", "ev_2", "missing"):
            assert spill.events_named(name) == mem.events_named(name)

    def test_events_for_entity(self, twins):
        mem, spill = twins
        for entity in ("task.0", "task.6", "missing"):
            assert spill.events_for(entity) == mem.events_for(entity)

    def test_times_first_last(self, twins):
        mem, spill = twins
        assert list(spill.times("ev_1")) == list(mem.times("ev_1"))
        assert spill.first("ev_2") == mem.first("ev_2")
        assert spill.last("ev_2") == mem.last("ev_2")
        assert spill.first("missing") is None

    def test_duration_and_timeline(self, twins):
        mem, spill = twins
        assert spill.timeline("task.3") == mem.timeline("task.3")
        assert (spill.duration("task.3", "ev_0", "ev_1")
                == mem.duration("task.3", "ev_0", "ev_1"))

    def test_needle_inside_meta_value_does_not_leak(self, tmp_path):
        """The raw-line prefilter may over-match (the needle appearing
        inside a meta value); the decoded-field check must drop it."""
        p = Profiler(Environment(), spill_dir=tmp_path, spill_threshold=1)
        p.record("e1", "real_name", at=0.0)
        p.record("e2", "other", at=1.0, note='"name": "real_name"')
        assert [ev.entity for ev in p.events_named("real_name")] == ["e1"]


class TestExportEquivalence:
    def test_save_profile_bytes_match(self, twins, tmp_path):
        mem, spill = twins
        pm, ps = tmp_path / "mem.jsonl", tmp_path / "spill.jsonl"
        assert save_profile(mem, pm) == save_profile(spill, ps) == 100
        assert pm.read_bytes() == ps.read_bytes()

    def test_in_memory_export_matches_file(self, twins, tmp_path):
        """The run store's in-memory encoding writes the same bytes."""
        from repro.store.store import export_profile_bytes

        mem, spill = twins
        path = tmp_path / "mem.jsonl"
        save_profile(mem, path)
        assert export_profile_bytes(mem) == path.read_bytes()
        assert export_profile_bytes(spill) == path.read_bytes()

    def test_save_profile_roundtrips(self, twins, tmp_path):
        _, spill = twins
        path = tmp_path / "p.jsonl"
        save_profile(spill, path)
        assert load_events(path) == list(spill)

    def test_export_after_flush_is_identical(self, twins, tmp_path):
        mem, spill = twins
        spill.flush()
        pm, ps = tmp_path / "mem.jsonl", tmp_path / "spill.jsonl"
        save_profile(mem, pm)
        save_profile(spill, ps)
        assert pm.read_bytes() == ps.read_bytes()

    def test_nonfinite_meta_survives_spill(self, tmp_path):
        env = Environment()
        mem, spill = Profiler(env), Profiler(env, spill_dir=tmp_path,
                                             spill_threshold=1)
        for p in (mem, spill):
            p.record("e", "n", at=0.0, walltime=float("inf"))
        assert spill.events_named("n") == mem.events_named("n")
        assert spill.events_named("n")[0].meta["walltime"] == float("inf")


class TestProbe:
    """The telemetry probe rides the spill threshold's one compare."""

    @pytest.mark.parametrize("spill_threshold", [None, 1, 1000, 5000])
    def test_fires_once_per_stride(self, tmp_path, spill_threshold):
        kwargs = ({} if spill_threshold is None else
                  {"spill_dir": tmp_path, "spill_threshold": spill_threshold})
        p = Profiler(Environment(), **kwargs)
        fired = []
        p.attach_probe(lambda: fired.append(len(p)))
        _fill(p, 3 * PROBE_STRIDE + 5)
        assert fired == [PROBE_STRIDE, 2 * PROBE_STRIDE, 3 * PROBE_STRIDE]
        if spill_threshold is not None:
            assert len(p.spilled_chunks) == len(p) // spill_threshold

    def test_flush_keeps_the_stride(self, tmp_path):
        p = Profiler(Environment(), spill_dir=tmp_path, spill_threshold=64)
        fired = []
        p.attach_probe(lambda: fired.append(len(p)))
        _fill(p, 100)
        p.flush()
        _fill(p, PROBE_STRIDE)
        assert fired == [PROBE_STRIDE]

    def test_unarmed_threshold_is_infinite(self):
        assert Profiler(Environment())._mark == float("inf")
