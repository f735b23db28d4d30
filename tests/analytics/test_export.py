"""Tests for profile export/import round-trips."""

import pytest

from repro.analytics import Profiler, load_events, save_profile
from repro.sim import Environment


class TestRoundTrip:
    def test_save_and_load(self, env, tmp_path):
        profiler = Profiler(env)
        env._now = 1.5
        profiler.record("t1", "task_exec_start", cores=4, backend="flux")
        env._now = 2.5
        profiler.record("t1", "task_exec_stop", cores=4)
        path = tmp_path / "profile.jsonl"
        assert save_profile(profiler, path) == 2

        events = load_events(path)
        assert len(events) == 2
        assert events[0].time == 1.5
        assert events[0].entity == "t1"
        assert events[0].meta == {"cores": 4, "backend": "flux"}
        assert events[1].name == "task_exec_stop"

    def test_empty_profile(self, env, tmp_path):
        path = tmp_path / "empty.jsonl"
        assert save_profile(Profiler(env), path) == 0
        assert load_events(path) == []

    def test_malformed_line_raises_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"time": 1.0, "entity": "a", "name": "x"}\n'
                        "this is not json\n")
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            load_events(path)

    def test_missing_field_raises(self, tmp_path):
        path = tmp_path / "missing.jsonl"
        path.write_text('{"time": 1.0, "entity": "a"}\n')
        with pytest.raises(ValueError):
            load_events(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        path.write_text('{"time": 1.0, "entity": "a", "name": "x"}\n\n\n')
        assert len(load_events(path)) == 1

    def test_full_session_export(self, tmp_path):
        from repro.core import (
            PartitionSpec, PilotDescription, Session, TaskDescription)
        from repro.platform import generic

        session = Session(cluster=generic(4, 8), seed=1)
        pmgr, tmgr = session.pilot_manager(), session.task_manager()
        pilot = pmgr.submit_pilots(PilotDescription(
            nodes=4, partitions=(PartitionSpec("flux"),)))
        tmgr.add_pilot(pilot)
        tmgr.submit_tasks([TaskDescription(duration=1.0) for _ in range(5)])
        session.run(tmgr.wait_tasks())

        path = tmp_path / "session.jsonl"
        n = save_profile(session.profiler, path)
        events = load_events(path)
        assert n == len(events) == len(session.profiler)
        # Reconstructed stream preserves record order and timing.
        assert [e.time for e in events] == [e.time for e in session.profiler]


class TestSchemaHeader:
    def test_header_written_first(self, env, tmp_path):
        profiler = Profiler(env)
        profiler.record("t1", "task_created")
        path = tmp_path / "p.jsonl"
        save_profile(profiler, path)
        import json

        first = json.loads(path.read_text().splitlines()[0])
        assert first == {"format": "repro-profile", "version": 2}

    def test_header_not_counted_or_loaded(self, env, tmp_path):
        profiler = Profiler(env)
        profiler.record("t1", "task_created")
        path = tmp_path / "p.jsonl"
        assert save_profile(profiler, path) == 1
        assert len(load_events(path)) == 1

    def test_legacy_headerless_files_load(self, tmp_path):
        path = tmp_path / "legacy.jsonl"
        path.write_text('{"time": 1.0, "entity": "a", "name": "x"}\n')
        events = load_events(path)
        assert len(events) == 1
        assert events[0].entity == "a"

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text('{"format": "repro-profile", "version": 99}\n')
        with pytest.raises(ValueError, match="unsupported profile version"):
            load_events(path)


class TestHardening:
    def test_nonfinite_floats_round_trip(self, env, tmp_path):
        profiler = Profiler(env)
        profiler.record("p1", "pilot_active",
                        walltime=float("inf"),
                        offset=float("-inf"),
                        missing=float("nan"))
        path = tmp_path / "nf.jsonl"
        save_profile(profiler, path)
        # The file itself is strict JSON (no bare NaN/Infinity tokens).
        import json

        for line in path.read_text().splitlines():
            json.loads(line)
        (ev,) = load_events(path)
        assert ev.meta["walltime"] == float("inf")
        assert ev.meta["offset"] == float("-inf")
        assert ev.meta["missing"] != ev.meta["missing"]  # NaN

    def test_numpy_meta_values_round_trip(self, env, tmp_path):
        import numpy as np

        profiler = Profiler(env)
        profiler.record("t1", "task_done",
                        cores=np.int64(4), rate=np.float64(2.5))
        path = tmp_path / "np.jsonl"
        save_profile(profiler, path)
        (ev,) = load_events(path)
        assert ev.meta["cores"] == 4
        assert ev.meta["rate"] == 2.5

    def test_tuple_meta_becomes_list(self, env, tmp_path):
        profiler = Profiler(env)
        profiler.record("t1", "task_done", shape=(2, 3))
        path = tmp_path / "t.jsonl"
        save_profile(profiler, path)
        (ev,) = load_events(path)
        assert ev.meta["shape"] == [2, 3]

    def test_exotic_meta_degrades_to_repr(self, env, tmp_path):
        class Odd:
            def __repr__(self):
                return "<odd>"

        profiler = Profiler(env)
        profiler.record("t1", "task_done", thing=Odd())
        path = tmp_path / "o.jsonl"
        save_profile(profiler, path)
        (ev,) = load_events(path)
        assert ev.meta["thing"] == "<odd>"


class TestEncoderMemory:
    def test_meta_memo_is_bounded(self):
        """Encoding per-record metas keeps peak memory flat: the
        identity memo starts over every few dozen entries instead of
        holding every meta it has seen."""
        import tracemalloc

        from repro.analytics.events import TraceEvent
        from repro.analytics.export import write_event_lines

        class Sink:
            def write(self, text):
                pass

        def events(n):
            for i in range(n):
                yield TraceEvent(1.0, "task", "task_done", {"cores": i})

        def peak(n):
            tracemalloc.start()
            try:
                assert write_event_lines(Sink(), events(n)) == n
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(10_000), peak(100_000)
        assert large - small < 32 * 1024, (small, large)
