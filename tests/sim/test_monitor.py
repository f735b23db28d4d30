"""Tests for the sampling monitor."""

import pytest

from repro.exceptions import SimulationError
from repro.sim import Environment, Monitor


class TestSetup:
    def test_interval_validation(self, env):
        with pytest.raises(SimulationError):
            Monitor(env, interval=0)

    def test_duplicate_probe(self, env):
        mon = Monitor(env)
        mon.probe("x", lambda: 1)
        with pytest.raises(SimulationError):
            mon.probe("x", lambda: 2)

    def test_start_without_probes(self, env):
        with pytest.raises(SimulationError):
            Monitor(env).start()

    def test_unknown_probe_query(self, env):
        mon = Monitor(env)
        mon.probe("x", lambda: 1)
        with pytest.raises(SimulationError):
            mon.samples("y")


class TestSampling:
    def test_samples_on_cadence(self, env):
        state = {"v": 0}

        def ticker(env):
            for i in range(10):
                yield env.timeout(1.0)
                state["v"] = i + 1

        mon = Monitor(env, interval=2.0)
        mon.probe("v", lambda: state["v"])
        env.process(ticker(env))
        mon.start(stop_when=lambda: state["v"] >= 10)
        env.run()
        times = [t for t, _ in mon.samples("v")]
        assert times[0] == 0.0
        assert all(b - a == pytest.approx(2.0)
                   for a, b in zip(times, times[1:]))

    def test_peak_and_mean(self, env):
        seq = iter([1, 5, 3, 2])
        mon = Monitor(env, interval=1.0)
        mon.probe("x", lambda: next(seq))
        count = {"n": 0}

        def bump():
            count["n"] += 1
            return count["n"] >= 4

        mon.start(stop_when=bump)
        env.run()
        assert mon.peak("x") == 5
        assert mon.mean("x") == pytest.approx(11 / 4)

    def test_stop_ends_loop(self, env):
        mon = Monitor(env, interval=1.0)
        mon.probe("x", lambda: 0)
        mon.start()
        env.schedule(5.5, mon.stop)
        env.run(until=20.0)
        assert len(mon.samples("x")) == 6  # t=0..5

    def test_monitor_against_real_workload(self):
        from repro.core import (
            PartitionSpec, PilotDescription, Session, TaskDescription)
        from repro.platform import generic

        session = Session(cluster=generic(4, 8, 2), seed=55)
        pmgr, tmgr = session.pilot_manager(), session.task_manager()
        pilot = pmgr.submit_pilots(PilotDescription(
            nodes=4, partitions=(PartitionSpec("flux"),)))
        tmgr.add_pilot(pilot)
        tasks = tmgr.submit_tasks([TaskDescription(duration=20.0)
                                   for _ in range(64)])
        mon = Monitor(session.env, interval=5.0)
        mon.probe("busy_cores",
                  lambda: (pilot.allocation.busy_cores
                           if pilot.allocation else 0))
        mon.start(stop_when=lambda: all(t.is_final for t in tasks))
        session.run(tmgr.wait_tasks())
        # 64 x 20 s single-core tasks on 32 cores: the monitor saw the
        # machine fully busy at some point.
        assert mon.peak("busy_cores") == 32


class TestMonitorExport:
    def _sampled(self, env):
        mon = Monitor(env, interval=1.0)
        depth = {"v": 0}
        mon.probe("depth", lambda: depth["v"])
        mon.probe("load", lambda: depth["v"] * 0.5)
        mon.start()
        for t, v in ((0.5, 3), (1.5, 7), (2.5, 2)):
            env.schedule(t, lambda v=v: depth.__setitem__("v", v))
        env.schedule(3.5, mon.stop)
        env.run(until=10.0)
        return mon

    def test_to_series(self, env):
        mon = self._sampled(env)
        series = mon.to_series("depth")
        assert list(series.times) == [0.0, 1.0, 2.0, 3.0]
        assert list(series.values) == [0.0, 3.0, 7.0, 2.0]
        assert series.max() == 7.0

    def test_export_loads_as_profile(self, env, tmp_path):
        from repro.analytics import load_events

        mon = self._sampled(env)
        path = tmp_path / "monitor.jsonl"
        n = mon.export(path)
        events = load_events(path)
        assert n == len(events) == 8  # 2 probes x 4 sweeps
        entities = {e.entity for e in events}
        assert entities == {"monitor.depth", "monitor.load"}
        # Samples are time-ordered and merged across probes.
        times = [e.time for e in events]
        assert times == sorted(times)
        depth = [e.meta["value"] for e in events
                 if e.entity == "monitor.depth"]
        assert depth == [0, 3, 7, 2]


class TestMonitorSpill:
    def _twins(self, tmp_path, threshold=4):
        """An in-memory and a spilling monitor over the same schedule."""
        monitors = []
        for spill in (False, True):
            from repro.sim import Environment

            env = Environment()
            kwargs = ({"spill_dir": tmp_path / "chunks",
                       "spill_threshold": threshold} if spill else {})
            mon = Monitor(env, interval=1.0, **kwargs)
            depth = {"v": 0}
            mon.probe("depth", lambda d=depth: d["v"])
            mon.probe("load", lambda d=depth: d["v"] * 0.5)
            mon.start()
            for t, v in ((0.5, 3), (1.5, 7), (2.5, 2), (3.5, 9), (4.5, 1)):
                env.schedule(t, lambda d=depth, v=v: d.__setitem__("v", v))
            env.schedule(5.5, mon.stop)
            env.run(until=10.0)
            monitors.append(mon)
        return monitors

    def test_chunks_written_and_buffer_bounded(self, tmp_path):
        _, spill = self._twins(tmp_path)
        chunks = spill.profiler.spilled_chunks
        assert chunks, "threshold 4 over 12 samples must spill"
        spilled = sum(len(path.read_text().splitlines()) for path in chunks)
        assert len(spill.profiler) - spilled < 4  # the in-memory tail

    def test_samples_equivalent(self, tmp_path):
        mem, spill = self._twins(tmp_path)
        for name in ("depth", "load"):
            assert spill.samples(name) == mem.samples(name)
            assert spill.values(name) == mem.values(name)
            assert spill.peak(name) == mem.peak(name)
            assert spill.mean(name) == mem.mean(name)

    def test_to_series_equivalent(self, tmp_path):
        mem, spill = self._twins(tmp_path)
        s_mem, s_spill = mem.to_series("depth"), spill.to_series("depth")
        assert list(s_mem.times) == list(s_spill.times)
        assert list(s_mem.values) == list(s_spill.values)

    def test_export_bytes_identical(self, tmp_path):
        mem, spill = self._twins(tmp_path)
        pm, ps = tmp_path / "mem.jsonl", tmp_path / "spill.jsonl"
        assert mem.export(pm) == spill.export(ps) == 12
        assert pm.read_bytes() == ps.read_bytes()
