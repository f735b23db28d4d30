"""Edge-case tests for the DES kernel and primitives."""

import pytest

from repro.exceptions import SimulationError
from repro.sim import AllOf, AnyOf, Environment, Interrupt, Resource


class TestRunHorizons:
    def test_run_until_exact_event_time(self, env):
        hits = []
        env.schedule(5.0, hits.append, 1)
        env.run(until=5.0)
        assert hits == [1]

    def test_clock_lands_on_horizon_with_no_events(self, env):
        env.run(until=42.0)
        assert env.now == 42.0

    def test_resume_after_horizon(self, env):
        hits = []
        env.schedule(10.0, hits.append, 1)
        env.run(until=5.0)
        assert hits == []
        env.run()
        assert hits == [1]
        assert env.now == 10.0

    def test_peek(self, env):
        assert env.peek() == float("inf")
        env.schedule(3.0, lambda: None)
        assert env.peek() == 3.0

    def test_run_until_now_leaves_clock_untouched(self, env):
        # A no-op horizon at the current instant must not perturb the
        # clock — not even through a float round-trip.  Use a time
        # that is not exactly representable to make any rewrite of
        # `_now` (e.g. `_now = float(until)`) observable.
        env.schedule(0.1, lambda: None)
        env.run()
        before = env.now
        assert before == 0.1
        env.run(until=env.now)
        assert env.now is before or env.now == before
        import struct

        assert (struct.pack("<d", env.now)
                == struct.pack("<d", before))

    def test_run_until_now_still_fires_due_events(self, env):
        hits = []
        env.schedule(2.0, lambda: None)
        env.run()
        env.schedule(0.0, hits.append, "due-now")
        env.run(until=env.now)
        assert hits == ["due-now"]
        assert env.now == 2.0

    def test_infinite_horizon_rejected(self, env):
        # run() is the way to drain the queue; an infinite numeric
        # horizon would leave the clock at inf and every later timeout
        # firing at +inf.
        hits = []
        env.schedule(1.0, hits.append, 1)
        with pytest.raises(SimulationError, match="finite"):
            env.run(until=float("inf"))
        assert hits == [] and env.now == 0.0

    def test_nan_horizon_rejected(self, env):
        hits = []
        env.schedule(1.0, hits.append, 1)
        with pytest.raises(SimulationError, match="finite"):
            env.run(until=float("nan"))
        assert hits == [] and env.now == 0.0


class TestZeroDelays:
    def test_zero_delay_timeout_fires_now(self, env):
        stamps = []
        env.schedule(0.0, lambda: stamps.append(env.now))
        env.run()
        assert stamps == [0.0]

    def test_chained_zero_delays_preserve_order(self, env):
        order = []

        def chain(env, i):
            yield env.timeout(0.0)
            order.append(i)

        for i in range(5):
            env.process(chain(env, i))
        env.run()
        assert order == list(range(5))

    def test_infinite_timeout_never_fires(self, env):
        fired = []
        ev = env.timeout(float("inf"))
        ev.callbacks.append(lambda e: fired.append(True))
        env.schedule(1.0, lambda: None)
        env.run(until=1e12)
        assert not fired


class TestConditionEdges:
    def test_nested_conditions(self, env):
        inner = env.all_of([env.timeout(1), env.timeout(2)])
        outer = env.any_of([inner, env.timeout(10)])
        done = []
        outer.callbacks.append(lambda e: done.append(env.now))
        env.run()
        assert done == [2.0]

    def test_all_of_single_event(self, env):
        cond = env.all_of([env.timeout(3)])
        env.run()
        assert cond.processed

    def test_condition_of_processes_and_timeouts_mixed(self, env):
        def quick(env):
            yield env.timeout(1)
            return "p"

        cond = env.any_of([env.process(quick(env)), env.timeout(5)])
        env.run(cond)
        assert env.now == 1.0


class TestInterruptEdges:
    def test_interrupt_before_first_yield_is_processed(self, env):
        log = []

        def proc(env):
            try:
                yield env.timeout(100)
            except Interrupt:
                log.append("interrupted")

        p = env.process(proc(env))
        # Interrupt scheduled at t=0 — after the bootstrap resume.
        env.schedule(0.0, p.interrupt)
        env.run()
        assert log == ["interrupted"]

    def test_double_interrupt_second_wins_too(self, env):
        log = []

        def proc(env):
            for _ in range(2):
                try:
                    yield env.timeout(100)
                except Interrupt:
                    log.append(env.now)

        p = env.process(proc(env))
        env.schedule(1.0, p.interrupt)
        env.schedule(2.0, p.interrupt)
        env.run()
        assert log == [1.0, 2.0]


class TestResourceEdges:
    def test_release_from_waiting_does_not_grant_twice(self, env):
        res = Resource(env, capacity=1)
        held = res.request()
        w1 = res.request()
        w2 = res.request()
        w1.release()          # cancel while queued
        held.release()
        assert w2.triggered
        assert not w1.triggered

    def test_count_tracks_grants(self, env):
        res = Resource(env, capacity=3)
        reqs = [res.request() for _ in range(5)]
        assert res.count == 3
        assert res.queued == 2
        for r in reqs:
            r.release()
        assert res.count == 0
        assert res.queued == 0
