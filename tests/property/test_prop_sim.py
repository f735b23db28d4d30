"""Property-based tests for the DES kernel (hypothesis)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment

delays = st.lists(st.floats(min_value=0.0, max_value=1e6,
                            allow_nan=False, allow_infinity=False),
                  min_size=1, max_size=50)


class TestEventOrdering:
    @given(delays)
    def test_callbacks_fire_in_chronological_order(self, ds):
        env = Environment()
        fired = []
        for d in ds:
            env.schedule(d, fired.append, d)
        env.run()
        assert fired == sorted(ds)

    @given(delays)
    def test_clock_never_goes_backwards(self, ds):
        env = Environment()
        stamps = []
        for d in ds:
            env.schedule(d, lambda: stamps.append(env.now))
        env.run()
        assert stamps == sorted(stamps)

    @given(delays)
    def test_final_time_is_max_delay(self, ds):
        env = Environment()
        for d in ds:
            env.schedule(d, lambda: None)
        env.run()
        assert env.now == max(ds)

    @given(st.lists(st.integers(min_value=0, max_value=5),
                    min_size=1, max_size=30))
    def test_equal_time_events_fifo(self, tags):
        env = Environment()
        fired = []
        for i, tag in enumerate(tags):
            env.schedule(1.0, fired.append, (i, tag))
        env.run()
        assert fired == [(i, t) for i, t in enumerate(tags)]


class TestDeterminism:
    @given(st.integers(min_value=0, max_value=2**31), st.integers(2, 8))
    @settings(max_examples=25)
    def test_identical_seeds_identical_traces(self, seed, n_workers):
        def scenario():
            from repro.sim import Resource, RngStreams

            env = Environment()
            rng = RngStreams(seed)
            res = Resource(env, capacity=2)
            trace = []

            def worker(env, i):
                with res.request() as req:
                    yield req
                    yield env.timeout(rng.lognormal_latency("w", 1.0, 0.5))
                    trace.append((round(env.now, 9), i))

            for i in range(n_workers):
                env.process(worker(env, i))
            env.run()
            return trace

        assert scenario() == scenario()


class TestProcessAlgebra:
    @given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1,
                    max_size=10))
    def test_all_of_completes_at_max(self, ds):
        env = Environment()

        def sleeper(env, d):
            yield env.timeout(d)
            return d

        procs = [env.process(sleeper(env, d)) for d in ds]
        env.run(env.all_of(procs))
        assert env.now == max(ds)

    @given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1,
                    max_size=10))
    def test_any_of_completes_at_min(self, ds):
        env = Environment()

        def sleeper(env, d):
            yield env.timeout(d)

        procs = [env.process(sleeper(env, d)) for d in ds]
        env.run(env.any_of(procs))
        assert env.now == min(ds)


def _seeded_schedule(env, seed):
    """Schedule a seeded mix of every queue-entry kind on ``env``:
    timeout-driven processes (bootstraps + events), ``schedule``
    events and chained ``schedule_callback`` entries, many of them at
    equal times.  Returns the ``(now, tag)`` trace the dispatches
    append to."""
    rng = random.Random(seed)
    trace = []

    def delay():
        return rng.choice((0.0, 0.5, rng.random()))

    def note(tag):
        trace.append((env.now, tag))

    def chain(tag, left):
        note(tag)
        if left:
            env.schedule_callback(delay(), chain, tag, left - 1)

    def proc(tag, n):
        for i in range(n):
            yield env.timeout(delay())
            note((tag, i))

    for k in range(rng.randint(1, 6)):
        env.process(proc(f"p{k}", rng.randint(0, 8)))
        env.schedule(delay(), note, f"s{k}")
        env.schedule_callback(delay(), chain, f"c{k}", rng.randint(0, 8))
    return trace


class TestRunShapesAgree:
    """One ``run()``, horizon slices then ``run()``, and ``step()`` to
    exhaustion dispatch the same schedule identically."""

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.lists(st.floats(min_value=0.0, max_value=12.0), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_dispatch_trace_independent_of_drive(self, seed, cuts):
        def drive(how):
            env = Environment()
            trace = _seeded_schedule(env, seed)
            if how == "slices":
                for t in sorted(cuts):
                    env.run(until=t)
                env.run()
            elif how == "step":
                while env.peek() < float("inf"):
                    env.step()
            else:
                env.run()
            return trace

        reference = drive("step")
        assert reference
        assert drive("run") == reference
        assert drive("slices") == reference
