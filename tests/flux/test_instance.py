"""Unit tests for the Flux instance lifecycle and dispatch machinery."""

import pytest

from repro.exceptions import JobspecError, RuntimeStartupError
from repro.flux import (
    EV_EXCEPTION,
    EV_FINISH,
    EV_START,
    FluxInstance,
    InstanceState,
    Jobspec,
)
from repro.platform import (
    DETERMINISTIC_LATENCIES,
    FRONTIER_LATENCIES,
    ResourceSpec,
    generic,
)
from repro.sim import Environment, RngStreams


def make_instance(env, rng, n_nodes=4, latencies=FRONTIER_LATENCIES,
                  policy="fcfs"):
    alloc = generic(n_nodes).allocate_nodes(n_nodes)
    return FluxInstance(env, alloc, latencies, rng,
                        instance_id="flux.test", policy=policy)


class TestLifecycle:
    def test_bootstrap_reaches_ready(self, env, rng):
        inst = make_instance(env, rng)
        env.run(env.process(inst.start()))
        assert inst.is_ready
        assert env.now > 15.0  # ~20 s bootstrap

    def test_startup_time_near_20s(self, env, rng):
        inst = make_instance(env, rng, latencies=DETERMINISTIC_LATENCIES)
        env.run(env.process(inst.start()))
        lat = DETERMINISTIC_LATENCIES
        assert env.now == pytest.approx(lat.flux_startup_mean
                                        + 2 * lat.flux_startup_per_log2node)

    def test_double_start_raises(self, env, rng):
        inst = make_instance(env, rng)
        env.run(env.process(inst.start()))
        with pytest.raises(RuntimeStartupError):
            env.run(env.process(inst.start()))

    def test_submit_before_ready_raises(self, env, rng):
        inst = make_instance(env, rng)
        with pytest.raises(RuntimeStartupError):
            inst.submit(Jobspec(command="x"))

    def test_lane_count_scales_sublinearly(self, env, rng):
        lanes = {}
        for n in (1, 16, 64):
            lanes[n] = make_instance(env, rng, n_nodes=n).n_lanes
        assert lanes[1] == 1
        assert 1 < lanes[16] < 16
        assert lanes[16] < lanes[64] < 64

    def test_shutdown_stops_accepting(self, env, rng):
        inst = make_instance(env, rng)
        env.run(env.process(inst.start()))
        inst.shutdown()
        assert inst.state == InstanceState.STOPPED
        with pytest.raises(RuntimeStartupError):
            inst.submit(Jobspec(command="x"))


class TestExecution:
    def test_jobs_run_to_completion(self, env, rng):
        inst = make_instance(env, rng)
        env.run(env.process(inst.start()))
        jobs = [inst.submit(Jobspec(command="x", duration=5.0))
                for _ in range(20)]
        env.run()
        assert inst.n_completed == 20
        assert all(j.done and not j.failed for j in jobs)
        assert all(j.finish_time - j.start_time == pytest.approx(5.0)
                   for j in jobs)

    def test_unsatisfiable_job_rejected_synchronously(self, env, rng):
        inst = make_instance(env, rng)
        env.run(env.process(inst.start()))
        with pytest.raises(JobspecError):
            inst.submit(Jobspec(command="x",
                                resources=ResourceSpec(cores=10000)))

    def test_resources_released_after_job(self, env, rng):
        inst = make_instance(env, rng)
        env.run(env.process(inst.start()))
        inst.submit(Jobspec(command="x", duration=1.0,
                            resources=ResourceSpec(cores=8)))
        env.run()
        assert inst.allocation.free_cores == inst.allocation.total_cores

    def test_concurrency_bounded_by_cores(self, env, rng):
        inst = make_instance(env, rng, n_nodes=1)  # 8 cores
        env.run(env.process(inst.start()))
        for _ in range(24):
            inst.submit(Jobspec(command="x", duration=60.0))
        peak = [0]

        def monitor(env):
            while inst.n_completed < 24:
                peak[0] = max(peak[0], inst.n_running)
                yield env.timeout(1.0)

        env.process(monitor(env))
        env.run()
        assert peak[0] <= 8

    def test_event_stream_lifecycle(self, env, rng):
        inst = make_instance(env, rng)
        queue = inst.events.subscribe()
        env.run(env.process(inst.start()))
        inst.submit(Jobspec(command="x", duration=1.0))
        env.run()
        names = [queue.try_get().name for _ in range(len(queue._items) + 3)
                 if len(queue)]
        assert EV_START in names
        assert EV_FINISH in names

    def test_fail_attribute_raises_exception_event(self, env, rng):
        inst = make_instance(env, rng)
        env.run(env.process(inst.start()))
        seen = []
        inst.events.subscribe_callback(seen.append)
        job = inst.submit(Jobspec(command="x", duration=1.0,
                                  attributes={"fail": True}))
        env.run()
        assert job.failed
        assert inst.n_failed == 1
        names = [e.name for e in seen if e.job_id == job.job_id]
        assert EV_EXCEPTION in names

    def test_throughput_matches_lane_model(self, env, rng):
        lat = DETERMINISTIC_LATENCIES
        inst = make_instance(env, rng, n_nodes=4, latencies=lat)
        env.run(env.process(inst.start()))
        jobs = [inst.submit(Jobspec(command="x", duration=0.0))
                for _ in range(400)]
        env.run()
        starts = sorted(j.start_time for j in jobs)
        rate = (len(starts) - 1) / (starts[-1] - starts[0])
        expected = inst.n_lanes * lat.flux_lane_rate
        assert rate == pytest.approx(expected, rel=0.05)


class TestCrash:
    def test_crash_fails_pending_and_running(self, env, rng):
        inst = make_instance(env, rng)
        env.run(env.process(inst.start()))
        jobs = [inst.submit(Jobspec(command="x", duration=1000.0))
                for _ in range(50)]
        env.run(until=env.now + 30.0)
        inst.crash("broker died")
        env.run()
        assert inst.state == InstanceState.FAILED
        assert all(j.failed for j in jobs)

    def test_crash_releases_resources(self, env, rng):
        inst = make_instance(env, rng)
        env.run(env.process(inst.start()))
        for _ in range(10):
            inst.submit(Jobspec(command="x", duration=1000.0))
        env.run(until=env.now + 30.0)
        inst.crash()
        assert inst.allocation.free_cores == inst.allocation.total_cores

    def test_crash_idempotent(self, env, rng):
        inst = make_instance(env, rng)
        env.run(env.process(inst.start()))
        inst.crash()
        inst.crash()
        assert inst.state == InstanceState.FAILED
