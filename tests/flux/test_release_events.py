"""Tests for flux resource-release events."""

import pytest

from repro.flux import EV_FINISH, EV_RELEASE, FluxInstance, Jobspec
from repro.platform import FRONTIER_LATENCIES, ResourceSpec, generic


@pytest.fixture
def instance(env, rng):
    alloc = generic(2).allocate_nodes(2)
    inst = FluxInstance(env, alloc, FRONTIER_LATENCIES, rng,
                        instance_id="flux.rel")
    env.run(env.process(inst.start()))
    return inst


@pytest.fixture
def seen(instance):
    """Every event the instance publishes, collected at delivery."""
    events = []
    instance.events.subscribe_callback(events.append)
    return events


class TestReleaseEvents:
    def test_release_follows_finish(self, env, instance, seen):
        instance.submit(Jobspec(command="x", duration=1.0,
                                resources=ResourceSpec(cores=4)))
        env.run()
        names = [e.name for e in seen]
        assert names.index(EV_RELEASE) > names.index(EV_FINISH)

    def test_release_reports_free_pool(self, env, instance, seen):
        instance.submit(Jobspec(command="x", duration=1.0,
                                resources=ResourceSpec(cores=4)))
        env.run()
        release = next(e for e in seen if e.name == EV_RELEASE)
        assert release.meta["free_cores"] == instance.allocation.total_cores

    def test_canceled_job_also_releases(self, env, instance, seen):
        job = instance.submit(Jobspec(command="x", duration=1e6,
                                      resources=ResourceSpec(cores=4)))
        env.run(until=env.now + 30.0)
        instance.cancel(job.job_id)
        env.run(until=env.now + 5.0)
        assert any(e.name == EV_RELEASE for e in seen)

    def test_one_release_per_job(self, env, instance, seen):
        for _ in range(5):
            instance.submit(Jobspec(command="x", duration=1.0))
        env.run()
        releases = [e for e in seen if e.name == EV_RELEASE]
        assert len(releases) == 5
