"""The O(1) instrumented dispatch loop vs a step-counted reference.

``Environment.run`` under observability accumulates event counts and
queue-depth extremes in locals and flushes once.  The contract: the
resulting metric values are *exactly* what per-event instrumentation
would have produced, whatever the shape of ``until``.  This test
replays the same seeded workload through ``step()`` (the checked
reference path), counting by hand, and compares every kernel series;
it also pins that the plain and instrumented loops end a run the same
way.
"""

import pytest

from repro.core import PilotDescription, Session, TaskDescription
from repro.exceptions import SimulationError
from repro.observability import Observability
from repro.platform import FRONTIER_LATENCIES, generic
from repro.sim import Environment


def _build(observe):
    session = Session(cluster=generic(4, cores_per_node=8),
                      latencies=FRONTIER_LATENCIES, seed=7,
                      observe=observe)
    tmgr = session.task_manager()
    pilot = session.pilot_manager().submit_pilots(PilotDescription(nodes=4))
    tmgr.add_pilot(pilot)
    tmgr.submit_tasks([TaskDescription(duration=2.0)] * 24)
    return session, tmgr


def _step_reference(session, stop=None):
    """Step ``session`` until its queue drains (or ``stop`` is
    processed), counting what the instrumented loop would count."""
    n_events = n_bootstraps = n_callbacks = 0
    depth_max, depth_min, depth_last = 0, -1, 0
    queue = session.env._queue
    while queue and (stop is None or not stop.processed):
        depth_last = len(queue)
        if depth_last > depth_max:
            depth_max = depth_last
        if depth_min < 0 or depth_last < depth_min:
            depth_min = depth_last
        entry = queue[0]
        if len(entry) == 5:
            if entry[4]:
                n_bootstraps += 1
            else:
                n_callbacks += 1
        else:
            n_events += 1
        session.env.step()
    return (n_events, n_bootstraps, n_callbacks,
            depth_max, depth_min, depth_last)


def _drive(session, tmgr, until, horizon):
    """Run ``session`` in one of the three ``until`` shapes; returns
    the number of ``run()`` calls made."""
    if until == "none":
        session.run()
        return 1
    if until == "event":
        session.run(tmgr.wait_tasks())
        return 1
    session.run(until=horizon)
    session.run()
    return 2


def _sim_seconds(registry):
    return registry.get("repro_kernel_sim_seconds_total").labels().value


class TestInstrumentedLoopMatchesStepReference:
    @pytest.mark.parametrize("until", ["none", "event", "horizon"])
    def test_counters_and_watermarks_match(self, until):
        # Reference: same seed, no observability, manual step counts.
        ref, ref_tmgr = _build(observe=False)
        stop = ref_tmgr.wait_tasks() if until == "event" else None
        (n_events, n_bootstraps, n_callbacks,
         depth_max, depth_min, depth_last) = _step_reference(ref, stop)
        assert n_events and n_callbacks

        observed, tmgr = _build(observe=True)
        n_runs = _drive(observed, tmgr, until, horizon=ref.now / 2)
        assert observed.now == ref.now
        reg = observed.obs.registry

        fam = reg.get("repro_kernel_events_total")
        assert fam.labels(kind="event").value == n_events
        assert fam.labels(kind="bootstrap").value == n_bootstraps
        assert fam.labels(kind="callback").value == n_callbacks

        depth = reg.get("repro_kernel_queue_depth").labels()
        assert depth.max == depth_max
        assert depth.min == depth_min
        assert depth.value == depth_last

        assert reg.get("repro_kernel_runs_total").labels().value == n_runs
        assert _sim_seconds(reg) == pytest.approx(ref.now)

    def test_empty_run_leaves_depth_untouched(self):
        session = Session(cluster=generic(2), seed=1, observe=True)
        session.run()  # nothing scheduled beyond session setup
        session.run()  # second run dispatches zero events
        assert session.obs.registry.get(
            "repro_kernel_runs_total").labels().value >= 2

    def test_idle_horizon_jump_is_charged(self):
        # The clock's move to the horizon happens inside the metered
        # window, so an idle run(until=42.0) charges all 42 seconds.
        env = Environment()
        obs = Observability(env, enabled=True)
        obs.attach_kernel(env)
        env.run(until=42.0)
        assert env.now == 42.0
        assert _sim_seconds(obs.registry) == 42.0


def _deadlock(env):
    env.run(env.event())


def _horizon_in_past(env):
    env.run(until=5.0)
    env.run(until=1.0)


def _failed_stop(env):
    def proc():
        yield env.timeout(1.0)
        raise ValueError("bad")

    env.run(env.process(proc()))


class TestPlainAndInstrumentedEndAlike:
    @pytest.mark.parametrize("case,n_runs", [
        (_deadlock, 1), (_horizon_in_past, 2), (_failed_stop, 1)],
        ids=["deadlock", "horizon_in_past", "failed_stop"])
    def test_same_error(self, case, n_runs):
        errors = []
        for observe in (False, True):
            env = Environment()
            obs = Observability(env, enabled=observe)
            obs.attach_kernel(env)
            with pytest.raises((SimulationError, ValueError)) as info:
                case(env)
            errors.append((type(info.value), str(info.value), env.now))
            if observe:
                # Every call is counted, the failing one included.
                runs = obs.registry.get("repro_kernel_runs_total")
                assert runs.labels().value == n_runs
        assert errors[0] == errors[1]
