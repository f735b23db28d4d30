"""Property-based end-to-end tests: task conservation and resource
safety under randomized workloads, backend mixes and fault injection."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import events as tev
from repro.core import (
    PartitionSpec,
    PilotDescription,
    Session,
    TaskDescription,
    TaskState,
)
from repro.platform import generic

FINAL_EVENTS = {tev.TASK_DONE, tev.TASK_FAILED, tev.TASK_CANCELED}

task_specs = st.lists(
    st.tuples(
        st.sampled_from(["executable", "function"]),
        st.floats(min_value=0.0, max_value=30.0),   # duration
        st.booleans(),                              # fail flag
        st.integers(min_value=0, max_value=2),      # retries
    ),
    min_size=1, max_size=25)

backend_sets = st.sampled_from([
    ("flux",),
    ("dragon",),
    ("flux", "dragon"),
    ("srun", "dragon"),
    ("flux", "srun", "dragon"),
])


def run_mix(specs, backends, seed):
    session = Session(cluster=generic(6, 4, 1), seed=seed)
    pmgr, tmgr = session.pilot_manager(), session.task_manager()
    parts = tuple(PartitionSpec(b) for b in backends)
    pilot = pmgr.submit_pilots(PilotDescription(nodes=6, partitions=parts))
    tmgr.add_pilot(pilot)
    tasks = tmgr.submit_tasks([
        TaskDescription(mode=mode, duration=dur, fail=fail, retries=retries)
        for mode, dur, fail, retries in specs])
    session.run(tmgr.wait_tasks())
    return session, pilot, tasks


class TestConservation:
    @given(task_specs, backend_sets, st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_every_task_reaches_exactly_one_final_state(
            self, specs, backends, seed):
        session, _, tasks = run_mix(specs, backends, seed)
        assert all(t.is_final for t in tasks)
        for task in tasks:
            finals = [name for _, name in session.profiler.timeline(task.uid)
                      if name in FINAL_EVENTS]
            assert len(finals) == 1

    @given(task_specs, backend_sets, st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_outcomes_match_fault_injection(self, specs, backends, seed):
        _, _, tasks = run_mix(specs, backends, seed)
        for task in tasks:
            if task.description.fail:
                assert task.state == TaskState.FAILED
                # Every retry was consumed before giving up (attempts
                # counts the first try plus each retry).
                assert task.attempts == task.description.retries + 1
            else:
                assert task.state == TaskState.DONE

    @given(task_specs, backend_sets, st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_no_resource_leak(self, specs, backends, seed):
        _, pilot, _ = run_mix(specs, backends, seed)
        for ex in pilot.agent.executors.values():
            assert ex.allocation.free_cores == ex.allocation.total_cores
            assert ex.allocation.free_gpus == ex.allocation.total_gpus
            assert ex.n_active == 0

    @given(task_specs, backend_sets, st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_trace_passes_linter(self, specs, backends, seed):
        from repro.analytics import assert_valid_trace

        session, _, _ = run_mix(specs, backends, seed)
        assert_valid_trace(session.profiler,
                           total_cores=session.cluster.total_cores)

    @given(task_specs, backend_sets, st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_exec_intervals_consistent(self, specs, backends, seed):
        _, _, tasks = run_mix(specs, backends, seed)
        for task in tasks:
            if task.exec_start is not None and task.exec_stop is not None \
                    and not task.description.fail and task.attempts == 1:
                measured = task.exec_stop - task.exec_start
                # Completion-notification skew is sub-millisecond.
                assert measured >= task.description.duration - 1e-9
                assert measured <= task.description.duration + 0.01
