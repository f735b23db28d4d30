"""End-to-end observability behaviour read from the task profile.

The questions the deleted metrics registry used to answer live are
answered by the profile and by counters the stack keeps anyway; the
srun concurrency ceiling shows in the profile's exec intervals (peak
concurrent srun executions is exactly 112 on a config that saturates
it); and observing a run never perturbs its profile.
"""

import pytest

from repro.analytics import events as tev
from repro.analytics import save_profile
from repro.core import (
    PartitionSpec,
    PilotDescription,
    Session,
    TaskDescription,
)
from repro.experiments.configs import ExperimentConfig
from repro.experiments.harness import run_experiment
from repro.platform import generic
from repro.platform.spec import ResourceSpec


def peak_concurrent_srun_execs(profiler) -> int:
    """Peak number of open srun exec intervals (sweep line; a stop
    sorts before a start at the same instant)."""
    deltas = []
    for ev in profiler:
        if ev.meta.get("backend") != "srun":
            continue
        if ev.name == tev.TASK_EXEC_START:
            deltas.append((ev.time, 1))
        elif ev.name == tev.TASK_EXEC_STOP:
            deltas.append((ev.time, -1))
    peak = running = 0
    for _time, delta in sorted(deltas):
        running += delta
        peak = max(peak, running)
    assert running == 0  # every interval closed
    return peak


def exec_starts(profiler, backend):
    return [ev for ev in profiler.events_named(tev.TASK_EXEC_START)
            if ev.meta.get("backend") == backend]


class TestLiveMetrics:
    @pytest.fixture(scope="class")
    def observed(self):
        session = Session(cluster=generic(8, cores_per_node=8), seed=11)
        pmgr, tmgr = session.pilot_manager(), session.task_manager()
        pilot = pmgr.submit_pilots(PilotDescription(nodes=8, partitions=(
            PartitionSpec("srun", nodes=2),
            PartitionSpec("flux", nodes=3, n_instances=2),
            PartitionSpec("dragon", nodes=3))))
        tmgr.add_pilot(pilot)
        tds = []
        for i in range(30):
            backend = ("srun", "flux", "dragon")[i % 3]
            mode = "function" if backend == "dragon" else "executable"
            tds.append(TaskDescription(
                executable="/bin/x", duration=2.0, mode=mode,
                resources=ResourceSpec(cores=1), backend=backend))
        tasks = tmgr.submit_tasks(tds)
        session.run(tmgr.wait_tasks())
        return session, pilot.agent, tasks

    def test_kernel_counters(self, observed):
        session, _, _ = observed
        kernel = session.env.snapshot()
        assert kernel["seq"] > 0  # bench's sim.queue_entries
        assert kernel["now"] == session.now > 0

    def test_agent_dispatch_counts_all_tasks(self, observed):
        _, agent, tasks = observed
        assert agent.n_dispatched == len(tasks)

    def test_srun_metrics(self, observed):
        session, _, _ = observed
        assert len(exec_starts(session.profiler, "srun")) == 10
        assert 1 <= peak_concurrent_srun_execs(session.profiler)
        assert session.srun.active == 0  # everything drained

    def test_flux_metrics(self, observed):
        session, agent, _ = observed
        instances = agent.executors["flux"].hierarchy.instances
        assert sum(inst.n_completed for inst in instances) == 10
        assert all(inst.outstanding == 0 for inst in instances)
        assert len(exec_starts(session.profiler, "flux")) == 10

    def test_dragon_metrics(self, observed):
        _, agent, _ = observed
        pools = [rt.pool for rt in agent.executors["dragon"].runtimes]
        assert sum(p.n_warm_dispatch + p.n_cold_dispatch
                   for p in pools) == 10

    def test_scheduler_placements(self, observed):
        _, agent, _ = observed
        # srun placements flow through the agent scheduler; flux
        # schedules internally.
        assert agent.executors["srun"].scheduler.n_placed == 10


class TestSrunCeilingSaturation:
    def test_fig4_config_saturates_at_112(self):
        # 448 ten-second tasks on 4 nodes (224 cores) contend for the
        # machine-wide ceiling of 112 live sruns.
        cfg = ExperimentConfig(exp_id="srun", launcher="srun",
                               workload="dummy", n_nodes=4,
                               duration=10.0, waves=2)
        result = run_experiment(cfg, keep_session=True)
        assert result.n_tasks == 448
        assert result.session.srun.ceiling == 112
        assert peak_concurrent_srun_execs(result.session.profiler) == 112


class TestDeterminism:
    CFG = ExperimentConfig(exp_id="flux_1", launcher="flux",
                           workload="dummy", n_nodes=2,
                           duration=5.0, waves=1)

    def _profile_bytes(self, tmp_path, tag, **kwargs):
        result = run_experiment(self.CFG, keep_session=True, **kwargs)
        path = tmp_path / f"{tag}.jsonl"
        save_profile(result.session.profiler, path)
        return path.read_bytes()

    def test_observe_does_not_perturb_trace(self, tmp_path):
        plain = self._profile_bytes(tmp_path, "plain")
        observed = self._profile_bytes(tmp_path, "observed",
                                       bundle=tmp_path / "bundle",
                                       progress=lambda record: None)
        assert plain == observed
        assert (tmp_path / "bundle" / "profile.jsonl").read_bytes() == plain

    def test_same_seed_same_trace(self, tmp_path):
        a = self._profile_bytes(tmp_path, "a")
        b = self._profile_bytes(tmp_path, "b")
        assert a == b
