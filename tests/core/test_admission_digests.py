"""Pinned trace digests for every submitter that reaches the agent's
admission stage mid-run.

The agent admits tasks through one serialized dispatch stage.  A
whole-wave submission before bootstrap is the common case, and
``bench/pinned.json`` plus ``tests/faults/test_determinism.py`` pin it.
The cases here pin the other ways tasks arrive: IMPECCABLE stage
submits, workflow DAG nodes released one at a time, a replayed arrival
stream, a service started beside running tasks, a second wave that
arrives while the dispatch stage is still busy with the first, and two
agents dispatching at the same time.

Each digest is the sha256 of the same-seed profiler trace.  They were
captured from the per-task intake loop (an intake store drained by a
dispatch generator) that the admission queue replaced, so a drift
means admission times or order changed.
"""

import hashlib

import pytest

from repro.analytics import save_profile
from repro.core import (
    PartitionSpec,
    PilotDescription,
    ServiceDescription,
    Session,
    TaskDescription,
)
from repro.experiments.configs import ExperimentConfig
from repro.experiments.harness import run_experiment
from repro.platform import ResourceSpec, generic
from repro.platform.latency import DETERMINISTIC_LATENCIES, FRONTIER_LATENCIES
from repro.workloads import ReplayRunner, Workflow, WorkflowRunner
from repro.workloads.replay import TimedTask


def _digest(session, tmp_path):
    path = tmp_path / "trace.jsonl"
    save_profile(session.profiler, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _launch(backend="flux", latencies=FRONTIER_LATENCIES, seed=7,
            n_instances=1):
    session = Session(cluster=generic(4, 8, 2), latencies=latencies,
                      seed=seed)
    pmgr, tmgr = session.pilot_manager(), session.task_manager()
    pilot = pmgr.submit_pilots(PilotDescription(
        nodes=4, partitions=(PartitionSpec(backend,
                                           n_instances=n_instances),)))
    tmgr.add_pilot(pilot)
    return session, tmgr, pilot


def impeccable_flux(tmp_path):
    cfg = ExperimentConfig(exp_id="impeccable_flux", launcher="flux",
                           workload="impeccable", n_nodes=64, seed=0)
    return _digest(run_experiment(cfg, keep_session=True).session, tmp_path)


def _layered_dag():
    """Three fan-out/fan-in layers: every node is submitted alone, at
    the instant its last dependency succeeds."""
    wf = Workflow("layers")
    wf.add("root", TaskDescription(duration=2.0))
    prev = ["root"]
    for layer in range(3):
        names = []
        for i in range(4):
            name = f"l{layer}.{i}"
            wf.add(name, TaskDescription(
                duration=1.0 + i, resources=ResourceSpec(cores=1 + i % 2)),
                depends_on=prev if i % 2 == 0 else prev[:1])
            names.append(name)
        prev = names
    wf.add("sink", TaskDescription(duration=1.0), depends_on=prev)
    return wf


def _run_dag(tmp_path, latencies):
    session, tmgr, _ = _launch(latencies=latencies)
    runner = WorkflowRunner(session, tmgr, _layered_dag())
    session.run(runner.start())
    assert runner.result.succeeded
    return _digest(session, tmp_path)


def workflow_dag(tmp_path):
    return _run_dag(tmp_path, FRONTIER_LATENCIES)


def workflow_dag_deterministic(tmp_path):
    return _run_dag(tmp_path, DETERMINISTIC_LATENCIES)


def replay_stream(tmp_path):
    """Bursts of arrivals closer together than one dispatch slot
    (~0.3 ms), separated by gaps long enough for the stage to idle."""
    session, tmgr, pilot = _launch()
    arrivals = []
    for burst in range(5):
        base = burst * 0.02
        arrivals.extend(base + k * 0.0001 for k in range(6))
    workload = [TimedTask(arrival=t, description=TaskDescription(
        duration=0.5, resources=ResourceSpec(cores=1 + i % 3)))
        for i, t in enumerate(arrivals)]
    runner = ReplayRunner(session, tmgr, workload)

    def after_bootstrap(env):
        yield pilot.active_event()
        yield runner.start()

    session.run(session.env.process(after_bootstrap(session.env)))
    assert all(t.succeeded for t in runner.tasks)
    return _digest(session, tmp_path)


def service_beside_tasks(tmp_path):
    """A service handed to the agent while a wave is still queued in
    the dispatch stage, followed by single-task submits."""
    session, tmgr, pilot = _launch()
    wave = tmgr.submit_tasks([TaskDescription(duration=3.0)
                              for _ in range(24)])

    def client(env):
        yield pilot.active_event()
        yield env.timeout(0.001)
        service = pilot.start_service(ServiceDescription(
            name="svc", resources=ResourceSpec(cores=2), startup_time=1.0))
        for i in range(6):
            tmgr.submit_tasks(TaskDescription(duration=1.0 + i))
            yield env.timeout(0.0002)
        yield service.ready_event()
        reply = service.endpoint.call("ping")
        yield reply

    session.run(session.env.process(client(session.env)))
    session.run(tmgr.wait_tasks())
    assert all(t.succeeded for t in wave)
    return _digest(session, tmp_path)


def _second_wave(tmp_path, backend, delay):
    session, tmgr, pilot = _launch(backend=backend, n_instances=2
                                   if backend == "flux" else 1)
    first = tmgr.submit_tasks([TaskDescription(duration=1.0)
                               for _ in range(48)])
    second = []

    def client(env):
        yield pilot.active_event()
        if delay > 0:
            yield env.timeout(delay)
        second.extend(tmgr.submit_tasks(
            [TaskDescription(duration=0.5, resources=ResourceSpec(cores=2))
             for _ in range(24)]))

    session.run(session.env.process(client(session.env)))
    session.run(tmgr.wait_tasks())
    assert len(second) == 24
    assert all(t.succeeded for t in first + second)
    return _digest(session, tmp_path)


def second_wave_flux_at_bootstrap(tmp_path):
    return _second_wave(tmp_path, "flux", 0.0)


def second_wave_flux_busy(tmp_path):
    return _second_wave(tmp_path, "flux", 0.0037)


def second_wave_dragon_busy(tmp_path):
    return _second_wave(tmp_path, "dragon", 0.0051)


def second_wave_srun_after_drain(tmp_path):
    return _second_wave(tmp_path, "srun", 0.5)


def two_pilots_interleaved(tmp_path):
    """Two agents dispatching at once.  Both draw their dispatch costs
    from the session's one ``agent.dispatch`` stream, so the digest
    pins the order in which the two stages interleave their draws."""
    session = Session(cluster=generic(8, 8, 2), seed=84)
    pmgr = session.pilot_manager()
    pilots, tmgrs = [], []
    for _ in range(2):
        pilot = pmgr.submit_pilots(PilotDescription(
            nodes=4, partitions=(PartitionSpec("flux"),)))
        tmgr = session.task_manager()
        tmgr.add_pilot(pilot)
        pilots.append(pilot)
        tmgrs.append(tmgr)

    def client(env):
        yield env.all_of([p.active_event() for p in pilots])
        for tmgr in tmgrs:
            tmgr.submit_tasks([TaskDescription(duration=1.0)
                               for _ in range(40)])

    session.run(session.env.process(client(session.env)))
    session.run(session.env.all_of([t.wait_tasks() for t in tmgrs]))
    return _digest(session, tmp_path)


#: (scenario, sha256 of its profiler trace)
PINNED = [
    (impeccable_flux,
     "d8ef935e8a45bc65b16c6c2e4781246ddff646cb1cb6da9329bd3f44d3b8af5f"),
    (workflow_dag,
     "b2564248f9a454463958013c57a8e605f00cd1d27957e84a344b2b383fd74f24"),
    (workflow_dag_deterministic,
     "b919fec515021f95d261b4d2f879213d97864cfdb51a72b5360512fcf24c497b"),
    (replay_stream,
     "da8f7d13684050eedce34d5a28d26c2df0e1d493283cca1e444f25c34955490c"),
    (service_beside_tasks,
     "5437679fa7f36bd5c965798b1b3e3d1365ff1b0adf9dcb86b1e102311c433876"),
    (second_wave_flux_at_bootstrap,
     "c8ce51a43b53ac380336c37430a4788def8fb76b777ee865dad499adf46d23be"),
    (second_wave_flux_busy,
     "fe9cd86cb6a16d8c4cb9236c8b42894ac7497ef5fcb37749d9297b0b29263908"),
    (second_wave_dragon_busy,
     "d48186a5d369f89b0eca6471cec3f3b60e737952088427b3838be48ac4f8bceb"),
    (second_wave_srun_after_drain,
     "d2f1c7f3696691260ebe4be96c75dbdb9ef34111cf991665f686133cc5417ca1"),
    (two_pilots_interleaved,
     "48f6e793be11bca056b401361d2d0d707a8e53a03928252d5f3b1ede3c87cd6e"),
]


@pytest.mark.parametrize("scenario,expected", PINNED,
                         ids=[fn.__name__ for fn, _ in PINNED])
def test_admission_trace_matches_pinned_digest(tmp_path, scenario, expected):
    got = scenario(tmp_path)
    assert got == expected, f"{scenario.__name__}: trace drifted ({got})"
