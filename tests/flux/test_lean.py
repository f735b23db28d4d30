"""Flux retention: retired jobs leave the instance's job table.

Every Flux instance pops retired and failed jobs from its per-instance
job table, and the event stream keeps no history, so memory stays flat
over a full-machine run.  The instance counters must stay exact
regardless.
"""

from repro.core import PartitionSpec, PilotDescription, Session, \
    TaskDescription
from repro.platform import FRONTIER_LATENCIES, generic


def _run():
    session = Session(cluster=generic(4, cores_per_node=8),
                      latencies=FRONTIER_LATENCIES, seed=42)
    pmgr = session.pilot_manager()
    tmgr = session.task_manager()
    pilot = pmgr.submit_pilots(PilotDescription(
        nodes=4, partitions=(PartitionSpec("flux", n_instances=2),)))
    tmgr.add_pilot(pilot)
    tasks = tmgr.submit_tasks([TaskDescription(duration=1.0)] * 32)
    session.run(tmgr.wait_tasks())
    return session, pilot, tasks


class TestLeanFluxRetention:
    def test_lean_drops_retired_jobs(self):
        session, pilot, tasks = _run()
        assert all(t.succeeded for t in tasks)
        hierarchy = pilot.agent.executors["flux"].hierarchy
        for inst in hierarchy.instances:
            assert inst._jobs == {}, "retired jobs must be dropped"

    def test_lean_counters_still_accurate(self):
        session, pilot, _ = _run()
        hierarchy = pilot.agent.executors["flux"].hierarchy
        assert sum(inst.n_completed for inst in hierarchy.instances) == 32
