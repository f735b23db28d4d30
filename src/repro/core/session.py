"""The session: root object tying the stack together.

A :class:`Session` owns the simulation environment, the machine, the
latency calibration, the RNG streams, the shared profiler, the Slurm
controller and srun facility, and the id registry.  Managers
(:class:`~repro.core.pilot_manager.PilotManager`,
:class:`~repro.core.task_manager.TaskManager`) are created from a
session, mirroring RP's API::

    session = Session(cluster=frontier(64), seed=1)
    pmgr = session.pilot_manager()
    tmgr = session.task_manager()
"""

from __future__ import annotations

from typing import Optional

from ..analytics.profiler import Profiler
from ..ids import IdRegistry
from ..platform.cluster import Cluster
from ..platform.latency import FRONTIER_LATENCIES, LatencyModel
from ..platform.profiles import frontier
from ..rjms.slurm import SlurmController
from ..rjms.srun import SrunLauncher
from ..sim import Environment, RngStreams


class Session:
    """One run of the middleware stack on one (simulated) machine."""

    def __init__(self, cluster: Optional[Cluster] = None,
                 latencies: LatencyModel = FRONTIER_LATENCIES,
                 seed: int = 0,
                 env: Optional[Environment] = None,
                 observe: bool = False,
                 faults=None,
                 spill_dir=None) -> None:
        self.env = env if env is not None else Environment()
        self.cluster = cluster if cluster is not None else frontier()
        self.latencies = latencies
        self.seed = seed
        self.rng = RngStreams(seed)
        self.ids = IdRegistry()
        self.uid = self.ids.next("session")
        #: ``spill_dir`` bounds profiler RSS by streaming trace events
        #: to chunked JSONL files instead of holding them all in
        #: memory; see :class:`~repro.analytics.profiler.Profiler`.
        self.profiler = Profiler(self.env, spill_dir=spill_dir)
        from ..observability import Observability

        self.obs = Observability(self.env, enabled=observe)
        if observe:
            self.obs.attach_kernel(self.env)
        #: Live telemetry plumbing for this run, when progress
        #: streaming is on (see
        #: :class:`~repro.observability.telemetry.RunTelemetry`).  The
        #: harness attaches it; the kernel probe reaches it here.
        #: ``None`` = off.
        self.telemetry = None
        from ..platform.filesystem import SharedFilesystem

        self.filesystem = SharedFilesystem(self.env)
        self.slurm = SlurmController(self.env, self.cluster, latencies,
                                     self.rng, profiler=self.profiler)
        self.srun = SrunLauncher(self.env, self.slurm, latencies, self.rng,
                                 metrics=self.obs.registry)
        #: Fault model, built from an optional
        #: :class:`~repro.faults.FaultSpec`.  ``None`` (the default)
        #: keeps every fault-instrumented code path inert: no fault
        #: randomness is drawn and traces are identical to a faultless
        #: build.  A spec with all-zero rates still activates the
        #: retry policy (recovery from payload-only failures).
        self.faults = None
        if faults is not None:
            from ..faults import FaultModel

            self.faults = FaultModel(self.env, self.rng, faults,
                                     profiler=self.profiler,
                                     metrics=self.obs.registry)
        self._closed = False

    def pilot_manager(self):
        """Create a :class:`~repro.core.pilot_manager.PilotManager`."""
        from .pilot_manager import PilotManager

        return PilotManager(self)

    def task_manager(self):
        """Create a :class:`~repro.core.task_manager.TaskManager`."""
        from .task_manager import TaskManager

        return TaskManager(self)

    def run(self, until=None):
        """Advance the simulation (see :meth:`Environment.run`)."""
        return self.env.run(until)

    @property
    def now(self) -> float:
        return self.env.now

    def close(self) -> None:
        """Mark the session closed and release machine nodes."""
        if not self._closed:
            self._closed = True
            self.cluster.release_all()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
