"""A Flux instance: broker, ingest, scheduler loop and dispatch lanes.

The model captures the mechanisms that determine Flux's measured
behaviour in the paper:

* **bootstrap cost** — ~20 s per instance, nearly independent of
  instance size (Fig. 7);
* **serialized ingest** — job submission RPCs funnel through the
  instance's job-manager at ``flux_ingest_cost`` per job, bounding a
  single instance near ~770 jobs/s;
* **scheduler duty cycle** — matching happens in bursts separated by
  heavy-tailed cycle gaps, the source of the large avg-vs-peak
  throughput spread the paper reports;
* **dispatch lanes** — job-shell spawns are distributed over the TBON
  overlay; lane count grows sublinearly with instance size
  (``ceil(n_nodes ** flux_lane_alpha)``), each lane sustaining
  ``flux_lane_rate`` spawns/s scaled by a per-run background-load
  factor.

Placement is real: every running job holds core and GPU counts on
nodes of the instance's :class:`~repro.platform.cluster.Allocation`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional

from ..exceptions import (
    BackendError,
    JobspecError,
    NodeFailureError,
    RuntimeStartupError,
)
from ..ids import IdRegistry
from ..platform.cluster import Allocation
from ..platform.latency import LatencyModel
from ..sim import Environment, Event, Interrupt, Resource, RngStreams, Store
from .events import (
    EV_ALLOC,
    EV_EXCEPTION,
    EV_FINISH,
    EV_RELEASE,
    EV_START,
    EV_SUBMIT,
    EventStream,
)
from .jobspec import FluxJob, FluxJobState, Jobspec
from .scheduler import order_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analytics.profiler import Profiler


class InstanceState:
    """Lifecycle states of a Flux instance."""

    INIT = "INIT"
    STARTING = "STARTING"
    READY = "READY"
    FAILED = "FAILED"
    STOPPED = "STOPPED"


class FluxInstance:
    """One Flux instance managing a (partition of an) allocation."""

    def __init__(self, env: Environment, allocation: Allocation,
                 latencies: LatencyModel, rng: RngStreams,
                 instance_id: str = "", policy: str = "fcfs",
                 profiler: Optional["Profiler"] = None,
                 metrics=None, faults=None) -> None:
        from .scheduler import make_policy

        self.env = env
        self.allocation = allocation
        self.latencies = latencies
        self.rng = rng
        self.profiler = profiler
        #: Optional :class:`~repro.faults.FaultModel` consulted once
        #: per dispatch for injected launch failures.
        self._faults = faults
        self.instance_id = instance_id or f"flux.{id(self):x}"
        self.policy = make_policy(policy)
        self.state = InstanceState.INIT

        self.events = EventStream(env)
        self._ids = IdRegistry()
        self._ingest_queue: Store = Store(env)
        #: Pending queue, kept in scheduling order incrementally: the
        #: ingest loop appends (FCFS arrivals keep the order by
        #: construction) and only an out-of-order arrival or an urgency
        #: change marks it dirty, triggering one re-sort in the next
        #: scheduling cycle instead of a full sort per cycle.
        self._pending: List[FluxJob] = []
        self._pending_dirty = False
        self._ingest_seq = 0
        self._running: List[FluxJob] = []
        #: Live jobs by id; a job leaves when it retires or fails.
        self._jobs: Dict[str, FluxJob] = {}
        self._run_procs: Dict[str, object] = {}
        self._wake: Optional[Event] = None
        self._alive = False
        # Incremented on every crash.  The ingest/sched loops capture
        # the epoch at spawn and exit when it moves on, so loops from a
        # pre-crash life cannot steal work after a restart.
        self._epoch = 0
        self._load_factor = 1.0

        self._lanes = Resource(
            env, capacity=self.lane_count(allocation.n_nodes, latencies))

        # Counters for introspection / tests.
        self.n_submitted = 0
        self.n_started = 0
        self.n_completed = 0
        self.n_failed = 0

        # Optional observability: per-partition queue/backlog gauges
        # and job counters, labeled by instance id.  ``None`` (the
        # default) keeps every update site a single identity check.
        self._m_queue = self._m_backlog = self._m_running = None
        self._m_jobs_completed = self._m_jobs_failed = None
        if metrics is not None:
            self._m_queue = metrics.gauge(
                "repro_flux_queue_depth",
                "jobs pending in the instance scheduler queue",
                labels=("instance",)).labels(self.instance_id)
            self._m_backlog = metrics.gauge(
                "repro_flux_backlog",
                "jobs submitted but not yet retired",
                labels=("instance",)).labels(self.instance_id)
            self._m_running = metrics.gauge(
                "repro_flux_running",
                "jobs currently holding resources",
                labels=("instance",)).labels(self.instance_id)
            # Pre-bind per-outcome children: retiring a job is a hot
            # path at full-machine scale, and resolving labels there
            # would pay a dict lookup plus tuple hashing per job.
            fam = metrics.counter(
                "repro_flux_jobs_total", "jobs retired by outcome",
                labels=("instance", "outcome"))
            self._m_jobs_completed = fam.labels(self.instance_id, "completed")
            self._m_jobs_failed = fam.labels(self.instance_id, "failed")

    # -- properties -------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.allocation.n_nodes

    @property
    def n_lanes(self) -> int:
        return self._lanes.capacity

    @property
    def queue_depth(self) -> int:
        return len(self._pending)

    @property
    def outstanding(self) -> int:
        """Jobs submitted but not yet retired (ingest + queue + running)."""
        return self.n_submitted - self.n_completed - self.n_failed

    @property
    def n_running(self) -> int:
        return len(self._running)

    @property
    def is_ready(self) -> bool:
        return self.state == InstanceState.READY

    # -- closed-form structure -----------------------------------------------
    # These two statics ARE the kernel's parameters, not copies: the
    # constructor and the dispatch path call them, and the vectorized
    # ensemble engine (repro.ensemble.vec_flux) calls the same
    # functions so its recurrence cannot drift from the DES.

    @staticmethod
    def lane_count(n_nodes: int, latencies) -> int:
        """TBON dispatch-lane fan-out for an ``n_nodes`` instance.

        Sublinear in the node count (``ceil(n ** flux_lane_alpha)``):
        the tree widens with the allocation but lane concurrency is
        bounded by the broker topology, not the core count.
        """
        return max(1, math.ceil(n_nodes ** latencies.flux_lane_alpha))

    @staticmethod
    def spawn_mean(latencies, load_factor: float) -> float:
        """Mean per-lane job-shell spawn time [s] under ``load_factor``
        (the instance's drawn background-load degradation)."""
        return 1.0 / (latencies.flux_lane_rate * load_factor)

    # -- lifecycle ------------------------------------------------------------

    def startup_delay(self) -> float:
        """One draw of the instance bootstrap time [s]."""
        lat = self.latencies
        mean = (lat.flux_startup_mean
                + lat.flux_startup_per_log2node
                * math.log2(max(1, self.n_nodes)))
        return self.rng.lognormal_latency("flux.startup", mean,
                                          cv=lat.flux_startup_cv)

    def start(self):
        """Generator: bootstrap the instance; ready when it returns."""
        if self.state != InstanceState.INIT:
            raise RuntimeStartupError(
                f"{self.instance_id}: start() called in state {self.state}")
        self.state = InstanceState.STARTING
        if self.profiler is not None:
            self.profiler.record(self.instance_id, "backend_start",
                                 kind="flux", nodes=self.n_nodes)
        yield self.env.timeout(self.startup_delay())
        lat = self.latencies
        load_mean = 1.0 / (1.0 + lat.flux_load_degradation * self.n_nodes)
        if lat.flux_load_cv > 0:
            draw = self.rng.lognormal_latency("flux.load", load_mean,
                                              cv=lat.flux_load_cv)
        else:
            draw = load_mean
        self._load_factor = min(max(draw, lat.flux_load_min),
                                lat.flux_load_max)
        self.state = InstanceState.READY
        self._alive = True
        self.env.process(self._ingest_loop())
        self.env.process(self._sched_loop())
        if self.profiler is not None:
            self.profiler.record(self.instance_id, "backend_ready",
                                 kind="flux", nodes=self.n_nodes,
                                 lanes=self.n_lanes,
                                 load_factor=self._load_factor)

    def shutdown(self) -> None:
        """Stop accepting and dispatching work; pending jobs get
        exception events."""
        if self.state in (InstanceState.STOPPED, InstanceState.FAILED):
            return
        self.state = InstanceState.STOPPED
        self._alive = False
        self._flush_pending("instance shutdown")
        self._kick()
        if self.profiler is not None:
            self.profiler.record(self.instance_id, "backend_stop", kind="flux")

    def crash(self, reason: str = "broker died") -> None:
        """Simulate an unexpected daemon failure (fault injection)."""
        if self.state in (InstanceState.STOPPED, InstanceState.FAILED):
            return
        self.state = InstanceState.FAILED
        self._alive = False
        self._epoch += 1
        self._flush_pending(reason, infra=True)
        for job in list(self._running):
            self._release(job)
            self._fail_job(job, reason, infra=True)
        self._running.clear()
        self._kick()
        if self.profiler is not None:
            self.profiler.record(self.instance_id, "backend_failed",
                                 kind="flux", reason=reason)

    def restart(self):
        """Generator: bring a crashed instance back up (fault recovery).

        Only legal from ``FAILED``.  Re-runs the full bootstrap, so the
        cold-start cost is a fresh draw from the startup-latency
        calibration — restarting is never free.
        """
        if self.state != InstanceState.FAILED:
            raise RuntimeStartupError(
                f"{self.instance_id}: restart() called in state {self.state}")
        self.state = InstanceState.INIT
        yield from self.start()

    def fail_node(self, node) -> None:
        """A node of this allocation went DOWN (fault injection).

        Jobs with placements on the node are killed (their held
        capacity is released into the node's lost count) and pending
        jobs that no longer fit the shrunken usable capacity fail
        immediately, so the queue cannot deadlock behind an
        unsatisfiable head.
        """
        if self.state in (InstanceState.STOPPED, InstanceState.FAILED):
            return
        index = node.index
        for job in list(self._running):
            if not job.placements or \
                    all(pl.node_index != index for pl in job.placements):
                continue
            proc = self._run_procs.get(job.job_id)
            if proc is not None and getattr(proc, "is_alive", False):
                proc.interrupt(NodeFailureError(f"node failure: {node.name}"))
            else:  # pragma: no cover - proc already winding down
                self._retire(job, canceled=True)
                self._fail_job(job, f"node failure: {node.name}", infra=True)
        self._fail_unsatisfiable()
        self._kick()

    def _fail_unsatisfiable(self) -> None:
        """Fail pending jobs larger than the current usable capacity."""
        alloc = self.allocation
        keep: List[FluxJob] = []
        for job in self._pending:
            res = job.spec.resources
            if res.cores > alloc.usable_cores or res.gpus > alloc.usable_gpus:
                self._fail_job(job, "unsatisfiable after node failure",
                               infra=True)
            else:
                keep.append(job)
        if len(keep) != len(self._pending):
            self._pending = keep
            if self._m_queue is not None:
                self._m_queue.set(len(keep))

    def _flush_pending(self, reason: str, infra: bool = False) -> None:
        for job in list(self._pending):
            self._fail_job(job, reason, infra=infra)
        self._pending.clear()
        while True:
            spec_job = self._ingest_queue.try_get()
            if spec_job is None:
                break
            self._fail_job(spec_job, reason, infra=infra)

    def _fail_job(self, job: FluxJob, reason: str,
                  infra: bool = False) -> None:
        job.exception = reason
        job.state = FluxJobState.INACTIVE
        self.n_failed += 1
        if self._m_jobs_failed is not None:
            self._m_jobs_failed.inc()
            self._m_backlog.set(self.outstanding)
        self.events.publish(job.job_id, EV_EXCEPTION, reason=reason,
                            infra=infra)
        self._jobs.pop(job.job_id, None)

    # -- submission -----------------------------------------------------------

    def submit(self, spec: Jobspec) -> FluxJob:
        """Submit a jobspec; returns the job record immediately.

        The job is processed asynchronously by the ingest pipeline.
        Unsatisfiable jobs raise :class:`JobspecError` synchronously,
        as the real submit RPC rejects them.
        """
        if self.state != InstanceState.READY:
            raise RuntimeStartupError(
                f"{self.instance_id}: submit in state {self.state}")
        spec.validate_against(self.allocation.usable_cores,
                              self.allocation.usable_gpus)
        job = FluxJob(job_id=self._ids.next(f"{self.instance_id}.job"),
                      spec=spec, submit_time=self.env.now)
        self._jobs[job.job_id] = job
        self.n_submitted += 1
        self._ingest_queue.put(job)
        if self._m_backlog is not None:
            self._m_backlog.set(self.outstanding)
        return job

    def cancel(self, job_id: str, reason: str = "canceled") -> bool:
        """Cancel one job (pending or running).

        Returns True when the job was actually canceled; False when it
        already retired (nothing to do).  Canceled jobs emit an
        exception event, exactly as ``flux job cancel`` raises a
        ``cancel`` exception on the real system.
        """
        job = self._jobs.get(job_id)
        if job is None or job.done:
            return False
        if job in self._pending:
            self._pending.remove(job)
            self._fail_job(job, reason)
            return True
        proc = self._run_procs.get(job_id)
        if proc is not None and getattr(proc, "is_alive", False):
            proc.interrupt(reason)
            return True
        # Still in the ingest pipeline: mark it; the ingest loop drops
        # jobs that acquired an exception.
        self._fail_job(job, reason)
        return True

    def change_urgency(self, job_id: str, urgency: int) -> None:
        """Re-prioritize a pending job (``flux job urgency``)."""
        from dataclasses import replace

        if not 0 <= urgency <= 31:
            raise JobspecError(f"urgency must be in [0, 31], got {urgency}")
        job = self._jobs.get(job_id)
        if job is None or job not in self._pending:
            raise JobspecError(f"{job_id}: not pending, cannot reprioritize")
        job.spec = replace(job.spec, urgency=urgency)
        self._pending_dirty = True
        self._kick()

    def stats(self) -> Dict[str, int]:
        """Snapshot of instance counters (``flux jobs`` summary)."""
        return {
            "submitted": self.n_submitted,
            "pending": len(self._pending),
            "running": len(self._running),
            "completed": self.n_completed,
            "failed": self.n_failed,
            "free_cores": self.allocation.free_cores,
            "total_cores": self.allocation.total_cores,
        }

    # -- internal loops -------------------------------------------------------

    def _ingest_loop(self):
        """Serialized job-manager ingest: one job at a time."""
        epoch = self._epoch
        while self._alive and self._epoch == epoch:
            # Pop synchronously while the queue has backlog; only park
            # on a blocking get when it is empty.  Under load this
            # halves the event-queue round-trips of the ingest stage.
            job = self._ingest_queue.try_get()
            if job is None:
                job = yield self._ingest_queue.get()
            if not self._alive or self._epoch != epoch:
                # A loop from before a crash must not steal work from
                # the restarted instance's loop: hand the job back (the
                # queue delivers FIFO to the parked live getter).
                if self._epoch != epoch and job is not None \
                        and job.exception is None:
                    self._ingest_queue.put(job)
                break
            yield self.env.timeout(self.rng.lognormal_latency(
                "flux.ingest", self.latencies.flux_ingest_cost,
                cv=self.latencies.flux_spawn_cv))
            if job.exception is not None:  # flushed while in ingest
                continue
            job.state = FluxJobState.SCHED
            self._ingest_seq += 1
            job.ingest_seq = self._ingest_seq
            pending = self._pending
            if pending and job.spec.urgency > pending[-1].spec.urgency:
                self._pending_dirty = True
            pending.append(job)
            if self._m_queue is not None:
                self._m_queue.set(len(pending))
            self.events.publish(job.job_id, EV_SUBMIT)
            self._kick()

    def _sched_loop(self):
        """Scheduler duty cycle: bursts of matching separated by gaps."""
        epoch = self._epoch
        while self._alive and self._epoch == epoch:
            if not self._pending:
                self._wake = self.env.event()
                yield self._wake
                continue
            gap = self.rng.lognormal_latency(
                "flux.cycle", self.latencies.flux_sched_cycle,
                cv=self.latencies.flux_cycle_cv)
            if gap > 0:
                yield self.env.timeout(gap)
            if not self._alive or self._epoch != epoch:
                break
            if self._pending_dirty:
                self._pending.sort(key=order_key)
                self._pending_dirty = False
            matches = self.policy.match(self._pending, self.allocation,
                                        self._running, self.env.now,
                                        presorted=True)
            if not matches:
                # Resources exhausted: sleep until a completion kicks us.
                self._wake = self.env.event()
                yield self._wake
                continue
            now = self.env.now
            for job, placements in matches:
                job.placements = placements
                job.alloc_time = now
                job.state = FluxJobState.RUN
                self._running.append(job)
                self.events.publish(job.job_id, EV_ALLOC,
                                    cores=job.spec.resources.cores,
                                    gpus=job.spec.resources.gpus)
                self._run_procs[job.job_id] = self.env.process(
                    self._dispatch(job))
            # Drop all matched jobs from the pending queue.  FCFS (and
            # usually backfill) matches a prefix of the ordered queue,
            # which a single slice-delete removes; otherwise rebuild in
            # one pass (one-by-one removal is quadratic in queue depth).
            pending = self._pending
            n = len(matches)
            if (len(pending) >= n
                    and all(pending[i] is matches[i][0] for i in range(n))):
                del pending[:n]
            else:
                matched = {id(job) for job, _ in matches}
                self._pending = [j for j in pending if id(j) not in matched]
            if self._m_queue is not None:
                self._m_queue.set(len(self._pending))
                self._m_running.set(len(self._running))

    def _dispatch(self, job: FluxJob):
        """Spawn the job shell through a dispatch lane, then run it."""
        try:
            with self._lanes.request(direct=True) as lane:
                if not lane.triggered:
                    yield lane
                yield self.env.timeout(self.rng.lognormal_latency(
                    "flux.spawn",
                    self.spawn_mean(self.latencies, self._load_factor),
                    cv=self.latencies.flux_spawn_cv))
            if not self._alive or job.exception is not None:
                self._retire(job, canceled=True)
                return
            if self._faults is not None:
                fault = self._faults.launch_outcome("flux")
                if fault is not None:
                    if fault.delay > 0:
                        yield self.env.timeout(fault.delay)
                    if job.exception is not None:
                        # Crashed while the launch was hanging: the
                        # crash already retired and failed the job.
                        self._run_procs.pop(job.job_id, None)
                        return
                    self._retire(job, canceled=True)
                    self._fail_job(job, fault.reason, infra=True)
                    return
            job.start_time = self.env.now
            self.n_started += 1
            self.events.publish(job.job_id, EV_START)
            if job.spec.attributes.get("fail"):
                # Fault injection: payload crashes right after start.
                self._retire(job, canceled=True)
                self._fail_job(job, "task payload failed")
                return
            if job.spec.duration > 0:
                yield self.env.timeout(job.spec.duration)
        except Interrupt as interrupt:
            # Job canceled mid-flight (flux job cancel) or killed by an
            # injected node/backend failure.
            cause = interrupt.cause
            infra = isinstance(cause, (NodeFailureError, BackendError))
            self._retire(job, canceled=True)
            self._fail_job(job, str(cause or "canceled"), infra=infra)
            return
        if job.exception is not None:
            # Failed while sleeping (instance crash): already retired.
            self._run_procs.pop(job.job_id, None)
            return
        job.finish_time = self.env.now
        job.state = FluxJobState.CLEANUP
        self.n_completed += 1
        if self._m_jobs_completed is not None:
            self._m_jobs_completed.inc()
            self._m_backlog.set(self.outstanding)
        # Real flux event order: finish, then release/free.
        self.events.publish(job.job_id, EV_FINISH, status=0)
        self._retire(job, canceled=False)
        job.state = FluxJobState.INACTIVE

    def _retire(self, job: FluxJob, canceled: bool) -> None:
        """Release resources and drop run bookkeeping for a job."""
        had_placements = bool(job.placements)
        self._release(job)
        if job in self._running:
            self._running.remove(job)
            if self._m_running is not None:
                self._m_running.set(len(self._running))
        self._run_procs.pop(job.job_id, None)
        if had_placements:
            # Mirror flux's resource-release event so subscribers can
            # track the instance's free pool without polling.
            self.events.publish(job.job_id, EV_RELEASE,
                                free_cores=self.allocation.free_cores)
        self._jobs.pop(job.job_id, None)
        self._kick()

    def _release(self, job: FluxJob) -> None:
        if job.placements:
            self.allocation.release(job.placements)
            job.placements = None

    def _kick(self) -> None:
        """Wake the scheduler loop if it is sleeping."""
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()
