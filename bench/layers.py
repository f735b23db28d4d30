"""Outside-in tracing for one benchmark round.

Both instruments are installed by :mod:`bench.child` in the traced
round only; untraced rounds load neither.

* :class:`Sampler` splits host time by layer.  The simulator's layers
  run as kernel callbacks and generator resumptions rather than as
  nested calls, so wrapper spans cannot split ``Session.run``; instead
  a thread reads the main thread's stack about every 0.5 ms and charges
  the time since its previous read to the innermost frame that lives
  under ``src/repro``.
* :class:`Boundaries` wraps public functions from outside the program:
  spans (name, start, end, parent) for the coarse boundaries, summed
  time for the hot ones, and call counts.  Everything stays in memory
  until the round writes its report.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

#: The layers, named after the ``src/repro`` packages.  Modules outside
#: them (``ids``, ``exceptions``, and ``resilience.atomic``, whose
#: durable writes serve the profile export and the store) are charged
#: to the layer that called them.  ``other`` takes what is left: the
#: benchmark's own code and stacks with no ``src/repro`` frame at all.
LAYERS = ("sim", "sim.random", "core", "core.agent", "flux", "dragon",
          "rjms", "platform", "mpi", "workloads", "analytics.profiler",
          "analytics", "experiments", "ensemble", "store", "other")

#: Path prefixes (relative to ``src/repro``) mapped to layers; the
#: first match wins, so modules precede their packages.
_PREFIXES = (
    ("sim/random.py", "sim.random"),
    ("core/agent/", "core.agent"),
    ("analytics/profiler.py", "analytics.profiler"),
) + tuple((layer.replace(".", "/") + "/", layer) for layer in LAYERS
          if layer != "other")

SAMPLE_INTERVAL = 5e-4


def layer_of(filename: str, root: str) -> Optional[str]:
    """The layer of a source file, or ``None`` when the file belongs to
    no layer and its caller's layer should be charged."""
    if not filename.startswith(root):
        return None
    rel = filename[len(root):].replace(os.sep, "/")
    for prefix, layer in _PREFIXES:
        if rel.startswith(prefix):
            return layer
    return None


class Sampler:
    """Charges the main thread's wall time to layers by stack sampling.

    Create it on the thread to observe.  While it runs, the interpreter
    switch interval is shortened to the sampling interval so that the
    sampler gets the interpreter lock about as often as it asks.
    """

    def __init__(self, root: str, interval: float = SAMPLE_INTERVAL) -> None:
        self._root = os.path.join(root, "")
        self._interval = interval
        self._target = threading.get_ident()
        self._layers: Dict[object, str] = {}
        self._running = False
        self._thread: Optional[threading.Thread] = None
        self._switch = sys.getswitchinterval()
        self.seconds: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)

    def start(self) -> None:
        sys.setswitchinterval(self._interval)
        self._running = True
        self._thread = threading.Thread(target=self._loop,
                                        name="bench-sampler", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._running = False
        self._thread.join()
        sys.setswitchinterval(self._switch)

    def _loop(self) -> None:
        last = time.perf_counter()
        seconds = self.seconds
        while self._running:
            time.sleep(self._interval)
            layer = self._classify(sys._current_frames().get(self._target))
            now = time.perf_counter()
            seconds[layer] += now - last
            last = now

    def _classify(self, frame) -> str:
        layers = self._layers
        while frame is not None:
            code = frame.f_code
            layer = layers.get(code)
            if layer is None:
                layer = layers[code] = layer_of(code.co_filename,
                                                self._root) or ""
            if layer:
                return layer
            frame = frame.f_back
        return "other"


class Boundaries:
    """Spans, summed times and call counts recorded by wrappers."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or None]`` per span.
        self.spans: List[list] = []
        self.seconds: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []

    def span(self, owner, attr: str, name: str) -> None:
        """Record one span per call of ``owner.attr``."""
        fn = vars(owner)[attr]
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        setattr(owner, attr, wrapper)

    def timed(self, owner, attr: str, name: str, calls: str) -> None:
        """Sum the time of every call of a hot ``owner.attr`` under
        ``name`` and count the calls under ``calls``; no spans."""
        fn = vars(owner)[attr]
        seconds, counts = self.seconds, self.counts
        seconds.setdefault(name, 0.0)
        counts.setdefault(calls, 0)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += clock() - t0
                counts[calls] += 1

        setattr(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str,
              weight: Optional[Callable] = None) -> None:
        """Count calls of ``owner.attr`` (``weight(*args, **kwargs)``
        per call when given, else 1)."""
        fn = vars(owner)[attr]
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1 if weight is None else weight(*args, **kwargs)
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)

    def span_seconds(self) -> Dict[str, float]:
        """Total time per span name, not counting a span nested inside
        another span of the same name twice."""
        totals: Dict[str, float] = {}
        spans = self.spans
        for name, start, end, parent in spans:
            while parent is not None and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent is None:
                totals[name] = totals.get(name, 0.0) + (end - start)
        return totals


def _batch_size(self, name, mean, cv=0.25, n=1):
    return n


def install(boundaries: Boundaries, sweep: bool) -> None:
    """Wrap the program's public boundaries.  Call once, after the
    CLI's imports and before the round starts.  The ensemble and store
    boundaries are wrapped for ``sweep`` rounds only, so that a ``run``
    round imports nothing its untraced twin does not."""
    import repro.analytics
    import repro.experiments.harness as harness
    from repro.core.agent.router import DynamicRouter, Router
    from repro.core.agent.scheduler import PartitionScheduler
    from repro.core.pilot_manager import PilotManager
    from repro.core.session import Session
    from repro.core.task_manager import TaskManager
    from repro.dragon.runtime import DragonRuntime
    from repro.flux.hierarchy import FluxHierarchy
    from repro.flux.instance import FluxInstance
    from repro.flux.scheduler import EasyBackfillPolicy, FcfsPolicy
    from repro.platform.cluster import Allocation
    from repro.sim.random import RngStreams

    b = boundaries
    b.span(Session, "__init__", "experiments.session_build")
    b.span(Session, "run", "core.session_run")
    b.span(PilotManager, "submit_pilots", "core.submit_pilots")
    b.span(TaskManager, "submit_tasks", "core.submit_tasks")
    b.span(harness, "build_workload", "experiments.build_workload")
    # The harness and the vectorized engine import the metric functions
    # by name, so the names bound in those modules are the ones to wrap.
    metrics = [(harness, ("task_throughput", "utilization", "makespan",
                          "startup_overheads"))]
    b.span(repro.analytics, "save_profile", "analytics.export")
    b.timed(Allocation, "try_place", "platform.try_place",
            "platform.try_place.calls")
    b.count(FluxInstance, "submit", "flux.submit.calls")
    for policy in (FcfsPolicy, EasyBackfillPolicy):
        b.count(policy, "match", "flux.match.calls")
    b.count(FluxHierarchy, "least_loaded", "flux.least_loaded.calls")
    b.count(DragonRuntime, "submit", "dragon.submit.calls")
    b.count(PartitionScheduler, "place", "core.agent.place.calls")
    for router in (Router, DynamicRouter):
        b.count(router, "route", "core.agent.route.calls")
    b.count(RngStreams, "lognormal_latency_batch", "sim.random.draws",
            weight=_batch_size)
    for attr in ("lognormal_latency", "uniform", "exponential", "weibull"):
        b.count(RngStreams, attr, "sim.random.draws")
    if sweep:
        import repro.ensemble
        import repro.ensemble.engine
        import repro.ensemble.vectorized
        from repro.store import RunStore

        metrics.append((repro.ensemble.vectorized,
                        ("startup_overheads", "throughput",
                         "utilization_from_intervals")))
        b.span(repro.ensemble, "run_ensemble", "ensemble.run_ensemble")
        b.span(repro.ensemble.engine, "run_vectorized",
               "ensemble.vectorized")
        b.span(RunStore, "digest_for", "store.digest")
        b.span(RunStore, "fetch", "store.load")
        b.span(RunStore, "put", "store.put")
    for module, names in metrics:
        for attr in names:
            b.span(module, attr, "analytics.metrics")
