"""The live metrics registry: labeled counters, gauges, histograms.

The trace (:mod:`repro.analytics`) answers questions *after* a run;
the metrics registry answers them *during* one, and cheaply: every
instrumented component holds a pre-bound metric child (one dict
lookup at construction, attribute access afterwards), so the hot path
of an update is one float add — no label hashing, no string
formatting, no allocation.

Naming follows the Prometheus conventions the exporters assume:
``repro_<subsystem>_<quantity>[_total]``, labels as key-value pairs.
Components that may run without observability take ``metrics=None``
and guard each update with an ``is not None`` check, which keeps the
disabled path free of even a method call.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple


class Counter:
    """A monotonically increasing count (one label combination)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"value": self.value}


class Gauge:
    """A value that goes up and down, with high/low watermarks.

    The watermarks make saturation questions ("did the srun ceiling
    ever fill?") answerable from the end-of-run snapshot without
    storing a time series.
    """

    __slots__ = ("value", "max", "min", "_touched")

    def __init__(self) -> None:
        self.value = 0.0
        self.max = 0.0
        self.min = 0.0
        self._touched = False

    def set(self, value: float) -> None:
        self.value = value
        if not self._touched:
            self._touched = True
            self.max = self.min = value
        elif value > self.max:
            self.max = value
        elif value < self.min:
            self.min = value

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.set(self.value - amount)

    def snapshot(self) -> Dict[str, Any]:
        return {"value": self.value, "max": self.max, "min": self.min}


#: Default histogram buckets, tuned for latencies in simulated seconds.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0)


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``observe`` is O(log buckets) via bisect on the (small) upper-bound
    list; ``counts[i]`` is the number of observations ``<= bounds[i]``,
    with one implicit ``+Inf`` bucket at the end.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.bounds: Tuple[float, ...] = tuple(sorted(bounds))
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def cumulative(self) -> List[int]:
        """Cumulative counts per bucket (the ``le`` series), +Inf last."""
        out, running = [], 0
        for c in self.counts:
            running += c
            out.append(running)
        return out

    def snapshot(self) -> Dict[str, Any]:
        return {"sum": self.sum, "count": self.count,
                "buckets": dict(zip([*map(str, self.bounds), "+Inf"],
                                    self.cumulative()))}


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """All children (label combinations) of one named metric."""

    __slots__ = ("name", "kind", "help", "label_names", "_children",
                 "_hist_bounds")

    def __init__(self, name: str, kind: str, help: str = "",
                 label_names: Sequence[str] = (),
                 buckets: Optional[Sequence[float]] = None) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(label_names)
        self._children: Dict[Tuple[str, ...], Any] = {}
        self._hist_bounds = tuple(buckets) if buckets is not None else None

    def labels(self, *values: Any, **kv: Any) -> Any:
        """The child for one label combination, created on first use.

        Accepts positional values (in declared order) or keyword
        arguments; both are normalized to the declared order so
        ``labels("flux")`` and ``labels(backend="flux")`` address the
        same child.
        """
        if kv:
            if values:
                raise ValueError(
                    f"{self.name}: mix of positional and keyword labels")
            try:
                values = tuple(kv[n] for n in self.label_names)
            except KeyError as exc:
                raise ValueError(
                    f"{self.name}: missing label {exc.args[0]!r} "
                    f"(declared: {self.label_names})") from None
            if len(kv) != len(self.label_names):
                extra = set(kv) - set(self.label_names)
                raise ValueError(
                    f"{self.name}: unknown labels {sorted(extra)}")
        if len(values) != len(self.label_names):
            raise ValueError(
                f"{self.name}: expected {len(self.label_names)} label "
                f"values {self.label_names}, got {len(values)}")
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            if self.kind == "histogram" and self._hist_bounds is not None:
                child = Histogram(self._hist_bounds)
            else:
                child = _KINDS[self.kind]()
            self._children[key] = child
        return child

    def items(self) -> Iterator[Tuple[Tuple[str, ...], Any]]:
        """(label values, child) pairs in insertion (creation) order."""
        return iter(self._children.items())

    def __len__(self) -> int:
        return len(self._children)


class MetricsRegistry:
    """The per-session collection of metric families.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create and
    idempotent: re-declaring a family with the same kind and labels
    returns the existing one (components constructed repeatedly — one
    flux instance per partition — share the family and differ only in
    their label values).  Re-declaring with a *different* shape raises,
    catching instrumentation typos early.
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    def _family(self, name: str, kind: str, help: str,
                label_names: Sequence[str],
                buckets: Optional[Sequence[float]] = None) -> MetricFamily:
        fam = self._families.get(name)
        if fam is not None:
            if fam.kind != kind or fam.label_names != tuple(label_names):
                raise ValueError(
                    f"metric {name!r} re-declared as {kind}{tuple(label_names)}"
                    f", existing {fam.kind}{fam.label_names}")
            return fam
        fam = MetricFamily(name, kind, help, label_names, buckets)
        self._families[name] = fam
        return fam

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> Any:
        """A counter family — or, with no labels, its single child."""
        fam = self._family(name, "counter", help, labels)
        return fam if labels else fam.labels()

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> Any:
        fam = self._family(name, "gauge", help, labels)
        return fam if labels else fam.labels()

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Optional[Sequence[float]] = None) -> Any:
        fam = self._family(name, "histogram", help, labels, buckets)
        return fam if labels else fam.labels()

    def families(self) -> Iterator[MetricFamily]:
        return iter(self._families.values())

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def __len__(self) -> int:
        return len(self._families)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready dump of every family and child (sorted by name)."""
        out: Dict[str, Any] = {}
        for name in sorted(self._families):
            fam = self._families[name]
            out[name] = {
                "kind": fam.kind,
                "help": fam.help,
                "labels": list(fam.label_names),
                "series": [
                    {"labels": dict(zip(fam.label_names, key)),
                     **child.snapshot()}
                    for key, child in fam.items()
                ],
            }
        return out


class KernelInstrument:
    """Per-environment kernel probes, consumed by the kernel's one
    instrumented dispatch loop (``Environment._run_instrumented``,
    selected by :meth:`repro.sim.kernel.Environment.run`), which
    serves every ``until`` shape.

    The hot path is O(1) per ``run()`` call, not per event: the
    instrumented loop accumulates event-kind counts and queue-depth
    extremes in plain locals and calls :meth:`flush` once when the
    loop exits.  The flush replays the accumulated state onto the
    metric children in a way that is observably identical to the old
    per-event ``inc``/``set`` sequence (same counter totals, same
    gauge value/max/min watermarks), so exporter output is unchanged
    while the per-event cost drops from four method calls to a few
    local integer operations.  ``account`` converts one ``run()``
    invocation into the wall-per-sim-second gauge.
    """

    __slots__ = ("_events", "_bootstraps", "_callbacks", "_depth",
                 "_runs", "_wall", "_sim", "_ratio")

    def __init__(self, registry: MetricsRegistry) -> None:
        fam = registry.counter("repro_kernel_events_total",
                               "simulation events dispatched",
                               labels=("kind",))
        self._events = fam.labels("event")
        self._bootstraps = fam.labels("bootstrap")
        self._callbacks = fam.labels("callback")
        self._depth = registry.gauge("repro_kernel_queue_depth",
                                     "pending-event queue length")
        self._runs = registry.counter("repro_kernel_runs_total",
                                      "Environment.run invocations")
        self._wall = registry.counter("repro_kernel_wall_seconds_total",
                                      "wall time spent inside run()")
        self._sim = registry.counter("repro_kernel_sim_seconds_total",
                                     "simulated time advanced by run()")
        self._ratio = registry.gauge(
            "repro_kernel_wall_per_sim_second",
            "wall seconds per simulated second (cumulative)")

    def flush(self, n_events: int, n_bootstraps: int, n_callbacks: int,
              depth_max: int, depth_min: int, depth_last: int) -> None:
        """Fold one ``run()`` loop's accumulated samples into the
        metrics.  ``depth_min`` < 0 means no event was dispatched (the
        depth gauge is then left untouched, as the per-event path never
        sampled it either)."""
        if n_events:
            self._events.inc(n_events)
        if n_bootstraps:
            self._bootstraps.inc(n_bootstraps)
        if n_callbacks:
            self._callbacks.inc(n_callbacks)
        if depth_min >= 0:
            # Watermark-equivalent replay of the per-event set() calls:
            # extremes first, the final sample last so ``value`` is the
            # last observed depth.
            self._depth.set(depth_max)
            self._depth.set(depth_min)
            self._depth.set(depth_last)

    def account(self, sim_delta: float, wall_delta: float) -> None:
        self._runs.inc()
        self._wall.inc(wall_delta)
        self._sim.inc(sim_delta)
        if self._sim.value > 0:
            self._ratio.set(self._wall.value / self._sim.value)
