"""Structured, sim-clock-stamped logging.

Python's :mod:`logging` stamps records with *wall* time, which is
meaningless inside a discrete-event simulation; this logger stamps
with the simulation clock and scopes every record to the component
that emitted it.  Logging is **off by default** and the disabled path
is one attribute check per call site, so instrumented components can
log unconditionally without a performance tax on normal runs.

Records are structured (``time``, ``level``, ``component``, ``msg``,
free-form fields) and kept in memory; an optional stream sink mirrors
them as formatted text for interactive debugging::

    session.obs.enable_logging(stream=sys.stderr, level="debug")
    log = session.obs.logger("agent.0000")
    log.info("backend ready", backend="flux", instances=4)
    # [     12.8310s] INFO  agent.0000: backend ready backend=flux ...
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Any, Dict, List, NamedTuple, Optional, TextIO,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.kernel import Environment

#: Numeric severities (subset of stdlib logging levels).
LEVELS: Dict[str, int] = {"debug": 10, "info": 20, "warning": 30,
                          "error": 40}


class LogRecord(NamedTuple):
    """One structured log record, stamped in simulated seconds."""

    time: float
    level: str
    component: str
    msg: str
    fields: Dict[str, Any]

    def format(self) -> str:
        tail = "".join(f" {k}={v}" for k, v in self.fields.items())
        return (f"[{self.time:12.4f}s] {self.level.upper():<7} "
                f"{self.component}: {self.msg}{tail}")


class LogSink:
    """Shared per-session record store + optional stream mirror."""

    def __init__(self, env: "Environment") -> None:
        self._env = env
        self.enabled = False
        self.threshold = LEVELS["info"]
        self.records: List[LogRecord] = []
        self._stream: Optional[TextIO] = None

    def enable(self, level: str = "info",
               stream: Optional[TextIO] = None) -> None:
        if level not in LEVELS:
            raise ValueError(
                f"unknown log level {level!r} (choose from {list(LEVELS)})")
        self.enabled = True
        self.threshold = LEVELS[level]
        self._stream = stream

    def emit(self, level: str, component: str, msg: str,
             fields: Dict[str, Any]) -> None:
        if LEVELS[level] < self.threshold:
            return
        record = LogRecord(self._env.now, level, component, msg, fields)
        self.records.append(record)
        if self._stream is not None:
            self._stream.write(record.format() + "\n")

    def records_for(self, component: str) -> List[LogRecord]:
        return [r for r in self.records if r.component == component]


class SimLogger:
    """A component-scoped handle onto the session's :class:`LogSink`.

    Cheap to create (components make one at init) and near-free when
    logging is disabled: each call is a single flag check.
    """

    __slots__ = ("_sink", "component")

    def __init__(self, sink: LogSink, component: str) -> None:
        self._sink = sink
        self.component = component

    def debug(self, msg: str, **fields: Any) -> None:
        if self._sink.enabled:
            self._sink.emit("debug", self.component, msg, fields)

    def info(self, msg: str, **fields: Any) -> None:
        if self._sink.enabled:
            self._sink.emit("info", self.component, msg, fields)

    def warning(self, msg: str, **fields: Any) -> None:
        if self._sink.enabled:
            self._sink.emit("warning", self.component, msg, fields)

    def error(self, msg: str, **fields: Any) -> None:
        if self._sink.enabled:
            self._sink.emit("error", self.component, msg, fields)
