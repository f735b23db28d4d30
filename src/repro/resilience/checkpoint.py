"""Durable run checkpoints and deterministic resume-by-replay.

Why replay, not frame serialization
-----------------------------------
A DES run's live state is a web of Python generator frames (every
simulated process) threaded through the kernel's event heap — none of
it picklable.  What *is* durable is the determinism contract the whole
repo is built on: a run is a pure function of ``(config, seed, code
version)``.  A checkpoint therefore stores the run's **identity** plus
verifiable **watermarks** of its progress:

* a versioned header with the full config document, its sha256
  digest, the seed, and the package/code versions that produced it;
* the kernel snapshot at the checkpoint tick (clock, sequence
  counter, a structural digest of the pending-event heap);
* the RNG families' state digest and the profiler high-water mark
  (event count + a running sha256 over the event prefix's
  ``(time, entity, name)`` stream).

``resume`` re-executes the run deterministically from its config and,
when the replayed clock crosses the checkpoint's watermark, compares
the live kernel/RNG/profile state against the stored snapshot — so
code drift or nondeterminism is *detected* rather than silently
producing a different "continuation".  A verified replay then runs to
completion and yields a profile byte-identical to the uninterrupted
run (pinned by ``tests/resilience``).

Checkpoint ticks are scheduled in **sim time** (every
``checkpoint_sim_interval``), with ``checkpoint_wall_interval``
rate-limiting the actual writes in wall time; ticks land at identical
sim times in the original and the replay, which is what makes the
snapshots comparable.  The tick callback touches no RNG and records
no trace events, so checkpointed and checkpoint-free runs of the same
seed still produce byte-identical profiles.

Multi-seed sweeps need no checkpoint of their own: each seed is an
independent run, and ``run_ensemble(cache=...)`` files every finished
seed in the content-addressed run store, so a restarted sweep
simulates only the seeds the store does not hold yet.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

from ..exceptions import CheckpointError
from .atomic import atomic_write_json
from .crash import crash_point
from .spec import ResilienceSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.session import Session
    from ..experiments.configs import ExperimentConfig

PathLike = Union[str, Path]

CHECKPOINT_FORMAT = "repro-checkpoint"
CHECKPOINT_VERSION = 1
CHECKPOINT_NAME = "checkpoint.json"


# ---------------------------------------------------------------------------
# Config identity
# ---------------------------------------------------------------------------


def config_to_doc(cfg: "ExperimentConfig") -> Dict[str, Any]:
    """The config as a plain document (nested dataclasses included)."""
    return dataclasses.asdict(cfg)


def config_from_doc(doc: Dict[str, Any]) -> "ExperimentConfig":
    """Rebuild an :class:`ExperimentConfig` from its document form."""
    from ..experiments.configs import ExperimentConfig
    from ..faults import FaultSpec, RetryPolicy

    doc = dict(doc)
    faults = doc.get("faults")
    if faults is not None:
        faults = dict(faults)
        retry = faults.pop("retry", None)
        if retry is not None:
            faults["retry"] = RetryPolicy(**retry)
        doc["faults"] = FaultSpec(**faults)
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    return ExperimentConfig(**{k: v for k, v in doc.items() if k in known})


def config_digest(cfg: "ExperimentConfig") -> str:
    """Canonical sha256 of the config document."""
    return _doc_digest(config_to_doc(cfg))


def _doc_digest(doc: Dict[str, Any]) -> str:
    payload = json.dumps(doc, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# The run checkpointer
# ---------------------------------------------------------------------------


class RunCheckpointer:
    """Periodic durable snapshots of one run's progress watermarks.

    Built by ``run_experiment`` when the resilience spec names a
    checkpoint directory; :meth:`attach` schedules the first sim-time
    tick before the run starts, and each tick reschedules the next, so
    tick times are an identical arithmetic sequence in the original
    run and any replay.

    ``verify`` carries the ``state`` document of a checkpoint being
    resumed: when the replayed clock reaches its watermark the live
    state must match, otherwise :class:`CheckpointError` is raised —
    replay divergence must never masquerade as a successful resume.
    """

    def __init__(self, directory: PathLike, cfg: "ExperimentConfig",
                 spec: ResilienceSpec,
                 verify: Optional[Dict[str, Any]] = None) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.cfg = cfg
        self.spec = spec
        self.session: Optional["Session"] = None
        self.n_written = 0
        self.verified = verify is None
        self._verify = verify
        self._closed = False
        self._last_write_wall: Optional[float] = None
        # Profile-prefix hashing (in-memory profilers only: spilled
        # chunks are already durable files, and re-reading them at
        # every tick would be O(trace) per checkpoint).
        self._hasher = hashlib.sha256()
        self._cursor: Optional[int] = 0
        self._header: Optional[Dict[str, Any]] = None

    # -- lifecycle ---------------------------------------------------------

    def attach(self, session: "Session") -> None:
        self.session = session
        session.env.schedule_callback(
            self.spec.checkpoint_sim_interval, self._tick)

    def close(self, complete: bool = False) -> None:
        """Stop ticking; optionally record the run as complete."""
        if self._closed:
            return
        self._closed = True
        if self._verify is not None and not self.verified:
            if self._verify.get("complete") and self.session is not None:
                # Resuming a checkpoint of a run that *finished*: the
                # watermark is the end-of-run state (not a tick time),
                # so it is only reachable here, at close.
                self._check_drift(self._state())
            else:
                raise CheckpointError(
                    "resumed run finished before reaching the checkpoint "
                    f"watermark (sim time {self._verify.get('sim_time')}); "
                    "the checkpoint does not belong to this run")
        if complete and self.session is not None:
            self._write(self._state(), complete=True)

    # -- the tick ----------------------------------------------------------

    def _tick(self) -> None:
        if self._closed or self.session is None:
            return
        env = self.session.env
        now = env.now
        # Crash-injection hooks (tests only; inert without the env var).
        crash_point("sim", now)
        crash_point("events", float(len(self.session.profiler)))
        # Reschedule *before* snapshotting so the pending next tick is
        # part of the captured heap in original and replay alike.
        env.schedule_callback(self.spec.checkpoint_sim_interval, self._tick)
        # State capture is lazy: a tick that neither verifies nor
        # writes (wall-interval rate limiting) costs nothing, and the
        # incremental profile hasher catches up at the next capture.
        if self._verify is not None and not self.verified:
            watermark = float(self._verify.get("sim_time", -1.0))
            if now == watermark:
                self._check_drift(self._state())
            elif now > watermark:
                raise CheckpointError(
                    f"replay tick at sim time {now} skipped the "
                    f"checkpoint watermark {watermark}; the checkpoint "
                    "was written with a different tick interval")
        if self._due():
            self._write(self._state())

    def _due(self) -> bool:
        if self.spec.checkpoint_wall_interval <= 0:
            return True
        if self._last_write_wall is None:
            return True
        elapsed = time.monotonic() - self._last_write_wall
        return elapsed >= self.spec.checkpoint_wall_interval

    # -- state capture -----------------------------------------------------

    def _state(self) -> Dict[str, Any]:
        assert self.session is not None
        session = self.session
        profiler = session.profiler
        n_events = len(profiler)
        profile_digest = None
        if getattr(profiler, "spilling", False):
            self._cursor = None
        if self._cursor is not None:
            # Running digest over the event prefix's (time, entity,
            # name) triples — incremental, so the whole run pays one
            # pass total.  Deliberately *not* the JSON wire format:
            # serializing every meta dict would double the cost of the
            # run, and the triple stream (with full-precision times)
            # already pins the event sequence; byte-level profile
            # equality is enforced end-to-end by the resume tests.
            events = profiler._events
            update = self._hasher.update
            for ev in events[self._cursor:]:
                update(f"{ev.time!r}|{ev.entity}|{ev.name}\n".encode())
            self._cursor = len(events)
            profile_digest = self._hasher.hexdigest()
        return {
            "sim_time": session.env.now,
            "kernel": session.env.snapshot(),
            "rng_digest": session.rng.state_digest(),
            "n_events": n_events,
            "profile_digest": profile_digest,
        }

    def _check_drift(self, state: Dict[str, Any]) -> None:
        assert self._verify is not None
        expected = self._verify
        mismatches: List[str] = []
        for key in ("kernel", "rng_digest", "n_events"):
            if state.get(key) != expected.get(key):
                mismatches.append(
                    f"{key}: {state.get(key)!r} != {expected.get(key)!r}")
        if (state.get("profile_digest") and expected.get("profile_digest")
                and state["profile_digest"] != expected["profile_digest"]):
            mismatches.append("profile_digest: trace prefix diverged")
        if mismatches:
            raise CheckpointError(
                "replay diverged from checkpoint at sim time "
                f"{expected.get('sim_time')}: " + "; ".join(mismatches)
                + " (code drift or nondeterminism)")
        self.verified = True

    # -- persistence -------------------------------------------------------

    def _write(self, state: Dict[str, Any], complete: bool = False) -> None:
        if self._header is None:
            # Identity fields are invariant for the run's lifetime;
            # resolving them (git revision included) once instead of
            # per write keeps the tick cheap.
            from ..observability.manifest import package_versions

            self._header = {
                "config": config_to_doc(self.cfg),
                "config_digest": config_digest(self.cfg),
                "code": package_versions(),
                "spec": self.spec.to_doc(),
            }
        doc = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "config": self._header["config"],
            "config_digest": self._header["config_digest"],
            "seed": self.cfg.seed,
            "code": self._header["code"],
            "spec": self._header["spec"],
            "state": dict(state, complete=complete),
            "n_checkpoints": self.n_written + 1,
            "wall_clock": time.time(),
        }
        atomic_write_json(self.directory / CHECKPOINT_NAME, doc)
        self.n_written += 1
        self._last_write_wall = time.monotonic()


# ---------------------------------------------------------------------------
# Loading / resuming
# ---------------------------------------------------------------------------


def load_checkpoint(directory: PathLike) -> Dict[str, Any]:
    """Load and validate a checkpoint header document."""
    path = Path(directory) / CHECKPOINT_NAME
    if not path.exists():
        raise CheckpointError(f"no checkpoint at {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: not a repro checkpoint")
    version = doc.get("version")
    if not isinstance(version, int) or version > CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version!r}")
    # Digest the stored document, not the rebuilt config: a header
    # naming a config field this version no longer has still verifies.
    if _doc_digest(doc.get("config", {})) != doc.get("config_digest"):
        raise CheckpointError(
            f"{path}: config digest mismatch (corrupt checkpoint)")
    return doc


def code_drift(doc: Dict[str, Any]) -> List[str]:
    """Human-readable package/code version differences between the
    checkpoint and the current process (empty = same code)."""
    from ..observability.manifest import package_versions

    then = doc.get("code", {})
    now = package_versions()
    drift = []
    for key in sorted(set(then) | set(now)):
        if then.get(key) != now.get(key):
            drift.append(f"{key}: {then.get(key)!r} -> {now.get(key)!r}")
    return drift
