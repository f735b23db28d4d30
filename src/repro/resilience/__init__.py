"""Crash-safe execution: atomic writes and durable run checkpoints.

The machinery in this package extends the robustness story from the
*modeled* machine (``repro.faults``: simulated node crashes inside the
DES clock) to the *host* that runs the simulator: a SIGKILL'd process,
an OOM'd pool worker, a Ctrl-C mid-sweep.  It has two pillars:

``atomic``
    Torn-write-proof artifact persistence (tmp + fsync + rename) used
    by profiles, bundles, benchmark numbers, and the checkpoints
    themselves.
``checkpoint``
    Durable run checkpoints (versioned header, config/seed/code
    digests, kernel/RNG/profile watermarks) and deterministic
    resume-by-replay.  A multi-seed sweep restarts through the run
    store instead (``run_ensemble(cache=...)`` simulates only the
    seeds the store does not hold).

Everything here is wall-clock-side instrumentation: with checkpointing
off and no host failures, no code path in this package touches the
simulation, so same-seed traces stay byte-identical to a build without
it (see ``docs/RESILIENCE.md``).
"""

from .atomic import atomic_write_bytes, atomic_write_json, atomic_write_text
from .checkpoint import (
    CheckpointError,
    RunCheckpointer,
    load_checkpoint,
)
from .crash import crash_point, crash_value
from .spec import ResilienceSpec, parse_resilience

__all__ = [
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "CheckpointError",
    "RunCheckpointer",
    "load_checkpoint",
    "crash_point",
    "crash_value",
    "ResilienceSpec",
    "parse_resilience",
]
