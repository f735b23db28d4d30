"""Crash-safe execution: atomic writes and the pool crash hook.

The machinery in this package extends the robustness story from the
*modeled* machine (``repro.faults``: simulated node crashes inside the
DES clock) to the *host* that runs the simulator: a SIGKILL'd process,
an OOM'd pool worker, a Ctrl-C mid-sweep.

``atomic``
    Torn-write-proof artifact persistence (tmp + fsync + rename) used
    by profiles, bundles and run-store entries.
``crash``
    The ``REPRO_CRASH_AT=pool:<seed>`` hook that kills a pool worker
    so tests can check salvage and store restarts.

A killed single run is restarted by re-running its command; a
multi-seed sweep restarts through the run store
(``run_ensemble(cache=...)`` simulates only the seeds the store does
not hold).  Either way the result is byte-identical by the
determinism contract.  Nothing here touches the simulation (see
``docs/RESILIENCE.md``).
"""

from .atomic import atomic_write_bytes, atomic_write_json, atomic_write_text
from .crash import crash_point

__all__ = [
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "crash_point",
]
