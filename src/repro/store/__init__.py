"""Content-addressed run store: memoized simulation results.

Every run in this repro is a pure function of ``(config, seed, code
version)`` — same-seed traces are byte-identical across the serial,
parallel, ensemble and resumed execution paths (pinned by the
determinism suites).  This package exploits that: each run is keyed
by a canonical digest of its identity (:mod:`repro.store.keys`),
finished runs land in an on-disk content-addressed store
(:class:`~repro.store.store.RunStore`), and the harness's hot paths
(``run_experiment(cache=...)`` and the multi-seed sweep,
``run_ensemble``/``run_repetitions``) consult the store before
simulating — a repeat query of a 90-second ``frontier_full`` point
becomes a millisecond lookup, and an interrupted sweep re-run with
the same store simulates only the seeds it had not finished.  :mod:`repro.store.query` adds the analytics surface: filter
runs by config fields, compare metric profiles, and find the nearest
neighbours of a run in metric space.

The store is **off by default** everywhere; with no ``cache=`` every
execution path behaves (and traces) exactly as before.
"""

from .keys import (
    CACHE_KEY_EXCLUDED,
    cache_key,
    code_fingerprint,
    normalize_config,
    run_digest,
)
from .store import (
    STATS,
    CachedRun,
    RunStore,
    StoreStats,
)

__all__ = [
    "CACHE_KEY_EXCLUDED",
    "CachedRun",
    "RunStore",
    "STATS",
    "StoreStats",
    "cache_key",
    "code_fingerprint",
    "normalize_config",
    "run_digest",
]
