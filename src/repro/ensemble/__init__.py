"""Ensemble execution: batched multi-seed sweeps and a fast surrogate.

The paper's characterization methodology is sweep-shaped — every
reported number is a distribution over repeated seeded runs — which
makes per-seed cost the dominant term in reproduction cost.  This
package attacks it at three price points:

* :func:`run_ensemble` — many seeds of one config in one process.
  Configs on the vectorized fast path
  (:mod:`repro.ensemble.vectorized`: single-partition srun, flux and
  dragon) advance all members in lock-stepped structure-of-arrays
  cohorts through the launch pipeline's exact queueing recurrence —
  srun/dragon over the task index, flux over scheduler-cycle
  boundaries; everything else replays the real stack per seed
  (auto-sharded over the process pool for sweeps of four seeds or
  more).  Either way, per-seed results and
  exported profiles are byte-identical to independent sequential runs.
* :class:`FluidSurrogate` — a calibrated mean-value model answering
  throughput/utilization what-ifs in microseconds, within the
  EXPERIMENTS.md error bands.
* ``parallel=`` — batch-of-seeds fan-out over worker processes,
  composing with :mod:`repro.experiments.parallel`.
"""

from .engine import (
    ENGINE_REPLAY,
    ENGINE_VECTORIZED,
    EnsembleMember,
    EnsembleResult,
    run_ensemble,
    write_ensemble_bundle,
)
from .seeds import SeedsLike, parse_seed_list, resolve_seeds
from .surrogate import FluidSurrogate, SurrogatePrediction
from .vectorized import run_vectorized, supports_vectorized

__all__ = [
    "ENGINE_REPLAY",
    "ENGINE_VECTORIZED",
    "EnsembleMember",
    "EnsembleResult",
    "FluidSurrogate",
    "SeedsLike",
    "SurrogatePrediction",
    "parse_seed_list",
    "resolve_seeds",
    "run_ensemble",
    "run_vectorized",
    "supports_vectorized",
    "write_ensemble_bundle",
]
