"""Resilience policy: one frozen spec threaded from CLI to engine.

Mirrors :class:`repro.faults.spec.FaultSpec` in spirit — a single
hashable value object that travels from the command line into
``run_experiment`` — but describes *host*-side robustness (durable
checkpoints) rather than modeled machine faults.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional


@dataclasses.dataclass(frozen=True)
class ResilienceSpec:
    """Host-fault tolerance policy for one run.

    Attributes
    ----------
    checkpoint_dir:
        Directory for durable run checkpoints; ``None`` disables
        checkpointing entirely (the default — checkpointing off means
        zero instrumentation in the run).
    checkpoint_sim_interval:
        Sim-seconds between checkpoint ticks.  Ticks are scheduled in
        *sim* time so a resumed replay revisits the exact same
        checkpoint points, which is what makes drift verification
        possible.
    checkpoint_wall_interval:
        Wall-seconds that must elapse between checkpoint *writes*;
        ``0`` writes at every tick.  Rate-limits the fsync cost when
        sim time runs much faster than wall time — a crash loses at
        most this much wall-clock progress, so the default of one
        wall-second keeps overhead negligible without weakening the
        durability story.
    """

    checkpoint_dir: Optional[str] = None
    checkpoint_sim_interval: float = 60.0
    checkpoint_wall_interval: float = 1.0

    def __post_init__(self) -> None:
        from ..exceptions import ConfigurationError

        if self.checkpoint_sim_interval <= 0:
            raise ConfigurationError("checkpoint_sim_interval must be > 0")
        if self.checkpoint_wall_interval < 0:
            raise ConfigurationError("checkpoint_wall_interval must be >= 0")

    @property
    def checkpointing(self) -> bool:
        return self.checkpoint_dir is not None

    def to_doc(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "ResilienceSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in doc.items() if k in known})


def parse_resilience(checkpoint: Optional[str] = None,
                     checkpoint_every: Optional[float] = None,
                     checkpoint_wall: Optional[float] = None
                     ) -> Optional[ResilienceSpec]:
    """Build a spec from CLI flags; ``None`` when nothing was asked
    for (so default runs carry no resilience object at all)."""
    if checkpoint is None:
        return None
    kwargs: Dict[str, Any] = {"checkpoint_dir": str(checkpoint)}
    if checkpoint_every is not None:
        kwargs["checkpoint_sim_interval"] = float(checkpoint_every)
    if checkpoint_wall is not None:
        kwargs["checkpoint_wall_interval"] = float(checkpoint_wall)
    return ResilienceSpec(**kwargs)
