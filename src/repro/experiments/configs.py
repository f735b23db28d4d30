"""Experiment configurations (the paper's Table 1).

Each :class:`ExperimentConfig` fully determines one run: workload
class, launcher configuration, allocation size, partitioning and
seed.  :func:`table1_configs` enumerates the paper's seven
experiments with their published parameter sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..exceptions import ConfigurationError
from ..faults import FaultSpec

#: Launcher configurations evaluated in the paper, plus the PRRTE
#: extension backend (§5).
LAUNCHER_SRUN = "srun"
LAUNCHER_FLUX = "flux"
LAUNCHER_DRAGON = "dragon"
LAUNCHER_PRRTE = "prrte"
LAUNCHER_HYBRID = "flux+dragon"
LAUNCHERS = (LAUNCHER_SRUN, LAUNCHER_FLUX, LAUNCHER_DRAGON, LAUNCHER_PRRTE,
             LAUNCHER_HYBRID)

#: Workload classes.
WORKLOAD_NULL = "null"
WORKLOAD_DUMMY = "dummy"
WORKLOAD_MIXED = "mixed"          #: exec + func (hybrid experiment)
WORKLOAD_IMPECCABLE = "impeccable"
WORKLOADS = (WORKLOAD_NULL, WORKLOAD_DUMMY, WORKLOAD_MIXED,
             WORKLOAD_IMPECCABLE)


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully-specified experiment run."""

    exp_id: str
    launcher: str
    workload: str
    n_nodes: int
    n_partitions: int = 1
    duration: float = 180.0       #: dummy-task sleep time [s]
    waves: int = 4                #: tasks = n_nodes * cpn * waves
    seed: int = 0
    generations: int = 12         #: IMPECCABLE generations
    adaptive: bool = True         #: IMPECCABLE adaptive task counts
    faults: Optional[FaultSpec] = None  #: fault injection (None = off)
    tags: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.launcher not in LAUNCHERS:
            raise ConfigurationError(f"unknown launcher {self.launcher!r}")
        if self.workload not in WORKLOADS:
            raise ConfigurationError(f"unknown workload {self.workload!r}")
        if self.n_nodes < 1:
            raise ConfigurationError(f"n_nodes must be >= 1")
        if self.n_partitions < 1:
            raise ConfigurationError("n_partitions must be >= 1")
        if self.launcher == LAUNCHER_HYBRID and self.n_nodes < 2:
            raise ConfigurationError("hybrid runs need >= 2 nodes")
        if self.waves < 1:
            raise ConfigurationError("waves must be >= 1")

    def with_seed(self, seed: int) -> "ExperimentConfig":
        """Copy with a different seed (for repetitions)."""
        return replace(self, seed=seed)

    def cache_key(self) -> str:
        """Canonical content key of this config's *behavior*.

        sha256 of the normalized config document: stable field order,
        defaults filled, label fields (``exp_id``, ``tags``) and the
        ``seed`` excluded — two configs with equal keys denote the
        same simulated run modulo seed.  See
        :mod:`repro.store.keys` for the full identity scheme.
        """
        from ..store.keys import cache_key

        return cache_key(self)

    def scaled(self, waves: int) -> "ExperimentConfig":
        """Copy with a different wave count (cheaper test runs)."""
        return replace(self, waves=waves)


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------

#: Node sweeps per experiment, straight from Table 1.
SRUN_NODES: Tuple[int, ...] = (4,)
SRUN_THROUGHPUT_NODES: Tuple[int, ...] = (1, 2, 4, 16)   # Fig. 5(a) sweep
FLUX1_NODES: Tuple[int, ...] = (1, 4, 16, 64, 256, 1024)
FLUXN_NODES: Tuple[int, ...] = (64, 1024)
FLUXN_PARTITIONS: Tuple[int, ...] = (1, 4, 16, 64)
DRAGON_NODES: Tuple[int, ...] = (1, 4, 16, 64)
HYBRID_NODES: Tuple[int, ...] = (2, 4, 16, 64)
IMPECCABLE_NODES: Tuple[int, ...] = (256, 1024)


def table1_configs(null_workloads: bool = True,
                   seed: int = 0) -> List[ExperimentConfig]:
    """All experiment configurations of Table 1.

    ``null_workloads`` selects the throughput variant (null tasks) for
    the synthetic experiments; otherwise the dummy variant used for
    utilization measurements (180 s sleeps; 360 s for flux_1 and the
    hybrid, per Table 1).
    """
    wl = WORKLOAD_NULL if null_workloads else WORKLOAD_DUMMY
    cfgs: List[ExperimentConfig] = []
    for n in SRUN_NODES:
        cfgs.append(ExperimentConfig(
            exp_id="srun", launcher=LAUNCHER_SRUN, workload=wl,
            n_nodes=n, duration=180.0, seed=seed))
    for n in FLUX1_NODES:
        cfgs.append(ExperimentConfig(
            exp_id="flux_1", launcher=LAUNCHER_FLUX, workload=wl,
            n_nodes=n, duration=360.0, seed=seed))
    for n in FLUXN_NODES:
        for p in FLUXN_PARTITIONS:
            if p > n:
                continue
            cfgs.append(ExperimentConfig(
                exp_id="flux_n", launcher=LAUNCHER_FLUX, workload=wl,
                n_nodes=n, n_partitions=p, duration=180.0, seed=seed))
    for n in DRAGON_NODES:
        cfgs.append(ExperimentConfig(
            exp_id="dragon", launcher=LAUNCHER_DRAGON, workload=wl,
            n_nodes=n, duration=180.0, seed=seed))
    for n in HYBRID_NODES:
        cfgs.append(ExperimentConfig(
            exp_id="flux+dragon", launcher=LAUNCHER_HYBRID,
            workload=WORKLOAD_MIXED, n_nodes=n,
            n_partitions=max(1, n // 4),
            duration=0.0 if null_workloads else 360.0, seed=seed))
    for n in IMPECCABLE_NODES:
        cfgs.append(ExperimentConfig(
            exp_id="impeccable_srun", launcher=LAUNCHER_SRUN,
            workload=WORKLOAD_IMPECCABLE, n_nodes=n, seed=seed))
        cfgs.append(ExperimentConfig(
            exp_id="impeccable_flux", launcher=LAUNCHER_FLUX,
            workload=WORKLOAD_IMPECCABLE, n_nodes=n, seed=seed))
    return cfgs


#: Full-machine scale pass: all of Frontier (9408 nodes) driven as one
#: flux_n configuration with 64 partitions — 147 nodes per partition.
FRONTIER_FULL_NODES = 9408
FRONTIER_FULL_PARTITIONS = 64

#: Weak-scaling sweep toward the full machine at a fixed 147
#: nodes/partition (the full-machine partition size), so each point
#: grows the machine and the partition count together.
FRONTIER_SCALE_POINTS: Tuple[Tuple[int, int], ...] = (
    (588, 4), (2352, 16), (FRONTIER_FULL_NODES, FRONTIER_FULL_PARTITIONS))


def frontier_full_configs(seed: int = 0,
                          waves: int = 4) -> List[ExperimentConfig]:
    """The full-machine weak-scaling family (``frontier_full``).

    Null-workload flux_n runs from 588 nodes up to the whole 9408-node
    machine; at four waves the largest point is ~2.1 M tasks.
    """
    return [
        ExperimentConfig(
            exp_id="frontier_full", launcher=LAUNCHER_FLUX,
            workload=WORKLOAD_NULL, n_nodes=n, n_partitions=p,
            duration=0.0, waves=waves, seed=seed,
            tags={"family": "frontier_full",
                  "nodes_per_partition": str(n // p)})
        for n, p in FRONTIER_SCALE_POINTS
    ]


#: Default fault regime for the resilience experiments: node crashes
#: roughly every 30 simulated minutes across the allocation, a 1 %
#: transient launch-failure rate, and a whole-backend crash about once
#: an hour.  Aggressive relative to production MTBFs, by design — a
#: short run must actually exercise recovery.
DEFAULT_FAULTS = FaultSpec(mtbf=1800.0, p_launch_fail=0.01,
                           backend_mtbf=3600.0)


def faults_configs(seed: int = 0) -> List[ExperimentConfig]:
    """Resilience experiment configurations (the fault-injection runs).

    One per recovery path: Flux partition failover (node crashes +
    broker restart), srun placement-level retry, and Dragon pool
    shrinkage.
    """
    return [
        ExperimentConfig(
            exp_id="faults", launcher=LAUNCHER_FLUX, workload=WORKLOAD_NULL,
            n_nodes=16, n_partitions=4, duration=0.0, waves=2, seed=seed,
            faults=DEFAULT_FAULTS),
        ExperimentConfig(
            exp_id="faults_srun", launcher=LAUNCHER_SRUN,
            workload=WORKLOAD_DUMMY, n_nodes=4, duration=60.0, waves=2,
            seed=seed, faults=DEFAULT_FAULTS),
        ExperimentConfig(
            exp_id="faults_dragon", launcher=LAUNCHER_DRAGON,
            workload=WORKLOAD_NULL, n_nodes=4, duration=0.0, waves=2,
            seed=seed,
            faults=replace(DEFAULT_FAULTS, backend_mtbf=0.0)),
    ]


def config_by_id(exp_id: str, **overrides) -> ExperimentConfig:
    """First Table-1 (or fault-injection) config with the given
    experiment id, with field overrides applied."""
    for cfg in table1_configs() + faults_configs() + frontier_full_configs():
        if cfg.exp_id == exp_id:
            return replace(cfg, **overrides) if overrides else cfg
    raise ConfigurationError(f"unknown experiment id {exp_id!r}")
