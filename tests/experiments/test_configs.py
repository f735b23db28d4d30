"""Unit tests for the Table-1 experiment configurations."""

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments import ExperimentConfig, config_by_id, table1_configs


class TestValidation:
    def test_unknown_launcher(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(exp_id="x", launcher="mesos", workload="null",
                             n_nodes=1)

    def test_unknown_workload(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(exp_id="x", launcher="flux", workload="spin",
                             n_nodes=1)

    def test_hybrid_needs_two_nodes(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(exp_id="x", launcher="flux+dragon",
                             workload="mixed", n_nodes=1)

    def test_with_seed(self):
        cfg = ExperimentConfig(exp_id="x", launcher="flux", workload="null",
                               n_nodes=4, seed=0)
        assert cfg.with_seed(3).seed == 3
        assert cfg.seed == 0

    def test_scaled(self):
        cfg = ExperimentConfig(exp_id="x", launcher="flux", workload="null",
                               n_nodes=4)
        assert cfg.scaled(1).waves == 1


class TestTable1:
    def test_all_seven_experiments_present(self):
        ids = {c.exp_id for c in table1_configs()}
        assert ids == {"srun", "flux_1", "flux_n", "dragon", "flux+dragon",
                       "impeccable_srun", "impeccable_flux"}

    def test_flux1_node_sweep(self):
        nodes = sorted(c.n_nodes for c in table1_configs()
                       if c.exp_id == "flux_1")
        assert nodes == [1, 4, 16, 64, 256, 1024]

    def test_fluxn_partition_sweep(self):
        pairs = {(c.n_nodes, c.n_partitions) for c in table1_configs()
                 if c.exp_id == "flux_n"}
        assert (64, 1) in pairs and (64, 64) in pairs
        assert (1024, 16) in pairs

    def test_dragon_node_sweep(self):
        nodes = sorted(c.n_nodes for c in table1_configs()
                       if c.exp_id == "dragon")
        assert nodes == [1, 4, 16, 64]

    def test_impeccable_scales(self):
        nodes = sorted(c.n_nodes for c in table1_configs()
                       if c.exp_id.startswith("impeccable"))
        assert nodes == [256, 256, 1024, 1024]

    def test_flux1_uses_360s_dummy(self):
        cfg = config_by_id("flux_1")
        assert cfg.duration == 360.0

    def test_dummy_variant(self):
        cfgs = table1_configs(null_workloads=False)
        srun = next(c for c in cfgs if c.exp_id == "srun")
        assert srun.workload == "dummy"

    def test_config_by_id_with_overrides(self):
        cfg = config_by_id("flux_n", n_nodes=16, n_partitions=2)
        assert cfg.n_nodes == 16
        assert cfg.n_partitions == 2

    def test_config_by_id_unknown(self):
        with pytest.raises(ConfigurationError):
            config_by_id("nonexistent")


class TestFrontierFullFamily:
    def test_weak_scaling_points(self):
        from repro.experiments.configs import (
            FRONTIER_SCALE_POINTS,
            frontier_full_configs,
        )

        cfgs = frontier_full_configs()
        assert [(c.n_nodes, c.n_partitions) for c in cfgs] == \
            list(FRONTIER_SCALE_POINTS)
        # fixed nodes/partition across the sweep (weak scaling)
        assert {c.n_nodes // c.n_partitions for c in cfgs} == {147}

    def test_full_machine_point(self):
        from repro.experiments.configs import frontier_full_configs

        full = frontier_full_configs()[-1]
        assert full.n_nodes == 9408
        assert full.n_partitions == 64
        assert full.launcher == "flux"
        assert full.workload == "null"
        # ~2.1M tasks at the default four waves
        assert full.n_nodes * 56 * full.waves == 2_107_392

    def test_config_by_id_resolves_family(self):
        cfg = config_by_id("frontier_full", waves=1)
        assert cfg.exp_id == "frontier_full"
        assert cfg.waves == 1
