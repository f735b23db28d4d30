"""Unit tests for the ensemble engine plumbing: seed parsing,
defaults, parallel fan-out, aggregation, and the CLI surface."""

import json

import pytest

from repro.ensemble import (
    EnsembleResult,
    parse_seed_list,
    resolve_seeds,
    run_ensemble,
)
from repro.exceptions import ConfigurationError
from repro.experiments.configs import config_by_id
from repro.experiments.harness import run_experiment, run_repetitions


class TestSeedParsing:
    @pytest.mark.parametrize("spec, expected", [
        ("0", [0]),
        ("1,2,3", [1, 2, 3]),
        ("5-8", [5, 6, 7, 8]),
        ("1,2,5-7,20", [1, 2, 5, 6, 7, 20]),
        ("3,1-2", [3, 1, 2]),          # order preserved
        ("4,4", [4, 4]),               # duplicates kept
        (" 1 , 2 ", [1, 2]),           # whitespace tolerated
    ])
    def test_valid_specs(self, spec, expected):
        assert parse_seed_list(spec) == expected

    @pytest.mark.parametrize("spec", [
        "", ",", "1,,2", "a", "1-", "-3", "7-4", "1.5", "2,-1",
    ])
    def test_invalid_specs(self, spec):
        with pytest.raises(ConfigurationError):
            parse_seed_list(spec)

    def test_resolve_seeds(self):
        assert resolve_seeds("1-3") == [1, 2, 3]
        assert resolve_seeds([3, 1]) == [3, 1]
        assert resolve_seeds(range(2)) == [0, 1]
        with pytest.raises(ConfigurationError):
            resolve_seeds([])
        with pytest.raises(ConfigurationError):
            resolve_seeds([-1])


CFG = config_by_id("srun", n_nodes=1, waves=1)


class TestRunEnsemble:
    def test_default_seeds_match_run_repetitions(self):
        # The default seeds are cfg.seed + rep, and the aggregate is the
        # paper's avg/max over independent per-seed runs.
        runs = [run_experiment(CFG.with_seed(CFG.seed + rep))
                for rep in range(3)]
        agg_ens = run_ensemble(CFG).aggregate()
        assert agg_ens.n_reps == 3
        assert [r.config.seed for r in agg_ens.results] == \
            [r.config.seed for r in runs]
        assert agg_ens.throughput_avg == \
            sum(r.throughput.avg for r in runs) / 3
        assert agg_ens.throughput_max == \
            max(r.throughput.peak for r in runs)
        assert agg_ens.utilization_avg == \
            sum(r.utilization_cores for r in runs) / 3
        assert agg_ens.makespan_avg == sum(r.makespan for r in runs) / 3

    def test_seed_spec_string(self):
        ens = run_ensemble(CFG, seeds="10,2-3")
        assert ens.seeds == (10, 2, 3)
        assert [m.result.config.seed for m in ens.members] == [10, 2, 3]

    def test_seeds_and_n_reps_conflict(self):
        with pytest.raises(ConfigurationError):
            run_ensemble(CFG, seeds=[1], n_reps=2)

    def test_parallel_equals_serial(self, tmp_path):
        serial = run_ensemble(CFG, seeds="0-5",
                              profile_dir=str(tmp_path / "ser"))
        par = run_ensemble(CFG, seeds="0-5", parallel=2,
                           profile_dir=str(tmp_path / "par"))
        assert par.n_workers == 2
        assert serial.seeds == par.seeds
        for ms, mp in zip(serial.members, par.members):
            assert ms.result.throughput == mp.result.throughput
            assert ms.result.makespan == mp.result.makespan
            with open(ms.profile_path, "rb") as a, \
                    open(mp.profile_path, "rb") as b:
                assert a.read() == b.read()

    def test_results_property_and_wall_accounting(self):
        ens = run_ensemble(CFG, seeds=[0, 1])
        assert isinstance(ens, EnsembleResult)
        assert len(ens.results) == 2
        assert ens.wall_seconds > 0
        assert ens.wall_seconds_per_seed == pytest.approx(
            ens.wall_seconds / 2)
        for member in ens.members:
            assert member.result.wall_seconds == pytest.approx(
                ens.wall_seconds_per_seed)

    def test_harness_reexport(self):
        from repro.experiments import run_ensemble as harness_run_ensemble

        ens = harness_run_ensemble(CFG, seeds=[0])
        assert ens.engine == "vectorized"


class TestRunRepetitionsSeeds:
    def test_explicit_seeds_equal_derived(self):
        derived = run_repetitions(CFG, n_reps=2)
        explicit = run_repetitions(CFG, seeds=[CFG.seed, CFG.seed + 1])
        assert explicit.n_reps == 2
        assert explicit.throughput_avg == derived.throughput_avg
        assert explicit.makespan_avg == derived.makespan_avg

    def test_seed_spec_string(self):
        agg = run_repetitions(CFG, seeds="5-6")
        assert [r.config.seed for r in agg.results] == [5, 6]


class TestCli:
    def test_run_ensemble_cli(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        out = tmp_path / "profiles"
        rc = main(["run", "srun", "--nodes", "1", "--waves", "1",
                   "--seeds", "0-2", "--profile-dir", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "vectorized" in printed
        assert sorted(p.name for p in out.iterdir()) == [
            "profile-seed0.jsonl", "profile-seed1.jsonl",
            "profile-seed2.jsonl"]
        # every exported line is valid JSON (well-formed profile)
        first = (out / "profile-seed0.jsonl").read_text().splitlines()
        assert json.loads(first[0])["format"] == "repro-profile"

    def test_run_seeds_without_ensemble(self, capsys):
        from repro.experiments.__main__ import main

        rc = main(["run", "srun", "--nodes", "1", "--waves", "1",
                   "--seeds", "0,1"])
        assert rc == 0
        assert "avg tasks/s" in capsys.readouterr().out

    def test_bad_seed_spec_is_user_error(self, capsys):
        from repro.experiments.__main__ import main

        rc = main(["run", "srun", "--seeds", "7-3"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
