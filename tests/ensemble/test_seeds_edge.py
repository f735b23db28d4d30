"""Edge cases of the seed-spec grammar and its CLI round-trip.

``parse_seed_list`` has three deliberate behaviors worth pinning on
their own: descending ranges are *errors* (silently yielding an empty
range — ``range(20, 6)`` — would drop seeds without a trace),
duplicates and overlapping ranges are *kept in order* (re-running a
seed is a deterministic no-op, useful for A/B timing), and
single-element ranges are just verbose singletons.  The CLI round-trip
then pins that member ordering follows the spec order end to end, not
a sorted or de-duplicated view.
"""

import pytest

from repro.ensemble import parse_seed_list, resolve_seeds, run_ensemble
from repro.exceptions import ConfigurationError
from repro.experiments.configs import config_by_id


class TestReversedRanges:
    @pytest.mark.parametrize("spec", ["20-5", "1-0", "9-8", "0,20-5,3"])
    def test_descending_range_is_rejected(self, spec):
        with pytest.raises(ConfigurationError, match="descending"):
            parse_seed_list(spec)

    def test_message_names_offending_entry(self):
        with pytest.raises(ConfigurationError, match="20-5"):
            parse_seed_list("1,20-5")


class TestOverlapsAndDuplicates:
    @pytest.mark.parametrize("spec, expected", [
        ("1-3,2-4", [1, 2, 3, 2, 3, 4]),      # overlapping ranges kept
        ("5,5,5", [5, 5, 5]),                 # explicit duplicates kept
        ("0-2,1", [0, 1, 2, 1]),              # range + repeated single
        ("7,1-3,7", [7, 1, 2, 3, 7]),         # order preserved verbatim
    ])
    def test_kept_in_spec_order(self, spec, expected):
        assert parse_seed_list(spec) == expected

    def test_resolve_keeps_duplicate_sequence(self):
        assert resolve_seeds([2, 2, 1]) == [2, 2, 1]

    def test_duplicate_seeds_run_as_separate_members(self):
        cfg = config_by_id("srun", n_nodes=1, waves=1)
        ens = run_ensemble(cfg, seeds="3,3")
        assert [m.seed for m in ens.members] == [3, 3]
        a, b = (m.result for m in ens.members)
        assert (a.makespan, a.throughput) == (b.makespan, b.throughput)


class TestSingleElementRanges:
    @pytest.mark.parametrize("spec, expected", [
        ("4-4", [4]),
        ("0-0", [0]),
        ("4-4,4", [4, 4]),
        ("1,3-3,5", [1, 3, 5]),
    ])
    def test_degenerate_range_is_singleton(self, spec, expected):
        assert parse_seed_list(spec) == expected


class TestCliRoundTrip:
    def test_member_ordering_follows_spec(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        out = tmp_path / "profiles"
        # Out-of-order spec with an overlap: exports must exist for
        # exactly the distinct seeds, and the run must succeed with
        # members in spec order (5, 0, 1, 2, 1).
        rc = main(["run", "srun", "--nodes", "1", "--waves", "1",
                   "--seeds", "5,0-2,1",
                   "--profile-dir", str(out)])
        assert rc == 0
        assert "5" in capsys.readouterr().out  # seed count column
        assert sorted(p.name for p in out.iterdir()) == [
            "profile-seed0.jsonl", "profile-seed1.jsonl",
            "profile-seed2.jsonl", "profile-seed5.jsonl"]

    def test_spec_order_is_member_order(self):
        cfg = config_by_id("srun", n_nodes=1, waves=1)
        ens = run_ensemble(cfg, seeds="5,0-2,1")
        assert [m.seed for m in ens.members] == [5, 0, 1, 2, 1]
        assert ens.seeds == (5, 0, 1, 2, 1)
        assert [m.result.config.seed for m in ens.members] == [5, 0, 1, 2, 1]

    def test_reversed_range_fails_cli(self, capsys):
        from repro.experiments.__main__ import main

        rc = main(["run", "srun", "--seeds", "20-5"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
