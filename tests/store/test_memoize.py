"""Memoized simulation: hits are sound, misses populate, sweeps
cache at per-seed granularity."""

from __future__ import annotations

import pytest

import repro.store.keys as keys_mod
from repro.ensemble import run_ensemble
from repro.experiments.configs import config_by_id
from repro.experiments.harness import run_experiment, run_repetitions
from repro.store import RunStore
from repro.store.store import export_profile_bytes


def quick_cfg(**overrides):
    return config_by_id("srun", n_nodes=1, waves=1, **overrides)


class TestRunExperiment:
    def test_cold_then_warm(self, tmp_path):
        cfg = quick_cfg()
        cold = run_experiment(cfg, cache=tmp_path / "store")
        assert cold.provenance == "fresh"
        assert cold.cache == {"digest": cold.cache["digest"],
                              "hit": False, "stored": True}
        warm = run_experiment(cfg, cache=tmp_path / "store")
        assert warm.provenance == "cached"
        assert warm.cache["hit"] is True
        assert warm.cache["digest"] == cold.cache["digest"]

    def test_hit_metrics_equal_fresh(self, tmp_path):
        cfg = quick_cfg()
        cold = run_experiment(cfg, cache=tmp_path / "store")
        warm = run_experiment(cfg, cache=tmp_path / "store")
        assert warm.throughput.avg == cold.throughput.avg
        assert warm.throughput.peak == cold.throughput.peak
        assert warm.utilization_cores == cold.utilization_cores
        assert warm.makespan == cold.makespan
        assert warm.n_tasks == cold.n_tasks
        assert warm.n_done == cold.n_done
        assert warm.startup_overheads == cold.startup_overheads

    def test_cached_profile_byte_identical_to_fresh(self, tmp_path):
        cfg = quick_cfg()
        baseline = run_experiment(cfg, keep_session=True)
        fresh_bytes = export_profile_bytes(baseline.session.profiler)
        baseline.session.close()

        cold = run_experiment(cfg, cache=tmp_path / "store")
        store = RunStore(tmp_path / "store")
        cached = store.fetch(cold.cache["digest"])
        assert cached.profile_bytes() == fresh_bytes

    def test_cache_off_is_default_and_inert(self, tmp_path):
        result = run_experiment(quick_cfg())
        assert result.provenance == "fresh"
        assert result.cache is None

    def test_keep_session_bypasses_read_still_populates(self, tmp_path):
        cfg = quick_cfg()
        run_experiment(cfg, cache=tmp_path / "store")
        live = run_experiment(cfg, keep_session=True,
                              cache=tmp_path / "store")
        assert live.provenance == "fresh"       # simulated, not served
        assert live.session is not None
        assert live.cache["hit"] is False
        assert live.cache["stored"] is False    # entry already there
        live.session.close()

    def test_code_fingerprint_change_forces_miss(self, tmp_path,
                                                 monkeypatch):
        cfg = quick_cfg()
        cold = run_experiment(cfg, cache=tmp_path / "store")
        monkeypatch.setattr(keys_mod, "code_fingerprint",
                            lambda *a, **k: "f" * 64)
        rerun = run_experiment(cfg, cache=tmp_path / "store")
        assert rerun.provenance == "fresh"
        assert rerun.cache["digest"] != cold.cache["digest"]

    def test_different_seed_misses(self, tmp_path):
        run_experiment(quick_cfg(), cache=tmp_path / "store")
        other = run_experiment(quick_cfg(seed=7), cache=tmp_path / "store")
        assert other.provenance == "fresh"

    def test_wall_seconds_reflects_lookup_not_stored_run(self, tmp_path):
        cfg = quick_cfg()
        cold = run_experiment(cfg, cache=tmp_path / "store")
        warm = run_experiment(cfg, cache=tmp_path / "store")
        assert warm.wall_seconds < cold.wall_seconds


class TestSweeps:
    def test_repetitions_per_seed_granularity(self, tmp_path):
        cfg = quick_cfg()
        store = tmp_path / "store"
        # pre-store 2 of the 4 seeds
        run_experiment(cfg.with_seed(cfg.seed + 1), cache=store)
        run_experiment(cfg.with_seed(cfg.seed + 3), cache=store)
        agg = run_repetitions(cfg, n_reps=4, cache=store)
        assert agg.provenance == {"cached": 2, "fresh": 2}
        again = run_repetitions(cfg, n_reps=4, cache=store)
        assert again.provenance == {"cached": 4}
        assert again.throughput_avg == agg.throughput_avg
        assert again.makespan_avg == agg.makespan_avg

    def test_parallel_repetitions_share_store(self, tmp_path):
        cfg = quick_cfg()
        store = tmp_path / "store"
        agg = run_repetitions(cfg, n_reps=4, parallel=2, cache=store)
        assert agg.provenance == {"fresh": 4}
        warm = run_repetitions(cfg, n_reps=4, parallel=2, cache=store)
        assert warm.provenance == {"cached": 4}
        assert warm.throughput_avg == agg.throughput_avg

    def test_serial_and_parallel_agree_through_cache(self, tmp_path):
        cfg = quick_cfg()
        serial = run_repetitions(cfg, n_reps=3)
        cached = run_repetitions(cfg, n_reps=3,
                                 cache=tmp_path / "store")
        warm = run_repetitions(cfg, n_reps=3, cache=tmp_path / "store")
        for agg in (cached, warm):
            assert agg.throughput_avg == serial.throughput_avg
            assert agg.throughput_max == serial.throughput_max
            assert agg.makespan_avg == serial.makespan_avg

    def test_torn_entry_is_rerun_on_restart(self, tmp_path):
        # A restarted sweep never serves a damaged entry: fetch fails
        # its hash check, quarantines it, and the seed simulates again.
        cfg = quick_cfg()
        store = RunStore(tmp_path / "store")
        first = run_repetitions(cfg, n_reps=3, cache=store)
        digest = store.digest_for(cfg.with_seed(cfg.seed + 1))
        result_path = store._object_dir(digest) / "result.json"
        result_path.write_bytes(result_path.read_bytes()[:20])
        again = run_repetitions(cfg, n_reps=3, cache=store)
        assert again.provenance == {"cached": 2, "fresh": 1}
        assert again.results[1].provenance == "fresh"
        assert store.stats.integrity_failures == 1
        assert again.throughput_avg == first.throughput_avg
        assert store.fetch(digest) is not None

    def test_cached_faulty_seeds_keep_their_fault_report(self, tmp_path):
        from repro.faults import FaultSpec

        cfg = quick_cfg(faults=FaultSpec(p_launch_fail=0.05))
        store = tmp_path / "store"
        fresh = run_repetitions(cfg, n_reps=2, cache=store)
        warm = run_repetitions(cfg, n_reps=2, cache=store)
        assert warm.provenance == {"cached": 2}
        for a, b in zip(fresh.results, warm.results):
            assert a.faults is not None
            assert b.faults == a.faults

    def test_telemetry_counts_cached_members(self, tmp_path):
        cfg = quick_cfg()
        store = tmp_path / "store"
        run_repetitions(cfg, n_reps=3, cache=store)
        records = []
        run_repetitions(cfg, n_reps=3, cache=store,
                        progress=records.append)
        assert records
        last = records[-1]
        assert last["members_done"] == 3
        assert last["members_cached"] == 3


class TestEnsemble:
    def test_vectorized_engine_uses_store(self, tmp_path):
        cfg = quick_cfg()
        store = tmp_path / "store"
        first = run_ensemble(cfg, seeds=[0, 1, 2, 3], cache=store)
        assert first.engine == "vectorized"
        assert first.aggregate().provenance == {"fresh": 4}
        second = run_ensemble(cfg, seeds=[0, 1, 2, 3, 4], cache=store)
        assert second.aggregate().provenance == {"cached": 4, "fresh": 1}
        for a, b in zip(first.results, second.results):
            assert a.throughput.avg == b.throughput.avg
            assert a.makespan == b.makespan

    def test_replay_engine_uses_store(self, tmp_path):
        # flux_n with real partitions stays on the replay engine
        # (flux_1/dragon vectorize nowadays).
        cfg = config_by_id("flux_n", n_nodes=2, n_partitions=2, waves=1)
        store = tmp_path / "store"
        first = run_ensemble(cfg, seeds=[0, 1], cache=store)
        assert first.engine == "replay"
        second = run_ensemble(cfg, seeds=[0, 1, 2], cache=store)
        assert second.aggregate().provenance == {"cached": 2, "fresh": 1}

    def test_replay_counts_one_lookup_per_seed(self, tmp_path):
        # The replay engine writes through run_experiment, which skips
        # the read for seeds the sweep already looked up: one miss and
        # one put per simulated seed, nothing counted twice.
        from repro.store.store import STATS

        cfg = config_by_id("flux_n", n_nodes=2, n_partitions=2, waves=1)
        store = tmp_path / "store"
        run_ensemble(cfg, seeds=[0, 1], cache=store)
        before = STATS.snapshot()
        run_ensemble(cfg, seeds=[0, 1, 2], cache=store)
        delta = STATS.delta(before)
        assert (delta["hits"], delta["misses"], delta["stored"]) == (2, 1, 1)

    def test_cached_profile_dir_exports_byte_identical(self, tmp_path):
        cfg = quick_cfg()
        store = tmp_path / "store"
        plain = run_ensemble(cfg, seeds=[5, 6],
                             profile_dir=str(tmp_path / "plain"))
        run_ensemble(cfg, seeds=[5, 6], cache=store)
        served = run_ensemble(cfg, seeds=[5, 6], cache=store,
                              profile_dir=str(tmp_path / "served"))
        assert served.aggregate().provenance == {"cached": 2}
        for member, original in zip(served.members, plain.members):
            with open(member.profile_path, "rb") as got, \
                    open(original.profile_path, "rb") as want:
                assert got.read() == want.read()

    @pytest.mark.parametrize("exp_id, n_nodes",
                             [("srun", 4), ("flux_1", 1), ("dragon", 1)])
    def test_vectorized_miss_stores_independent_profile(self, tmp_path,
                                                        exp_id, n_nodes):
        # The store holds what the vectorized engine wrote from its
        # columns; each blob must be save_profile of an independent
        # run, and a warm --profile-dir sweep must serve those bytes.
        from repro.analytics import save_profile

        cfg = config_by_id(exp_id, n_nodes=n_nodes, waves=1)
        seeds = [40, 41, 42, 43]
        store = RunStore(tmp_path / "store")
        cold = run_ensemble(cfg, seeds=seeds, cache=store)
        assert cold.engine == "vectorized"
        assert cold.aggregate().provenance == {"fresh": 4}
        stored = {}
        for seed in seeds:
            ref = run_experiment(cfg.with_seed(seed), keep_session=True)
            path = tmp_path / f"ref-{seed}.jsonl"
            save_profile(ref.session.profiler, path)
            ref.session.close()
            hit = store.fetch(store.digest_for(cfg, seed=seed), touch=False)
            stored[seed] = hit.profile_bytes()
            assert stored[seed] == path.read_bytes(), seed
        warm = run_ensemble(cfg, seeds=seeds, cache=store,
                            profile_dir=str(tmp_path / "served"))
        assert warm.aggregate().provenance == {"cached": 4}
        for member in warm.members:
            with open(member.profile_path, "rb") as got:
                assert got.read() == stored[member.seed]

    def test_sweep_computes_cache_key_once(self, tmp_path, monkeypatch):
        # The key does not depend on the seed: one per request, not
        # one per member digest and put.
        import repro.store as store_pkg
        import repro.store.store as store_mod

        calls = []
        real = keys_mod.cache_key

        def counting(cfg):
            calls.append(cfg)
            return real(cfg)

        for module in (keys_mod, store_mod, store_pkg):
            monkeypatch.setattr(module, "cache_key", counting)
        ens = run_ensemble(quick_cfg(), seeds=[0, 1, 2, 3],
                           cache=tmp_path / "store")
        assert ens.aggregate().provenance == {"fresh": 4}
        assert len(calls) == 1

    def test_parallel_ensemble_workers_share_store(self, tmp_path):
        cfg = quick_cfg()
        store = tmp_path / "store"
        run_ensemble(cfg, seeds=[0, 1, 2], cache=store)
        mixed = run_ensemble(cfg, seeds=[0, 1, 2, 3], cache=store,
                             parallel=2)
        assert mixed.aggregate().provenance == {"cached": 3, "fresh": 1}

    def test_aggregate_matches_uncached(self, tmp_path):
        cfg = quick_cfg()
        plain = run_ensemble(cfg, seeds=[0, 1, 2]).aggregate()
        run_ensemble(cfg, seeds=[0, 1, 2], cache=tmp_path / "store")
        warm = run_ensemble(cfg, seeds=[0, 1, 2],
                            cache=tmp_path / "store").aggregate()
        assert warm.throughput_avg == plain.throughput_avg
        assert warm.utilization_avg == plain.utilization_avg
        assert warm.makespan_avg == plain.makespan_avg


class TestManifest:
    def test_manifest_records_provenance_only_with_cache(self, tmp_path):
        from repro.observability.manifest import build_manifest

        cfg = quick_cfg()
        plain = run_experiment(cfg)
        doc = build_manifest(config=cfg, result=plain)
        assert "provenance" not in doc["result"]
        assert "cache" not in doc["result"]

        cached = run_experiment(cfg, cache=tmp_path / "store")
        doc = build_manifest(config=cfg, result=cached)
        assert doc["result"]["provenance"] == "fresh"
        assert doc["result"]["cache"]["hit"] is False

    def test_bundle_run_populates_store(self, tmp_path):
        cfg = quick_cfg()
        result = run_experiment(cfg, bundle=str(tmp_path / "bundle"),
                                cache=tmp_path / "store")
        assert result.provenance == "fresh"  # bundles need a session
        store = RunStore(tmp_path / "store")
        assert store.fetch(result.cache["digest"]) is not None
