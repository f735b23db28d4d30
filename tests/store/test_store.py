"""RunStore mechanics: atomicity, integrity, races, eviction."""

from __future__ import annotations

import hashlib
import json

import pytest

import repro.store.store as store_mod
from repro.exceptions import StoreError
from repro.experiments.configs import config_by_id
from repro.experiments.harness import run_experiment
from repro.store import RunStore
from repro.store.store import export_profile_bytes, result_to_doc


@pytest.fixture(scope="module")
def donor():
    """One real finished run whose artifacts seed every store test."""
    cfg = config_by_id("srun", n_nodes=1, waves=1)
    result = run_experiment(cfg, keep_session=True)
    profile = export_profile_bytes(result.session.profiler)
    result.session.close()
    result.session = None
    result.tasks = []
    return cfg, result, profile


def populate(store: RunStore, donor, seeds=(0,)):
    """Store the donor run under one digest per requested seed."""
    cfg, result, profile = donor
    digests = []
    for seed in seeds:
        digest = store.digest_for(cfg.with_seed(seed))
        assert store.put(digest, cfg.with_seed(seed), result,
                         profile_bytes=profile)
        digests.append(digest)
    return digests


class TestRoundtrip:
    def test_put_fetch_roundtrip(self, tmp_path, donor):
        cfg, result, profile = donor
        store = RunStore(tmp_path / "store")
        (digest,) = populate(store, donor)
        cached = store.fetch(digest)
        assert cached is not None
        assert cached.profile_bytes() == profile
        rebuilt = cached.to_result(cfg)
        assert rebuilt.provenance == "cached"
        assert rebuilt.cache == {"hit": True, "digest": digest}
        assert rebuilt.throughput.avg == result.throughput.avg
        assert rebuilt.makespan == result.makespan
        assert rebuilt.n_tasks == result.n_tasks

    def test_result_doc_roundtrips_faults(self, donor):
        _, result, _ = donor
        doc = result_to_doc(result)
        assert "faults" in doc
        # Frozen keys of the on-disk format, written as constants.
        assert doc["n_shards"] == 0 and doc["shard_peak_rss_mb"] == []
        # json round-trip, as the store actually does it
        doc = json.loads(json.dumps(doc, sort_keys=True))
        from repro.store.store import result_from_doc

        rebuilt = result_from_doc(donor[0], doc)
        assert rebuilt.throughput.peak == result.throughput.peak

    def test_document_without_faults_key_loads(self, donor):
        # result.json documents written before they carried a fault
        # report still load, with no report.
        from repro.store.store import result_from_doc

        cfg, result, _ = donor
        doc = result_to_doc(result)
        del doc["faults"]
        rebuilt = result_from_doc(cfg, doc)
        assert rebuilt.faults is None
        assert rebuilt.makespan == result.makespan

    def test_miss_is_counted(self, tmp_path, donor):
        store = RunStore(tmp_path / "store")
        assert store.fetch("0" * 64) is None
        assert store.stats.misses == 1

    def test_reopen_existing_store(self, tmp_path, donor):
        root = tmp_path / "store"
        (digest,) = populate(RunStore(root), donor)
        assert RunStore(root).fetch(digest) is not None

    def test_foreign_directory_rejected(self, tmp_path):
        (tmp_path / "store.json").write_text('{"format": "other"}')
        with pytest.raises(StoreError):
            RunStore(tmp_path)

    def test_scheme_mismatch_rejected(self, tmp_path):
        (tmp_path / "store.json").write_text(json.dumps({
            "format": store_mod.STORE_FORMAT, "version": 1,
            "key_scheme": -1}))
        with pytest.raises(StoreError):
            RunStore(tmp_path)

    def test_resolve(self, tmp_path):
        assert RunStore.resolve(None) is None
        store = RunStore(tmp_path / "store")
        assert RunStore.resolve(store) is store
        assert RunStore.resolve(str(tmp_path / "store")).root == store.root


class TestIntegrity:
    def test_corrupt_result_quarantined(self, tmp_path, donor):
        store = RunStore(tmp_path / "store")
        (digest,) = populate(store, donor)
        path = store._object_dir(digest) / "result.json"
        path.write_bytes(path.read_bytes().replace(b":", b": ", 1))
        assert store.fetch(digest) is None
        assert store.stats.integrity_failures == 1
        # quarantined: the entry is gone, not served half-broken
        assert not store._object_dir(digest).exists()

    def test_corrupt_profile_detected_on_read(self, tmp_path, donor):
        store = RunStore(tmp_path / "store")
        (digest,) = populate(store, donor)
        blob = store._object_dir(digest) / "profile.jsonl"
        blob.write_bytes(blob.read_bytes()[:-1] + b"X")
        cached = store.fetch(digest)
        assert cached is not None  # result doc itself is intact
        with pytest.raises(StoreError, match="corrupt"):
            cached.profile_bytes()

    def test_unreadable_entry_quarantined(self, tmp_path, donor):
        store = RunStore(tmp_path / "store")
        (digest,) = populate(store, donor)
        (store._object_dir(digest) / "entry.json").write_text("{torn")
        assert store.fetch(digest) is None
        assert store.stats.integrity_failures == 1

    def test_verify_clean_and_dirty(self, tmp_path, donor):
        store = RunStore(tmp_path / "store")
        d1, d2 = populate(store, donor, seeds=(0, 1))
        assert store.verify() == []
        blob = store._object_dir(d1) / "profile.jsonl"
        blob.write_bytes(b"garbage")
        (store._object_dir(d2) / "result.json").unlink()
        problems = store.verify()
        assert len(problems) == 2
        assert any("sha256 mismatch" in p for p in problems)
        assert any("missing artifact" in p for p in problems)
        # verify is read-only: nothing was quarantined
        assert store._object_dir(d1).exists()


class TestConcurrency:
    def test_writer_race_one_winner(self, tmp_path, donor, monkeypatch):
        """A concurrent writer publishing mid-stage loses cleanly."""
        cfg, result, profile = donor
        store = RunStore(tmp_path / "store")
        rival = RunStore(tmp_path / "store")
        digest = store.digest_for(cfg)

        real_result_to_doc = store_mod.result_to_doc

        def publish_rival_first(doc_result):
            # Fires after put()'s early existence check, before its
            # rename — exactly the window a real race would hit.  Once:
            # the rival's own put encodes its result through here too.
            monkeypatch.setattr(store_mod, "result_to_doc",
                                real_result_to_doc)
            assert rival.put(digest, cfg, result, profile_bytes=profile)
            return real_result_to_doc(doc_result)

        monkeypatch.setattr(store_mod, "result_to_doc",
                            publish_rival_first)
        won = store.put(digest, cfg, result, profile_bytes=profile)
        assert won is False
        assert store.stats.lost_races == 1
        # the loser's staging copy is cleaned up; the entry survives
        assert list((store.root / "tmp").iterdir()) == []
        cached = store.fetch(digest)
        assert cached is not None
        assert cached.profile_bytes() == profile

    def test_duplicate_put_is_noop(self, tmp_path, donor):
        cfg, result, profile = donor
        store = RunStore(tmp_path / "store")
        digest = store.digest_for(cfg)
        assert store.put(digest, cfg, result, profile_bytes=profile)
        assert not store.put(digest, cfg, result, profile_bytes=profile)
        assert store.stats.stored == 1

    def test_parallel_threads_race_to_one_winner(self, tmp_path, donor):
        import threading

        cfg, result, profile = donor
        digest = RunStore(tmp_path / "store").digest_for(cfg)
        outcomes = []

        def write():
            s = RunStore(tmp_path / "store")
            outcomes.append(s.put(digest, cfg, result,
                                  profile_bytes=profile))

        threads = [threading.Thread(target=write) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert outcomes.count(True) == 1
        store = RunStore(tmp_path / "store")
        assert store.verify() == []
        assert store.fetch(digest).profile_bytes() == profile


class TestEviction:
    def test_lru_eviction_order(self, tmp_path, donor):
        store = RunStore(tmp_path / "store")
        d1, d2, d3 = populate(store, donor, seeds=(0, 1, 2))
        store.fetch(d1)  # bump d1: d2 is now the LRU entry
        evicted = store.gc(max_entries=2)
        assert evicted == [d2]
        assert store.fetch(d1) is not None
        assert store.fetch(d3) is not None

    def test_max_bytes_evicts_only_down_to_the_cap(self, tmp_path, donor):
        store = RunStore(tmp_path / "store")
        d1, d2, d3 = populate(store, donor, seeds=(0, 1, 2))
        size = max(row["bytes"] for row in store.entries())
        assert store.gc(max_bytes=int(size * 2.5)) == [d1]
        assert {row["digest"] for row in store.entries()} == {d2, d3}

    def test_eviction_never_tears_a_mid_read(self, tmp_path, donor):
        """POSIX rename-to-trash: an open handle keeps its bytes."""
        cfg, result, profile = donor
        store = RunStore(tmp_path / "store")
        (digest,) = populate(store, donor)
        blob = store._object_dir(digest) / "profile.jsonl"
        with blob.open("rb") as fh:
            first = fh.read(1024)  # reader is mid-flight
            assert store.gc(max_entries=0) == [digest]
            assert not store._object_dir(digest).exists()
            data = first + fh.read()
        assert hashlib.sha256(data).hexdigest() \
            == hashlib.sha256(profile).hexdigest()

    def test_uncapped_gc_keeps_entries(self, tmp_path, donor):
        store = RunStore(tmp_path / "store")
        d0, d1, _ = populate(store, donor, seeds=(0, 1, 2))
        store.fetch(d1)
        store.fetch(d0)
        before = store.entries()
        assert store.gc() == []
        assert store.entries() == before


class TestIndex:
    def test_entries_summary(self, tmp_path, donor):
        store = RunStore(tmp_path / "store")
        populate(store, donor, seeds=(0, 1))
        rows = store.entries()
        assert len(rows) == 2
        assert {row["seed"] for row in rows} == {0, 1}
        assert all(row["bytes"] > 0 for row in rows)

    def test_get_by_prefix(self, tmp_path, donor):
        store = RunStore(tmp_path / "store")
        (digest,) = populate(store, donor)
        assert store.get(digest[:10]).digest == digest
        assert store.get("ffff") is None

    def test_ambiguous_prefix_raises(self, tmp_path, donor):
        store = RunStore(tmp_path / "store")
        populate(store, donor, seeds=(0, 1))
        with pytest.raises(StoreError, match="ambiguous"):
            store.get("")

    def test_export(self, tmp_path, donor):
        cfg, result, profile = donor
        store = RunStore(tmp_path / "store")
        (digest,) = populate(store, donor)
        written = store.export(digest, tmp_path / "out")
        assert written["profile.jsonl"].read_bytes() == profile
        doc = json.loads(written["result.json"].read_text())
        assert doc["n_tasks"] == result.n_tasks


def tree_state(root):
    """``(mtime_ns, size)`` of every file and directory under ``root``."""
    return {str(path.relative_to(root)): (path.stat().st_mtime_ns,
                                          path.stat().st_size)
            for path in root.rglob("*")}


class TestObjectsAreTheRecord:
    def test_hit_and_put_never_scan_the_store(self, tmp_path, donor,
                                              monkeypatch):
        """A hit and a put touch only their own entry, so they cost the
        same at any store size; a hit changes one mtime and nothing
        else."""
        store = RunStore(tmp_path / "store")
        d0, _ = populate(store, donor, seeds=(0, 1))
        monkeypatch.setattr(RunStore, "_scan_objects", None)
        before = tree_state(store.root)
        assert store.fetch(d0) is not None
        after = tree_state(store.root)
        entry = str((store._object_dir(d0) / "entry.json")
                    .relative_to(store.root))
        assert after.keys() == before.keys()
        assert {name for name in after if after[name] != before[name]} \
            == {entry}
        assert after[entry][0] > before[entry][0]
        assert after[entry][1] == before[entry][1]
        (d2,) = populate(store, donor, seeds=(2,))
        assert store.fetch(d2) is not None
        assert store.get(d2[:8]).digest == d2
        assert list(store.root.glob("index*")) == []

    def test_ensemble_hit_advances_every_last_access(self, tmp_path):
        from repro.ensemble import run_ensemble

        cfg = config_by_id("srun", n_nodes=1, waves=1)
        store = RunStore(tmp_path / "store")
        seeds = list(range(8))
        run_ensemble(cfg, seeds=seeds, cache=store, parallel=1)
        before = {row["digest"]: row["last_access"]
                  for row in store.entries()}
        served = run_ensemble(cfg, seeds=seeds, cache=store, parallel=1)
        assert all(m.result.provenance == "cached" for m in served.members)
        after = {row["digest"]: row["last_access"]
                 for row in store.entries()}
        assert len(after) == 8 and after.keys() == before.keys()
        assert all(after[digest] > before[digest] for digest in after)

    def test_leftover_index_files_are_ignored(self, tmp_path, donor):
        """A store written with a snapshot/journal index opens, lists,
        gc's and verifies from its objects alone."""
        root = tmp_path / "store"
        (digest,) = populate(RunStore(root), donor)
        (root / "index.json").write_text(json.dumps({
            "journal": [0, 0],
            "entries": {"f" * 64: {"hits": 9, "bytes": 1}}}))
        (root / "index.jsonl").write_text(
            '{"format":"repro-run-store","generation":1}\n'
            + json.dumps({"op": "evict", "digests": [digest]}))
        (root / "index.lock").write_bytes(b"")
        store = RunStore(root)
        assert [row["digest"] for row in store.entries()] == [digest]
        assert store.gc() == []
        assert store.verify() == []
        assert store.fetch(digest) is not None
        for name in ("index.json", "index.jsonl", "index.lock"):
            assert (root / name).exists()
