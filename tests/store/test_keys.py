"""Canonical run identity: normalization, exclusions, fingerprints."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from repro.experiments.configs import config_by_id
from repro.store.keys import (
    CACHE_KEY_EXCLUDED,
    cache_key,
    code_fingerprint,
    normalize_config,
    run_digest,
)


def cfg(**overrides):
    return config_by_id("srun", n_nodes=1, waves=1, **overrides)


class TestNormalization:
    def test_excluded_fields_absent(self):
        doc = normalize_config(cfg())
        for name in CACHE_KEY_EXCLUDED:
            assert name not in doc

    def test_behavior_fields_present(self):
        doc = normalize_config(cfg())
        for name in ("launcher", "workload", "n_nodes", "n_partitions",
                     "duration", "waves"):
            assert name in doc

    def test_json_serializable_with_defaults_filled(self):
        import json

        doc = normalize_config(cfg())
        json.dumps(doc, sort_keys=True, default=repr)  # must not raise


class TestCacheKey:
    def test_stable_across_calls(self):
        assert cache_key(cfg()) == cache_key(cfg())

    def test_seed_excluded(self):
        assert cache_key(cfg(seed=0)) == cache_key(cfg(seed=999))

    def test_labels_excluded(self):
        base = cfg()
        relabeled = replace(base, exp_id="renamed",
                            tags={"campaign": "x"})
        assert cache_key(base) == cache_key(relabeled)

    def test_only_labels_and_seed_excluded(self):
        # Every other field changes the simulated run, so excluding it
        # would let one run be served another's result.
        assert CACHE_KEY_EXCLUDED == ("exp_id", "tags", "seed")

    def test_behavior_fields_included(self):
        base = cfg()
        assert cache_key(base) != cache_key(replace(base, waves=2))
        assert cache_key(base) != cache_key(replace(base, n_nodes=2))
        assert cache_key(base) != cache_key(replace(base, duration=5.0))

    def test_config_method_delegates(self):
        c = cfg()
        assert c.cache_key() == cache_key(c)


class TestRunDigest:
    def test_per_seed_granularity(self):
        c = cfg()
        d0 = run_digest(c, seed=0)
        d1 = run_digest(c, seed=1)
        assert d0 != d1
        # and seed defaults to cfg.seed
        assert run_digest(c) == run_digest(c, seed=c.seed)

    def test_seed_equivalent_configs_share_digest(self):
        # with_seed(s) on the base config and an explicit seed= on the
        # digest are the same run — the sweep fast path relies on it.
        c = cfg()
        assert run_digest(c, seed=7) == run_digest(c.with_seed(7))
        # A sweep computes the config's key once for all its seeds.
        assert run_digest(c, seed=7, key=cache_key(c)) == \
            run_digest(c.with_seed(7))

    def test_golden_digest(self):
        # Pins the key document (scheme, config key, seed, the literal
        # "derived" workload field, code fingerprint): any change to it
        # re-keys every stored run and must bump KEY_SCHEME.
        assert run_digest(cfg(), seed=0, fingerprint="0" * 64) == (
            "3c9d4fc54b24fb18a5b588e788bf4dab"
            "5be88b53eefd4e88b8d936b96045c162")

    def test_fingerprint_component(self):
        c = cfg()
        assert run_digest(c, fingerprint="a" * 64) \
            != run_digest(c, fingerprint="b" * 64)


class TestCodeFingerprint:
    def test_memoized_and_stable(self):
        assert code_fingerprint() == code_fingerprint()

    def test_memoized_call_resolves_nothing(self, monkeypatch):
        code_fingerprint()
        calls = []
        real_resolve = Path.resolve

        def counting_resolve(self, *args, **kwargs):
            calls.append(self)
            return real_resolve(self, *args, **kwargs)

        monkeypatch.setattr(Path, "resolve", counting_resolve)
        code_fingerprint()
        code_fingerprint()
        assert calls == []

    def test_source_change_invalidates(self, tmp_path: Path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "a.py").write_text("x = 1\n")
        before = code_fingerprint(pkg, refresh=True)
        (pkg / "a.py").write_text("x = 2\n")
        assert code_fingerprint(pkg, refresh=True) != before

    def test_new_file_invalidates(self, tmp_path: Path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "a.py").write_text("x = 1\n")
        before = code_fingerprint(pkg, refresh=True)
        (pkg / "b.py").write_text("y = 1\n")
        assert code_fingerprint(pkg, refresh=True) != before

    def test_non_python_files_ignored(self, tmp_path: Path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "a.py").write_text("x = 1\n")
        before = code_fingerprint(pkg, refresh=True)
        (pkg / "notes.md").write_text("irrelevant\n")
        assert code_fingerprint(pkg, refresh=True) == before
