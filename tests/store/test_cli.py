"""The ``store`` subcommand and ``run --cache`` CLI surface."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import StoreError
from repro.experiments.__main__ import main
from repro.store.cli import parse_filters


class TestParseFilters:
    def test_equality(self):
        assert parse_filters(["launcher=flux"]) == {"launcher": "flux"}

    def test_comparison_operators(self):
        assert parse_filters(["n_nodes>=64"]) == {"n_nodes__ge": 64}
        assert parse_filters(["n_nodes<=4"]) == {"n_nodes__le": 4}
        assert parse_filters(["seed!=0"]) == {"seed__ne": 0}
        assert parse_filters(["makespan<9.5"]) == {"makespan__lt": 9.5}
        assert parse_filters(["n_tasks>10"]) == {"n_tasks__gt": 10}

    def test_value_coercion(self):
        where = parse_filters(["a=1", "b=1.5", "c=true", "d=text"])
        assert where == {"a": 1, "b": 1.5, "c": True, "d": "text"}

    def test_bad_token_raises(self):
        with pytest.raises(StoreError, match="bad filter"):
            parse_filters(["launcher"])


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    """A store populated through the real CLI (two runs, one cached)."""
    root = tmp_path_factory.mktemp("clistore")
    store = str(root / "store")
    args = ["run", "srun", "--nodes", "1", "--waves", "1",
            "--cache", store]
    assert main(args) == 0
    assert main(args) == 0  # second invocation hits
    assert main(["run", "srun", "--nodes", "2", "--waves", "1",
                 "--cache", store]) == 0
    return store


class TestRunCache:
    def test_miss_then_hit_lines(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        args = ["run", "srun", "--nodes", "1", "--waves", "1",
                "--cache", store]
        assert main(args) == 0
        assert "cache: miss" in capsys.readouterr().err
        assert main(args) == 0
        assert "cache: hit" in capsys.readouterr().err

    def test_sweep_summary_line(self, store_dir, capsys):
        assert main(["run", "srun", "--nodes", "1", "--waves", "1",
                     "--reps", "2", "--cache", store_dir]) == 0
        err = capsys.readouterr().err
        assert "cache: 1 hit(s), 1 simulated" in err

    def test_ensemble_summary_line(self, store_dir, capsys):
        assert main(["run", "srun", "--nodes", "1", "--waves", "1",
                     "--seeds", "0,1", "--cache", store_dir]) == 0
        err = capsys.readouterr().err
        assert "cache:" in err and "hit(s)" in err


class TestStoreCommand:
    def test_ls(self, store_dir, capsys):
        assert main(["store", "ls", store_dir]) == 0
        out = capsys.readouterr().out
        assert "digest" in out
        assert "run(s) in" in out

    def test_ls_json(self, store_dir, capsys):
        assert main(["store", "ls", store_dir, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) >= 2
        assert all("digest" in row for row in rows)

    def test_get_by_prefix(self, store_dir, capsys):
        main(["store", "ls", store_dir, "--json"])
        digest = json.loads(capsys.readouterr().out)[0]["digest"]
        assert main(["store", "get", store_dir, digest[:12],
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["digest"] == digest
        assert doc["result"]["n_tasks"] > 0

    def test_get_unknown(self, store_dir, capsys):
        assert main(["store", "get", store_dir, "ffff"]) == 1
        assert "no store entry" in capsys.readouterr().err

    def test_get_export(self, store_dir, tmp_path, capsys):
        main(["store", "ls", store_dir, "--json"])
        digest = json.loads(capsys.readouterr().out)[0]["digest"]
        out = tmp_path / "export"
        assert main(["store", "get", store_dir, digest,
                     "--out", str(out)]) == 0
        assert (out / "profile.jsonl").exists()
        assert (out / "result.json").exists()

    def test_query_filters(self, store_dir, capsys):
        assert main(["store", "query", store_dir, "n_nodes>=2",
                     "--json"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert all(doc["config"]["n_nodes"] >= 2 for doc in docs)
        assert docs

    def test_query_near(self, store_dir, capsys):
        main(["store", "ls", store_dir, "--json"])
        digest = json.loads(capsys.readouterr().out)[0]["digest"]
        assert main(["store", "query", store_dir, "--near", digest,
                     "-k", "1", "--json"]) == 0
        pairs = json.loads(capsys.readouterr().out)
        assert len(pairs) == 1
        assert "distance" in pairs[0]

    def test_query_compare(self, store_dir, capsys):
        main(["store", "ls", store_dir, "--json"])
        digests = [r["digest"]
                   for r in json.loads(capsys.readouterr().out)][:2]
        assert main(["store", "query", store_dir,
                     "--compare", *digests]) == 0
        out = capsys.readouterr().out
        assert "throughput_avg" in out and "makespan" in out

    def test_verify_ok_and_corrupt(self, store_dir, capsys):
        assert main(["store", "verify", store_dir]) == 0
        assert "ok" in capsys.readouterr().out
        from repro.store import RunStore

        store = RunStore(store_dir)
        digest = store.entries()[0]["digest"]
        blob = store._object_dir(digest) / "profile.jsonl"
        original = blob.read_bytes()
        try:
            blob.write_bytes(b"garbage")
            assert main(["store", "verify", store_dir]) == 1
            assert "sha256 mismatch" in capsys.readouterr().err
        finally:
            blob.write_bytes(original)

    def test_gc(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        for seed in ("0", "1", "2"):
            assert main(["run", "srun", "--nodes", "1", "--waves", "1",
                         "--seeds", seed, "--cache", store]) == 0
        capsys.readouterr()
        assert main(["store", "gc", store, "--max-entries", "1"]) == 0
        out = capsys.readouterr().out
        assert "2 entry(ies) evicted, 1 kept" in out

    def test_ls_lists_newest_first(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        for nodes in ("1", "2"):
            assert main(["run", "srun", "--nodes", nodes, "--waves", "1",
                         "--cache", store]) == 0
        capsys.readouterr()
        assert main(["store", "ls", store, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["n_nodes"] for row in rows] == [2, 1]
        assert main(["store", "ls", store]) == 0
        table = capsys.readouterr().out
        assert table.index(rows[0]["digest"][:12]) \
            < table.index(rows[1]["digest"][:12])
