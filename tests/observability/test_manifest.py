"""Manifest and bundle tests: completeness, round-trip, harness path."""

import json

import pytest

from repro.analytics import load_events
from repro.experiments.configs import ExperimentConfig, config_by_id
from repro.experiments.harness import run_experiment
from repro.observability import (
    BUNDLE_VERSION,
    build_manifest,
    chrome_trace,
    package_versions,
    read_manifest,
    spans_from_events,
    validate_chrome_trace,
)

CFG = ExperimentConfig(exp_id="flux_1", launcher="flux", workload="dummy",
                       n_nodes=2, duration=5.0, waves=1)


class TestManifest:
    def test_versions_include_toolchain(self):
        versions = package_versions()
        assert "repro" in versions
        assert "python" in versions

    def test_build_minimal(self):
        manifest = build_manifest()
        assert manifest["bundle_version"] == BUNDLE_VERSION
        assert manifest["kind"] == "repro-run"
        assert "config" not in manifest

    def test_extra_fields_merge(self):
        manifest = build_manifest(extra={"note": "hello"})
        assert manifest["note"] == "hello"


class TestBundle:
    @pytest.fixture(scope="class")
    def bundle(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("bundles") / "run0"
        result = run_experiment(CFG, bundle=str(out))
        return out, result

    def test_all_artifacts_written(self, bundle):
        out, _result = bundle
        for name in ("manifest.json", "metrics.json", "spans.json",
                     "trace.json", "profile.jsonl"):
            assert (out / name).is_file(), name

    def test_manifest_is_complete(self, bundle):
        out, result = bundle
        manifest = read_manifest(out)
        assert manifest["bundle_version"] == BUNDLE_VERSION
        assert manifest["seed"] == CFG.seed
        assert manifest["config"]["exp_id"] == "flux_1"
        assert manifest["config"]["n_nodes"] == 2
        assert manifest["cluster"]["n_nodes"] == 2
        assert manifest["session_uid"].startswith("session.")
        assert manifest["result"]["n_tasks"] == result.n_tasks
        assert manifest["result"]["n_done"] == result.n_done
        assert manifest["result"]["makespan"] == \
            pytest.approx(result.makespan)
        assert set(manifest["files"]) == \
            {"metrics", "spans", "trace", "profile", "telemetry"}

    def test_trace_artifact_validates(self, bundle):
        out, _ = bundle
        doc = json.loads((out / "trace.json").read_text())
        assert validate_chrome_trace(doc) == []

    def test_profile_artifact_loads(self, bundle):
        out, result = bundle
        events = load_events(out / "profile.jsonl")
        assert len(events) > result.n_tasks

    def test_spans_cover_all_tasks(self, bundle):
        out, result = bundle
        spans = json.loads((out / "spans.json").read_text())

        def count_tasks(node):
            n = 1 if node["cat"] == "task" else 0
            return n + sum(count_tasks(c) for c in node["children"])

        assert count_tasks(spans) == result.n_tasks

    def test_metrics_artifact_has_kernel_series(self, bundle):
        out, _ = bundle
        metrics = json.loads((out / "metrics.json").read_text())
        assert "repro_kernel_events_total" in metrics
        assert "repro_flux_jobs_total" in metrics

    def test_read_manifest_rejects_foreign_json(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"kind": "other"}')
        with pytest.raises(ValueError, match="not a repro run manifest"):
            read_manifest(tmp_path)


@pytest.mark.parametrize("exp_id,overrides", [
    ("srun", {"waves": 1}),
    ("flux_n", {"n_nodes": 8, "n_partitions": 2}),
    ("flux+dragon", {"n_nodes": 4}),
    ("faults", {"n_nodes": 16, "n_partitions": 4}),
], ids=["srun-w1", "flux_n-8n2p", "flux+dragon-4n", "faults-16n4p"])
def test_bundle_spans_come_only_from_its_profile(tmp_path, exp_id,
                                                 overrides):
    run_experiment(config_by_id(exp_id, **overrides), bundle=str(tmp_path))
    manifest = read_manifest(tmp_path)
    root = spans_from_events(load_events(tmp_path / "profile.jsonl"),
                             session_uid=manifest["session_uid"])
    assert (tmp_path / "spans.json").read_text(encoding="utf-8") == \
        json.dumps(root.to_dict(), sort_keys=True) + "\n"
    assert (tmp_path / "trace.json").read_text(encoding="utf-8") == \
        json.dumps(chrome_trace(root))
