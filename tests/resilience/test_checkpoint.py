"""Durable checkpoint/resume: the determinism-under-failure contract.

Pinned here:

* a checkpointing run's trace is **byte-identical** to the same-seed
  run with checkpointing off (the instrumentation is inert);
* ``resume_experiment`` replays to a profile byte-identical to the
  uninterrupted run — both from a mid-run checkpoint (the writer was
  SIGKILLed between ticks) and from a completed one;
* drift (different code/config/seed) is *detected*, never silently
  resumed past.
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.exceptions import CheckpointError
from repro.experiments.configs import ExperimentConfig
from repro.experiments.harness import resume_experiment, run_experiment
from repro.resilience import ResilienceSpec, load_checkpoint
from repro.resilience.checkpoint import (
    config_digest,
    config_from_doc,
    config_to_doc,
)

SRUN = dict(exp_id="ckpt", launcher="srun", workload="null",
            n_nodes=8, duration=30.0, waves=1, seed=5)

REPO = Path(__file__).resolve().parent.parent.parent


def _digest(result) -> str:
    from repro.analytics.export import write_event_lines

    import io

    buf = io.StringIO()
    write_event_lines(buf, result.session.profiler._events)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def _run(cfg, **kw):
    result = run_experiment(cfg, keep_session=True, **kw)
    digest = _digest(result)
    result.session.close()
    return digest, result


@pytest.fixture(scope="module")
def reference():
    """Uninterrupted same-seed run every variant must match."""
    return _run(ExperimentConfig(**SRUN))


class TestConfigDoc:
    def test_roundtrip(self):
        cfg = ExperimentConfig(**SRUN)
        assert config_from_doc(config_to_doc(cfg)) == cfg
        assert config_digest(config_from_doc(config_to_doc(cfg))) == \
            config_digest(cfg)

    def test_roundtrip_with_faults(self):
        from repro.experiments.configs import DEFAULT_FAULTS

        cfg = ExperimentConfig(faults=DEFAULT_FAULTS, **SRUN)
        clone = config_from_doc(config_to_doc(cfg))
        assert clone.faults == DEFAULT_FAULTS
        assert clone.faults.retry.deadline == DEFAULT_FAULTS.retry.deadline

    def test_digest_tracks_content(self):
        cfg = ExperimentConfig(**SRUN)
        assert config_digest(cfg) != config_digest(replace(cfg, seed=6))


class TestCheckpointedRun:
    def test_checkpointing_is_trace_inert(self, tmp_path, reference):
        d_ref, _ = reference
        spec = ResilienceSpec(checkpoint_dir=str(tmp_path),
                              checkpoint_sim_interval=7.0)
        d_chk, result = _run(ExperimentConfig(**SRUN), resilience=spec)
        assert d_chk == d_ref, \
            "checkpoint ticks perturbed the trace"
        assert result.n_done == result.n_tasks > 0

    def test_checkpoint_document_shape(self, tmp_path):
        spec = ResilienceSpec(checkpoint_dir=str(tmp_path),
                              checkpoint_sim_interval=7.0)
        _run(ExperimentConfig(**SRUN), resilience=spec)
        doc = load_checkpoint(tmp_path)
        assert doc["format"] == "repro-checkpoint"
        assert doc["seed"] == SRUN["seed"]
        assert doc["config_digest"] == config_digest(ExperimentConfig(**SRUN))
        assert doc["n_checkpoints"] >= 2  # ticks + the final complete one
        state = doc["state"]
        assert state["complete"] is True
        assert state["n_events"] > 0
        assert state["kernel"]["queue_digest"]
        assert state["rng_digest"]

    def test_wall_interval_rate_limits_writes(self, tmp_path):
        # A huge wall interval still allows the very first write and
        # the final complete one, but suppresses the ticks between.
        spec = ResilienceSpec(checkpoint_dir=str(tmp_path),
                              checkpoint_sim_interval=2.0,
                              checkpoint_wall_interval=3600.0)
        _run(ExperimentConfig(**SRUN), resilience=spec)
        doc = load_checkpoint(tmp_path)
        assert doc["n_checkpoints"] == 2

    def test_load_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "nowhere")

    def test_load_rejects_tampered_config(self, tmp_path):
        spec = ResilienceSpec(checkpoint_dir=str(tmp_path),
                              checkpoint_sim_interval=7.0)
        _run(ExperimentConfig(**SRUN), resilience=spec)
        path = tmp_path / "checkpoint.json"
        doc = json.loads(path.read_text())
        doc["config"]["seed"] = 999  # digest no longer matches
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path)

    def test_load_accepts_a_retired_config_field(self, tmp_path):
        # A header written while the config still had a since-removed
        # field verifies: the digest covers the stored document.
        spec = ResilienceSpec(checkpoint_dir=str(tmp_path),
                              checkpoint_sim_interval=7.0)
        _run(ExperimentConfig(**SRUN), resilience=spec)
        path = tmp_path / "checkpoint.json"
        doc = json.loads(path.read_text())
        doc["config"]["retired_knob"] = None
        doc["config_digest"] = hashlib.sha256(json.dumps(
            doc["config"], sort_keys=True).encode("utf-8")).hexdigest()
        path.write_text(json.dumps(doc))
        loaded = load_checkpoint(tmp_path)
        assert config_from_doc(loaded["config"]) == ExperimentConfig(**SRUN)


class TestResume:
    def test_resume_completed_checkpoint_is_byte_identical(
            self, tmp_path, reference):
        d_ref, _ = reference
        spec = ResilienceSpec(checkpoint_dir=str(tmp_path),
                              checkpoint_sim_interval=7.0)
        _run(ExperimentConfig(**SRUN), resilience=spec)
        result = resume_experiment(tmp_path, keep_session=True)
        d_res = _digest(result)
        result.session.close()
        assert d_res == d_ref

    def test_resume_after_midrun_kill_is_byte_identical(
            self, tmp_path, reference):
        """The tentpole: SIGKILL the run between checkpoint ticks,
        resume from the last durable checkpoint, and require the
        recovered profile byte-identical to the uninterrupted run."""
        d_ref, _ = reference
        code = (
            "import sys; sys.path.insert(0, %r)\n"
            "from repro.experiments.configs import ExperimentConfig\n"
            "from repro.experiments.harness import run_experiment\n"
            "from repro.resilience import ResilienceSpec\n"
            "run_experiment(ExperimentConfig(**%r),\n"
            "    resilience=ResilienceSpec(checkpoint_dir=%r,\n"
            "                              checkpoint_sim_interval=5.0))\n"
            % (str(REPO / "src"), SRUN, str(tmp_path))
        )
        env = dict(os.environ, PYTHONHASHSEED="0",
                   REPRO_CRASH_AT="sim:12",
                   REPRO_CRASH_ONCE=str(tmp_path / "crash.marker"))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True)
        assert proc.returncode == 137, proc.stderr.decode()
        doc = load_checkpoint(tmp_path)
        assert doc["state"]["complete"] is False
        assert doc["state"]["sim_time"] < 12.0

        result = resume_experiment(tmp_path, keep_session=True)
        d_res = _digest(result)
        result.session.close()
        assert d_res == d_ref

    def test_resume_detects_seed_drift(self, tmp_path):
        spec = ResilienceSpec(checkpoint_dir=str(tmp_path),
                              checkpoint_sim_interval=7.0)
        _run(ExperimentConfig(**SRUN), resilience=spec)
        path = tmp_path / "checkpoint.json"
        doc = json.loads(path.read_text())
        # Forge a consistent checkpoint for a *different* run: the
        # header validates, but the replayed state cannot match.
        forged = config_from_doc(dict(doc["config"], seed=SRUN["seed"] + 1))
        doc["config"]["seed"] = forged.seed
        doc["seed"] = forged.seed
        doc["config_digest"] = config_digest(forged)
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="diverged|watermark") \
                as info:
            resume_experiment(tmp_path)
        # Same code: the error blames the watermark, not a version.
        assert "code differs" not in str(info.value)

    def test_divergence_error_names_the_code_drift(self, tmp_path):
        spec = ResilienceSpec(checkpoint_dir=str(tmp_path),
                              checkpoint_sim_interval=7.0)
        _run(ExperimentConfig(**SRUN), resilience=spec)
        path = tmp_path / "checkpoint.json"
        doc = json.loads(path.read_text())
        # A header from other code whose watermark this code cannot
        # reproduce: the error must say both what diverged and which
        # versions differ.
        doc["code"] = dict(doc["code"], repro="0.0.0-forged")
        doc["state"]["n_events"] += 1
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError) as info:
            resume_experiment(tmp_path)
        message = str(info.value)
        assert "diverged" in message and "n_events" in message
        assert "repro: '0.0.0-forged' -> " in message
