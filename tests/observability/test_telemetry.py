"""Live telemetry bus: schema stability, determinism, ETA, host time.

Pinned here:

* every execution shape (a plain run, a ``--reps``/``--seeds`` sweep,
  serial or ``--parallel``) emits schema-valid JSONL records through
  the same :func:`~repro.observability.telemetry.validate_telemetry`
  contract;
* same-seed profiles are byte-identical with progress streaming on or
  off, for srun, flux_n, dragon and ensemble runs — telemetry observes
  the simulation, it never perturbs it;
* bundles carry the telemetry stream, and ensemble bundles are
  complete (per-seed profiles indexed).

Tiny runs may legitimately finish inside one poll interval, so tests
assert *at least* the final flushed record and validate everything
that was emitted.
"""

import functools
import json
from types import SimpleNamespace

import pytest

from repro.analytics import save_profile
from repro.analytics.profiler import PROBE_STRIDE, Profiler
from repro.ensemble import run_ensemble
from repro.experiments.__main__ import main
from repro.experiments.configs import ExperimentConfig
from repro.experiments.harness import run_experiment, run_repetitions
from repro.observability import read_manifest, read_telemetry
from repro.observability.telemetry import (
    DEFAULT_INTERVAL,
    TELEMETRY_SCHEMA,
    EtaEstimator,
    HostProfiler,
    SweepTelemetry,
    TelemetryBus,
    render_progress_line,
    validate_telemetry,
)

SRUN = ExperimentConfig(exp_id="srun", launcher="srun", workload="null",
                        n_nodes=2, duration=5.0, waves=1)
FLUX = ExperimentConfig(exp_id="flux_n", launcher="flux", workload="null",
                        n_nodes=4, n_partitions=2, duration=5.0, waves=1)
DRAGON = ExperimentConfig(exp_id="dragon", launcher="dragon",
                          workload="null", n_nodes=2, duration=5.0,
                          waves=1)
#: Big enough for the profiler's probe to fire twice (> 2 strides).
FLUX_BIG = ExperimentConfig(exp_id="flux_n", launcher="flux",
                            workload="null", n_nodes=16, n_partitions=2,
                            duration=5.0, waves=2)


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


# ---------------------------------------------------------------------------
# Units
# ---------------------------------------------------------------------------


class TestEtaEstimator:
    def test_unknown_total_is_unknowable(self):
        assert EtaEstimator(None).estimate(10.0, 5) is None
        assert EtaEstimator(0).estimate(10.0, 5) is None

    def test_nothing_done_falls_back_to_prior(self):
        eta = EtaEstimator(100, prior_makespan=40.0)
        assert eta.estimate(0.0, 0) == 40.0
        assert eta.estimate(10.0, 0) == 30.0  # prior minus elapsed
        assert eta.estimate(90.0, 0) == 0.0   # clamped

    def test_nothing_done_no_prior_is_none(self):
        assert EtaEstimator(100).estimate(5.0, 0) is None

    def test_blend_weights_by_completed_fraction(self):
        eta = EtaEstimator(10, prior_makespan=100.0)
        # Half done after 50s: observed remaining = 50, prior
        # remaining = 50, any weighting gives 50.
        assert eta.estimate(50.0, 5) == pytest.approx(50.0)
        # 8/10 done after 40s: observed = 2 * 5 = 10, prior left = 60;
        # weight 0.8 -> 0.8*10 + 0.2*60 = 20.
        assert eta.estimate(40.0, 8) == pytest.approx(20.0)

    def test_pure_observation_without_prior(self):
        eta = EtaEstimator(10)
        assert eta.estimate(40.0, 8) == pytest.approx(10.0)

    def test_complete_is_zero(self):
        assert EtaEstimator(10, prior_makespan=99.0).estimate(1.0, 10) == 0.0


class TestHostProfiler:
    def test_phases_accumulate_and_reenter(self):
        clock = FakeClock()
        host = HostProfiler(clock=clock)
        host.start("run")
        clock.t = 2.0
        assert host.stop("run") == pytest.approx(2.0)
        with host.phase("run"):
            clock.t = 5.0
        assert host.phases["run"] == pytest.approx(5.0)

    def test_snapshot_includes_open_phase(self):
        clock = FakeClock()
        host = HostProfiler(clock=clock)
        host.start("setup")
        clock.t = 3.0
        snap = host.snapshot()
        assert snap["phases"]["setup"] == pytest.approx(3.0)
        assert snap["wall_seconds"] == pytest.approx(3.0)
        assert snap["rss_mb"] >= 0.0

    def test_stop_without_start_is_harmless(self):
        assert HostProfiler().stop("never") == 0.0


class TestTelemetryBus:
    def test_rejects_unknown_source(self):
        with pytest.raises(ValueError):
            TelemetryBus("nonsense")

    def test_poll_is_rate_limited_emit_is_not(self):
        clock = FakeClock()
        bus = TelemetryBus("plain", interval=1.0, clock=clock)
        sample = lambda: {"n": len(bus.records)}  # noqa: E731
        assert bus.poll(sample) is not None       # first poll always fires
        clock.t = 0.5
        assert bus.poll(sample) is None           # inside the interval
        assert bus.emit(sample()) is not None     # emit bypasses the limit
        clock.t = 2.0
        assert bus.poll(sample) is not None
        assert [r["seq"] for r in bus.records] == [0, 1, 2]

    def test_records_carry_schema_and_wall_time(self):
        clock = FakeClock(10.0)
        bus = TelemetryBus("plain", clock=clock)
        clock.t = 12.5
        record = bus.emit({"x": 1})
        assert record["schema"] == TELEMETRY_SCHEMA
        assert record["source"] == "plain"
        assert record["wall_time"] == pytest.approx(2.5)
        assert bus.elapsed() == pytest.approx(2.5)

    def test_subscribers_see_every_record(self):
        seen = []
        bus = TelemetryBus("plain", sink=seen.append)
        bus.subscribe(seen.append)
        bus.emit({})
        assert len(seen) == 2

    def test_default_interval_is_sane(self):
        assert 0.0 < DEFAULT_INTERVAL <= 1.0


def _member(n_tasks, n_done, n_failed, provenance="fresh"):
    """The fields ``SweepTelemetry.member_done`` reads off a result."""
    return SimpleNamespace(n_tasks=n_tasks, n_done=n_done,
                           n_failed=n_failed, provenance=provenance)


class TestSweepTelemetry:
    def test_last_member_always_emits(self):
        clock = FakeClock()
        sweep = SweepTelemetry(3, bus=TelemetryBus("ensemble", interval=1e9,
                                                   clock=clock))
        sweep.member_done(_member(10, 10, 0))   # first poll fires
        sweep.member_done(_member(10, 9, 1))    # rate-limited away
        final = sweep.member_done(_member(10, 10, 0))
        assert final is not None       # unconditional final flush
        assert final["members_done"] == 3
        assert final["tasks_done"] == 29
        assert final["tasks_failed"] == 1
        assert final["tasks_total"] == 30
        assert final["progress"] == 1.0
        assert final["eta_basis"] == "wall"
        assert validate_telemetry(final) == []

    def test_cohort_counts_superseded_by_members(self):
        clock = FakeClock()
        bus = TelemetryBus("ensemble", interval=0.0, clock=clock)
        sweep = SweepTelemetry(2, bus=bus)
        record = sweep.cohort(128, 512)
        assert record["tasks_done"] == 128 and record["tasks_total"] == 512
        assert record["members_done"] == 0
        sweep.member_done(_member(256, 256, 0))
        final = sweep.member_done(_member(256, 256, 0))
        assert final["tasks_done"] == 512 and final["tasks_total"] == 512


class TestValidateTelemetry:
    GOOD = {"schema": TELEMETRY_SCHEMA, "source": "ensemble", "seq": 0,
            "wall_time": 0.5, "tasks_done": 3, "tasks_total": 10,
            "tasks_failed": 0, "progress": 0.3, "eta_seconds": 1.0,
            "eta_basis": "wall", "rss_mb": 12.0, "members_done": 1,
            "members_total": 2}

    def test_good_record_passes(self):
        assert validate_telemetry(dict(self.GOOD)) == []

    def test_missing_field_detected(self):
        bad = dict(self.GOOD)
        del bad["tasks_done"]
        assert any("tasks_done" in p for p in validate_telemetry(bad))

    def test_wrong_schema_detected(self):
        bad = dict(self.GOOD, schema=999)
        assert validate_telemetry(bad)

    def test_unknown_source_detected(self):
        bad = dict(self.GOOD, source="carrier-pigeon")
        assert any("source" in p for p in validate_telemetry(bad))

    def test_progress_out_of_range_detected(self):
        bad = dict(self.GOOD, progress=1.5)
        assert any("progress" in p for p in validate_telemetry(bad))

    def test_plain_needs_backends(self):
        bad = dict(self.GOOD, source="plain", sim_time=1.0, nodes_down=0)
        assert any("backends" in p for p in validate_telemetry(bad))

    def test_render_line_handles_every_source(self):
        line = render_progress_line(dict(self.GOOD))
        assert "ensemble" in line and "1/2" in line


# ---------------------------------------------------------------------------
# Schema stability across execution shapes (through the CLI)
# ---------------------------------------------------------------------------


def _cli_records(capsys, argv):
    assert main(argv) == 0
    err = capsys.readouterr().err
    records = [json.loads(line) for line in err.splitlines()
               if line.strip().startswith("{")]
    assert records, f"no telemetry on stderr for {argv}"
    for record in records:
        assert validate_telemetry(record) == [], record
    return records


class TestSchemaAcrossShapes:
    def test_plain_run(self, capsys):
        records = _cli_records(capsys, [
            "run", "srun", "--nodes", "2", "--waves", "1",
            "--progress", "jsonl"])
        final = records[-1]
        assert final["source"] == "plain"
        assert final["tasks_done"] == final["tasks_total"] > 0
        assert "backends" in final and "srun" in final["backends"]
        assert final["host"]["phases"].keys() >= {"run", "workload"}

    def test_parallel_repetitions(self, capsys):
        records = _cli_records(capsys, [
            "run", "srun", "--nodes", "2", "--waves", "1",
            "--reps", "2", "--parallel", "2", "--progress", "jsonl"])
        final = records[-1]
        assert final["source"] == "ensemble"
        assert final["members_done"] == final["members_total"] == 2
        assert final["eta_basis"] == "wall"

    def test_ensemble_run(self, capsys):
        records = _cli_records(capsys, [
            "run", "srun", "--nodes", "2", "--waves", "1",
            "--reps", "2", "--progress", "jsonl"])
        final = records[-1]
        assert final["source"] == "ensemble"
        assert final["members_done"] == final["members_total"] == 2

    def test_line_renderer(self, capsys):
        assert main(["run", "srun", "--nodes", "2", "--waves", "1",
                     "--progress"]) == 0
        err = capsys.readouterr().err
        assert "plain" in err and "100.0%" in err


# ---------------------------------------------------------------------------
# Determinism: progress streaming never perturbs the simulation
# ---------------------------------------------------------------------------


class TestDeterminism:
    def _profile_bytes(self, tmp_path, cfg, tag, **kwargs):
        result = run_experiment(cfg, keep_session=True, **kwargs)
        path = tmp_path / f"{tag}.jsonl"
        save_profile(result.session.profiler, path)
        return path.read_bytes()

    @pytest.mark.parametrize("cfg", [SRUN, FLUX, DRAGON],
                             ids=["srun", "flux_n", "dragon"])
    def test_progress_does_not_perturb_trace(self, tmp_path, cfg):
        plain = self._profile_bytes(tmp_path, cfg, "plain")
        streamed = self._profile_bytes(tmp_path, cfg, "streamed",
                                       progress=lambda record: None)
        assert plain == streamed

    def test_ensemble_profiles_identical_with_progress(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        run_ensemble(SRUN, n_reps=2, profile_dir=str(a_dir))
        run_ensemble(SRUN, n_reps=2, profile_dir=str(b_dir),
                     progress=lambda record: None)
        files = sorted(p.name for p in a_dir.iterdir())
        assert files == sorted(p.name for p in b_dir.iterdir())
        for name in files:
            assert (a_dir / name).read_bytes() == \
                (b_dir / name).read_bytes()

    def test_repetitions_aggregate_identical_with_progress(self):
        plain = run_repetitions(SRUN, n_reps=2)
        streamed = run_repetitions(SRUN, n_reps=2,
                                   progress=lambda record: None)
        assert plain.throughput_avg == streamed.throughput_avg
        assert plain.makespan_avg == streamed.makespan_avg


# ---------------------------------------------------------------------------
# The probe: fired by the profiler's per-record threshold
# ---------------------------------------------------------------------------


class TestProfilerProbe:
    def test_probe_emits_once_per_stride(self):
        bus = TelemetryBus("plain", interval=0.0)
        result = run_experiment(FLUX_BIG, keep_session=True, progress=bus)
        n_records = len(result.session.profiler)
        assert n_records > 2 * PROBE_STRIDE
        # Every probe firing emits (no rate limit); the last record is
        # the final flush.
        assert len(bus.records) - 1 == n_records // PROBE_STRIDE
        done = [record["tasks_done"] for record in bus.records]
        assert done == sorted(done)
        assert done[-1] == result.n_tasks
        for record in bus.records:
            assert validate_telemetry(record) == [], record

    @pytest.mark.parametrize("spill_threshold", [1000, 5000])
    def test_progress_with_spill_keeps_profile_bytes(
            self, tmp_path, monkeypatch, spill_threshold):
        def profile_bytes(tag, **kwargs):
            result = run_experiment(FLUX_BIG, keep_session=True, **kwargs)
            path = tmp_path / f"{tag}.jsonl"
            save_profile(result.session.profiler, path)
            return result, path.read_bytes()

        _, plain = profile_bytes("plain")
        monkeypatch.setattr(
            "repro.core.session.Profiler",
            functools.partial(Profiler, spill_threshold=spill_threshold))
        bus = TelemetryBus("plain", interval=0.0)
        result, both = profile_bytes("both", progress=bus,
                                     spill_dir=tmp_path / "spill")
        profiler = result.session.profiler
        assert len(profiler.spilled_chunks) == \
            len(profiler) // spill_threshold
        assert len(bus.records) - 1 == len(profiler) // PROBE_STRIDE
        assert both == plain


# ---------------------------------------------------------------------------
# Bundle completeness
# ---------------------------------------------------------------------------


class TestBundles:
    def test_ensemble_bundle_is_complete(self, tmp_path):
        bundle = tmp_path / "ens"
        result = run_ensemble(SRUN, n_reps=2, bundle=str(bundle),
                              progress=True)
        manifest = read_manifest(bundle)
        ens = manifest["ensemble"]
        assert ens["engine"] == result.engine
        assert ens["seeds"] == list(result.seeds)
        assert len(ens["members"]) == 2
        for row in ens["members"]:
            assert row["n_done"] == row["n_tasks"] > 0
        for seed in result.seeds:
            key = f"profile_seed{seed}"
            assert key in manifest["files"]
            assert (bundle / manifest["files"][key]).is_file()
        records = read_telemetry(bundle / "telemetry.jsonl")
        assert records and records[-1]["members_done"] == 2

    def test_trace_watch_renders_bundle(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        run_experiment(SRUN, bundle=bundle, progress=True)
        capsys.readouterr()
        assert main(["trace", "watch", str(bundle)]) == 0
        out = capsys.readouterr().out
        assert "telemetry records" in out

    def test_trace_watch_missing_telemetry_fails_cleanly(self, tmp_path,
                                                         capsys):
        assert main(["trace", "watch", str(tmp_path)]) == 1
        assert "no telemetry" in capsys.readouterr().err
