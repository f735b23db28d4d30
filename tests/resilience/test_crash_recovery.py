"""Parallel-pool crash recovery: salvage, resubmit, ledger restart.

A pool worker hard-killed by the OS (``BrokenProcessPool``) must not
cost a sweep anything but wall time: landed results are salvaged,
only the missing units are resubmitted, and with a sweep ledger a
fully restarted process skips everything already done.  Results are
identical to the serial loop's either way.
"""

import pytest

from repro.exceptions import HostFailureError
from repro.experiments.configs import ExperimentConfig
from repro.experiments.harness import run_repetitions

SRUN = dict(exp_id="poolrec", launcher="srun", workload="null",
            n_nodes=8, duration=30.0, waves=1, seed=0)


@pytest.fixture(scope="module")
def serial_reference():
    agg = run_repetitions(ExperimentConfig(**SRUN), n_reps=4)
    return [r.throughput.avg for r in agg.results]


class TestPoolRecovery:
    def test_killed_pool_worker_is_salvaged_and_resubmitted(
            self, tmp_path, monkeypatch, serial_reference):
        monkeypatch.setenv("REPRO_CRASH_AT", "pool:2")
        monkeypatch.setenv("REPRO_CRASH_ONCE",
                           str(tmp_path / "crash.marker"))
        agg = run_repetitions(ExperimentConfig(**SRUN), n_reps=4,
                              parallel=4, checkpoint=tmp_path)
        assert (tmp_path / "crash.marker").exists(), \
            "crash hook never fired"
        assert [r.throughput.avg for r in agg.results] == serial_reference

    def test_ensemble_batch_kill_is_recovered(self, tmp_path, monkeypatch):
        from repro.ensemble import run_ensemble

        cfg = ExperimentConfig(**SRUN)
        ref = run_ensemble(cfg, n_reps=4)
        monkeypatch.setenv("REPRO_CRASH_AT", "pool:2")
        monkeypatch.setenv("REPRO_CRASH_ONCE",
                           str(tmp_path / "crash.marker"))
        rec = run_ensemble(cfg, n_reps=4, parallel=4)
        assert (tmp_path / "crash.marker").exists()
        assert [m.result.throughput.avg for m in rec.members] == \
            [m.result.throughput.avg for m in ref.members]

    def test_ledger_restart_skips_completed_units(
            self, tmp_path, serial_reference):
        run_repetitions(ExperimentConfig(**SRUN), n_reps=4,
                        parallel=4, checkpoint=tmp_path)
        # Restart with the same ledger: every unit rehydrates, nothing
        # re-simulates, the aggregate is unchanged.
        agg = run_repetitions(ExperimentConfig(**SRUN), n_reps=4,
                              parallel=4, checkpoint=tmp_path)
        assert [r.throughput.avg for r in agg.results] == serial_reference
        assert all(r.tasks == [] for r in agg.results)

    def test_retry_exhaustion_raises_host_failure(self, monkeypatch):
        # Without REPRO_CRASH_ONCE the worker holding seed 2 dies on
        # every attempt, so both fan-outs must give up loudly after
        # POOL_RETRIES fresh pools instead of returning partial data.
        from repro.ensemble import run_ensemble
        from repro.experiments import parallel

        monkeypatch.setenv("REPRO_CRASH_AT", "pool:2")
        monkeypatch.delenv("REPRO_CRASH_ONCE", raising=False)
        monkeypatch.setattr(parallel, "POOL_RETRY_BACKOFF", 0)
        cfg = ExperimentConfig(**SRUN)
        with pytest.raises(HostFailureError):
            parallel.run_many([cfg.with_seed(s) for s in range(4)], jobs=2)
        with pytest.raises(HostFailureError):
            run_ensemble(cfg, n_reps=4, parallel=2)
