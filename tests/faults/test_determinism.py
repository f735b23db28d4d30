"""Determinism gates for the fault layer.

Two contracts, both acceptance criteria for the fault subsystem:

1. With faults *disabled* the instrumented code paths are inert — a
   same-seed run produces a profiler trace byte-identical to a build
   without the fault layer.  The checksums below were captured from
   the commit immediately preceding the fault subsystem, so any drift
   means the healthy hot path changed behavior.
2. With faults *enabled*, the injected schedule and the full trace are
   pure functions of the seed: two same-seed runs are byte-identical.
"""

import hashlib

from repro.analytics import save_profile
from repro.experiments.configs import ExperimentConfig
from repro.experiments.harness import run_experiment
from repro.faults import FaultSpec, RetryPolicy


#: sha256 of the profiler trace of each pinned config at seed 42,
#: captured pre-fault-layer.  (config kwargs, expected digest)
PINNED = [
    (dict(exp_id="base", launcher="flux", workload="dummy", n_nodes=2,
          n_partitions=1, duration=5.0, waves=1, seed=42),
     "e36e5bb44ca0ffd2a177b71c210f23a118be5478f92fe1b20b86768f64d89b48"),
    (dict(exp_id="base", launcher="flux", workload="null", n_nodes=4,
          n_partitions=2, duration=0.0, waves=1, seed=42),
     "5e167318e3864c2c4ea1164f9c5329674fbada33353cf8d2b082f8caf90d14e6"),
    (dict(exp_id="base", launcher="srun", workload="dummy", n_nodes=2,
          n_partitions=1, duration=3.0, waves=1, seed=42),
     "1856c85d284eb530ead2862be55f1c1216535be26522b796e502784b9406d4b2"),
    (dict(exp_id="base", launcher="dragon", workload="null", n_nodes=2,
          n_partitions=1, duration=0.0, waves=1, seed=42),
     "f68641dc797f7c8af3919a3b82ce8d6e4124ccc911f6244e1181571689f59a48"),
]


def _digest(cfg, tmp_path, tag):
    result = run_experiment(cfg, keep_session=True)
    path = tmp_path / f"{tag}.jsonl"
    save_profile(result.session.profiler, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestDisabledFaultsAreInert:
    def test_traces_match_pre_fault_layer_baseline(self, tmp_path):
        for i, (kwargs, expected) in enumerate(PINNED):
            cfg = ExperimentConfig(**kwargs)
            assert cfg.faults is None
            got = _digest(cfg, tmp_path, f"pin{i}")
            assert got == expected, (
                f"{kwargs['launcher']}/{kwargs['workload']}: trace drifted "
                f"from the pre-fault-layer baseline ({got})")

    def test_zero_rate_spec_is_also_inert(self, tmp_path):
        """A FaultSpec with all-zero rates activates only the retry
        policy; on a failure-free workload the trace must still match
        the baseline bit for bit (no stray RNG draws, no extra
        events)."""
        for i, (kwargs, expected) in enumerate(PINNED[:2]):
            cfg = ExperimentConfig(faults=FaultSpec(), **kwargs)
            assert not cfg.faults.enabled
            got = _digest(cfg, tmp_path, f"zero{i}")
            assert got == expected


class TestEnabledFaultsAreDeterministic:
    CFG = dict(exp_id="base", launcher="flux", workload="dummy", n_nodes=4,
               n_partitions=2, duration=10.0, waves=1, seed=42,
               faults=FaultSpec(mtbf=60.0, mttr=15.0, p_launch_fail=0.05,
                                backend_mtbf=300.0,
                                retry=RetryPolicy(backoff_base=0.2,
                                                  jitter=0.1)))

    def test_same_seed_same_schedule_and_trace(self, tmp_path):
        a = run_experiment(ExperimentConfig(**self.CFG), keep_session=True)
        b = run_experiment(ExperimentConfig(**self.CFG), keep_session=True)
        assert a.session.faults.schedule_log, "spec should inject something"
        assert a.session.faults.schedule_log == b.session.faults.schedule_log
        assert a.session.faults.injected == b.session.faults.injected
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_profile(a.session.profiler, pa)
        save_profile(b.session.profiler, pb)
        assert pa.read_bytes() == pb.read_bytes()
        assert a.faults is not None
        assert b.faults is not None
        assert a.faults.injected == b.faults.injected

    def test_different_seed_different_schedule(self):
        a = run_experiment(ExperimentConfig(**self.CFG), keep_session=True)
        cfg_b = dict(self.CFG, seed=43)
        b = run_experiment(ExperimentConfig(**cfg_b), keep_session=True)
        assert a.session.faults.schedule_log != b.session.faults.schedule_log


class TestSpillIsInert:
    """The spilling profiler must not move a single event: every
    pinned pre-fault-layer digest must also come out of a run that
    streams its trace to disk."""

    def test_spill_matches_pinned_baselines(self, tmp_path):
        for i, (kwargs, expected) in enumerate(PINNED):
            cfg = ExperimentConfig(**kwargs)
            result = run_experiment(cfg, keep_session=True,
                                    spill_dir=tmp_path / f"chunks{i}")
            path = tmp_path / f"scale{i}.jsonl"
            save_profile(result.session.profiler, path)
            got = hashlib.sha256(path.read_bytes()).hexdigest()
            assert got == expected, (
                f"{kwargs['launcher']}/{kwargs['workload']}: spilled "
                f"trace drifted from the pinned baseline ({got})")
