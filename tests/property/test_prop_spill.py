"""Property-based equivalence of spilled and in-memory traces.

``run_experiment(spill_dir=...)`` streams the profiler's trace to
chunked JSONL files instead of holding it in memory.  The contract is
strict: for any same-seed run, the exported profile must be
*byte-identical* to the in-memory one — same events, same timestamps
to the last ulp, same order.  The property is checked across all
three single-backend launchers.
"""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import save_profile
from repro.experiments.configs import ExperimentConfig
from repro.experiments.harness import run_experiment

launchers = st.sampled_from(["srun", "flux", "dragon"])
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _digest(cfg, tmp_dir, tag, spill=False):
    spill_dir = None
    if spill:
        spill_dir = tmp_dir / f"{tag}-chunks"
    result = run_experiment(cfg, keep_session=True, spill_dir=spill_dir)
    if spill:
        # Shrinking the threshold post-hoc is impossible (the run is
        # over), so instead assert spilling was at least configured;
        # forced-spill byte equality is covered by the unit tests.
        assert result.session.profiler.spilling
    path = tmp_dir / f"{tag}.jsonl"
    save_profile(result.session.profiler, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestSpillTraceEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(launcher=launchers, seed=seeds,
           n_nodes=st.integers(min_value=1, max_value=4),
           dummy=st.booleans())
    def test_spill_trace_is_byte_identical(self, tmp_path_factory, launcher,
                                           seed, n_nodes, dummy):
        tmp_dir = tmp_path_factory.mktemp("spill-prop")
        cfg = ExperimentConfig(exp_id="base", launcher=launcher,
                               workload="dummy" if dummy else "null",
                               n_nodes=n_nodes, n_partitions=1,
                               duration=3.0 if dummy else 0.0, waves=1,
                               seed=seed)
        memory = _digest(cfg, tmp_dir, "memory")
        spilled = _digest(cfg, tmp_dir, "spilled", spill=True)
        assert spilled == memory, (
            f"{launcher} seed={seed}: spilled trace drifted from in-memory")
