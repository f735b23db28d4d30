"""Property-based equivalence of bulk and legacy task submission.

``TaskManager.submit_tasks(bulk=True)`` admits whole waves through a
batched pipeline (vectorized RNG draws, shared descriptions, one
chained kernel callback per wave).  The contract is strict: for any
same-seed run, the profiler trace must be *byte-identical* to the
per-task legacy path — same events, same timestamps to the last ulp,
same order.  The property is checked across all three single-backend
launchers, with the memory-lean and spill-to-disk modes riding along
(both are also required to be trace-neutral).
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
        # Shrink the threshold post-hoc is impossible (the run is
        # over), so instead assert spilling was at least configured;
        # forced-spill byte equality is covered by the unit tests.
        assert result.session.profiler.spilling
    path = tmp_dir / f"{tag}.jsonl"
    save_profile(result.session.profiler, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestBulkSubmitTraceEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(launcher=launchers, seed=seeds,
           n_nodes=st.integers(min_value=1, max_value=4),
           dummy=st.booleans())
    def test_bulk_trace_is_byte_identical(self, tmp_path_factory, launcher,
                                          seed, n_nodes, dummy):
        tmp_dir = tmp_path_factory.mktemp("bulk-prop")
        base = dict(exp_id="base", launcher=launcher,
                    workload="dummy" if dummy else "null",
                    n_nodes=n_nodes, n_partitions=1,
                    duration=3.0 if dummy else 0.0, waves=1, seed=seed)
        legacy = _digest(ExperimentConfig(**base), tmp_dir, "legacy")
        bulk = _digest(ExperimentConfig(bulk=True, **base), tmp_dir, "bulk")
        assert bulk == legacy, (
            f"{launcher} seed={seed}: bulk trace drifted from legacy")
        # lean retention + spilling profiler must not perturb it either
        lean = _digest(ExperimentConfig(bulk=True, lean=True, **base),
                       tmp_dir, "lean", spill=True)
        assert lean == legacy, (
            f"{launcher} seed={seed}: lean/spill trace drifted from legacy")

