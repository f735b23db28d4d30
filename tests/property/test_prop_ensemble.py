"""Property-based N-for-N identity of the ensemble engine.

For any small config across the three single-backend launchers, any
random seed list, and any grouping of that list into separate
ensemble calls (batch boundaries must be invisible), every member's
exported profile must be byte-identical to an independent sequential
``run_experiment`` at that seed, on the vectorized engine all three
launchers select.  (The replay engine *is* those independent runs.)
"""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import save_profile
from repro.ensemble import run_ensemble
from repro.experiments.configs import ExperimentConfig
from repro.experiments.harness import run_experiment

launchers = st.sampled_from(["srun", "flux", "dragon"])
seed_lists = st.lists(st.integers(min_value=0, max_value=2**31 - 1),
                      min_size=1, max_size=4, unique=True)


def _independent_digest(cfg, seed, tmp_dir, tag):
    result = run_experiment(cfg.with_seed(seed), keep_session=True)
    path = tmp_dir / f"{tag}.jsonl"
    save_profile(result.session.profiler, path)
    result.session.close()
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _split(seeds, batch_size):
    return [seeds[i:i + batch_size]
            for i in range(0, len(seeds), batch_size)]


class TestEnsembleTraceEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(launcher=launchers, seeds=seed_lists,
           n_nodes=st.integers(min_value=1, max_value=2),
           batch_size=st.integers(min_value=1, max_value=4),
           dummy=st.booleans())
    def test_members_match_independent_runs(self, tmp_path_factory,
                                            launcher, seeds, n_nodes,
                                            batch_size, dummy):
        tmp_dir = tmp_path_factory.mktemp("ens-prop")
        cfg = ExperimentConfig(
            exp_id="prop", launcher=launcher,
            workload="dummy" if dummy else "null",
            n_nodes=n_nodes, n_partitions=1,
            duration=3.0 if dummy else 0.0, waves=1, seed=0)
        # Any grouping of the seed list into ensemble calls must be
        # invisible in the per-seed bytes.
        members = []
        for i, batch in enumerate(_split(seeds, batch_size)):
            ens = run_ensemble(cfg, seeds=batch,
                               profile_dir=str(tmp_dir / f"batch-{i}"))
            assert ens.engine == "vectorized", launcher
            members.extend(ens.members)
        for member, seed in zip(members, seeds):
            assert member.seed == seed
            with open(member.profile_path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            assert digest == _independent_digest(
                cfg, seed, tmp_dir, f"ind-{seed}"), (
                f"{launcher} seed={seed} batch={batch_size}: ensemble "
                f"member trace drifted from the independent run")
