"""The ensemble engine's correctness contract: N-for-N identity.

An ensemble run of seeds ``[s1..sN]`` must be indistinguishable from
N independent sequential ``run_experiment`` calls — float-identical
metrics and byte-identical exported profiles — on both engines (the
vectorized fast paths for srun, single-instance flux and dragon, and
the generic replay).
"""

import hashlib
from pathlib import Path

import pytest

from repro.analytics import save_profile
from repro.ensemble import run_ensemble, supports_vectorized
from repro.experiments.configs import ExperimentConfig, config_by_id
from repro.experiments.harness import run_experiment

SEEDS = [0, 3, 7]


def _independent(cfg, seed, tmp_path, tag):
    result = run_experiment(cfg.with_seed(seed), keep_session=True)
    path = tmp_path / f"{tag}.jsonl"
    save_profile(result.session.profiler, path)
    result.session.close()
    return result, hashlib.sha256(path.read_bytes()).hexdigest()


def _member_digest(member):
    return hashlib.sha256(
        Path(member.profile_path).read_bytes()).hexdigest()


def _metrics(r):
    return (r.n_tasks, r.n_done, r.n_failed, r.throughput,
            r.utilization_cores, r.utilization_gpus, r.makespan,
            r.startup_overheads)


@pytest.mark.parametrize("overrides", [
    dict(),                                   # 4 nodes, null
    dict(workload="dummy"),                   # payload durations
    dict(n_nodes=1, waves=2),                 # multi-wave, 1 node
    dict(n_nodes=2),                          # 2 nodes, null
])
def test_vectorized_matches_independent_runs(tmp_path, overrides):
    cfg = config_by_id("srun", waves=overrides.pop("waves", 1),
                       **overrides)
    assert supports_vectorized(cfg)
    ens = run_ensemble(cfg, seeds=SEEDS, profile_dir=str(tmp_path / "ens"))
    assert ens.engine == "vectorized"
    assert ens.seeds == tuple(SEEDS)
    for member in ens.members:
        ref, ref_digest = _independent(cfg, member.seed, tmp_path,
                                       f"ind-{member.seed}")
        assert _metrics(member.result) == _metrics(ref)
        assert member.result.config.seed == member.seed
        assert _member_digest(member) == ref_digest


@pytest.mark.parametrize("exp_id, overrides", [
    ("flux_1", dict(n_nodes=1)),              # 1 node, null
    ("flux_1", dict(n_nodes=1, workload="dummy", waves=2)),
    # 2 nodes saturate the cycle loop's park/release path: grants stall
    # on core releases, not just on ingest arrivals.
    ("flux_1", dict(n_nodes=2, workload="dummy")),
    ("dragon", dict(n_nodes=1)),              # 1 node, null
    ("dragon", dict(n_nodes=2, workload="dummy")),
])
def test_vectorized_flux_dragon_match_independent_runs(tmp_path, exp_id,
                                                       overrides):
    import dataclasses

    workload = overrides.pop("workload", None)
    cfg = config_by_id(exp_id, waves=overrides.pop("waves", 1),
                       **overrides)
    if workload is not None:
        cfg = dataclasses.replace(cfg, workload=workload)
    assert supports_vectorized(cfg)
    ens = run_ensemble(cfg, seeds=[0, 5], profile_dir=str(tmp_path / "ens"))
    assert ens.engine == "vectorized"
    for member in ens.members:
        ref, ref_digest = _independent(
            cfg, member.seed, tmp_path, f"{exp_id}-ind-{member.seed}")
        assert _metrics(member.result) == _metrics(ref)
        assert _member_digest(member) == ref_digest


def test_replay_matches_independent_runs(tmp_path):
    # Multi-instance flux interleaves shared session streams across
    # siblings, so flux_n stays on the generic replay engine.
    cfg = config_by_id("flux_n", n_nodes=2, n_partitions=2, waves=1)
    ens = run_ensemble(cfg, seeds=[0, 5], profile_dir=str(tmp_path / "ens"))
    assert ens.engine == "replay"
    for member in ens.members:
        ref, ref_digest = _independent(
            cfg, member.seed, tmp_path, f"flux_n-ind-{member.seed}")
        assert _metrics(member.result) == _metrics(ref)
        assert _member_digest(member) == ref_digest


def test_profile_dir_exports_are_byte_identical(tmp_path):
    cfg = config_by_id("srun", n_nodes=1, waves=1)
    ens = run_ensemble(cfg, seeds=[1, 6], profile_dir=str(tmp_path / "out"))
    for member in ens.members:
        assert member.profile_path is not None
        _, ref_digest = _independent(cfg, member.seed, tmp_path,
                                     f"ref-{member.seed}")
        with open(member.profile_path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == ref_digest


def test_seed_grouping_is_irrelevant(tmp_path):
    """Members are independent: any partition of the seed list into
    ensemble calls yields the same per-seed bytes."""
    cfg = config_by_id("srun", n_nodes=1, waves=1)
    whole = run_ensemble(cfg, seeds=[0, 1, 2, 3],
                         profile_dir=str(tmp_path / "whole"))
    split_a = run_ensemble(cfg, seeds=[0, 1],
                           profile_dir=str(tmp_path / "split"))
    split_b = run_ensemble(cfg, seeds=[2, 3],
                           profile_dir=str(tmp_path / "split"))
    parts = list(split_a.members) + list(split_b.members)
    for mw, mp in zip(whole.members, parts):
        assert mw.seed == mp.seed
        assert _member_digest(mw) == _member_digest(mp)


@pytest.mark.parametrize("overrides, reason", [
    (dict(launcher="flux", n_partitions=2), "multi-instance flux"),
    (dict(launcher="dragon", n_partitions=2), "multi-partition dragon"),
    (dict(workload="mixed"), "mixed workload"),
])
def test_vectorized_gating(overrides, reason):
    base = dict(exp_id="gate", launcher="srun", workload="null",
                n_nodes=4, n_partitions=1, duration=3.0, waves=1, seed=0)
    base.update(overrides)
    assert not supports_vectorized(ExperimentConfig(**base)), reason


@pytest.mark.parametrize("launcher, expected", [
    # Zero-cv latencies make flux/dragon event ties resolve by kernel
    # insertion order, which the closed-form recurrences don't model;
    # srun's strict-FIFO pipeline is immune to tie ordering.
    ("flux", False),
    ("dragon", False),
    ("srun", True),
])
def test_vectorized_gating_deterministic_latencies(launcher, expected):
    from repro.platform.latency import DETERMINISTIC_LATENCIES

    cfg = ExperimentConfig(exp_id="gate", launcher=launcher,
                           workload="null", n_nodes=1, n_partitions=1,
                           duration=3.0, waves=1, seed=0)
    assert supports_vectorized(cfg, DETERMINISTIC_LATENCIES) is expected


def test_vectorized_gating_faults():
    from repro.faults import FaultSpec

    cfg = config_by_id("srun", waves=1)
    assert supports_vectorized(cfg)
    import dataclasses

    faulty = dataclasses.replace(cfg, faults=FaultSpec(mtbf=100.0))
    assert not supports_vectorized(faulty)
