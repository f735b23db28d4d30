"""What each benchmark round runs.

The parent (:mod:`bench.run`) and the round program (:mod:`bench.child`)
both read this table, so a workload is defined in one place.  A
round's inputs are a pure function of the workload name and the seed.
All workloads are closed loops with a single client: the next run or
request starts only when the previous one has returned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Round kinds: ``run`` mirrors ``python -m repro.experiments run <exp>
#: --profile <file>``; ``sweep`` serves a stream of cached ensemble
#: requests from one long-lived process.
KIND_RUN = "run"
KIND_SWEEP = "sweep"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    #: One line on why the benchmark carries this workload.
    why: str
    #: Table-1 experiment id and field overrides (``run`` workloads).
    exp_id: str = ""
    overrides: Tuple[Tuple[str, object], ...] = ()
    #: Distinct 8-seed blocks per sweep configuration, and requests per
    #: configuration (``sweep`` workloads).  Each configuration gets the
    #: same Zipf popularity profile, so the hit count and the launcher
    #: mix do not depend on the seed.
    sweep_keys: int = 0
    sweep_requests: int = 0

    @property
    def requests(self) -> int:
        """Operations per round: the run itself, or each sweep request."""
        if self.kind == KIND_RUN:
            return 1
        return self.sweep_requests * len(SWEEP_EXPERIMENTS)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "fluxn_null", KIND_RUN,
        "flux_n, 256 nodes, 64 partitions, null tasks: the Fig-6 "
        "hierarchy, where kernel and Flux scheduler time dominate",
        exp_id="flux_n",
        overrides=(("n_nodes", 256), ("n_partitions", 64), ("waves", 1))),
    Workload(
        "hybrid_mixed", KIND_RUN,
        "flux+dragon, 64 nodes, mixed exec and function tasks: the only "
        "workload that drives Dragon and the agent router",
        exp_id="flux+dragon",
        overrides=(("n_nodes", 64), ("n_partitions", 16), ("waves", 4))),
    Workload(
        "impeccable_flux", KIND_RUN,
        "IMPECCABLE campaign on 1024 nodes with backfill: placement-bound "
        "and setup-heavy, where kernel and Flux changes should not show",
        exp_id="impeccable_flux",
        overrides=(("n_nodes", 1024),)),
    Workload(
        "sweep_store", KIND_SWEEP,
        "Zipf stream of cached 8-seed ensemble requests: store hits beside "
        "vectorized misses, with the scalar simulator bypassed",
        sweep_keys=4, sweep_requests=10),
)}

#: The sweep's configurations: small single-partition configs that the
#: vectorized ensemble engine accepts, one per launcher family.
SWEEP_EXPERIMENTS = ("srun", "dragon", "flux_1")
SWEEP_OVERRIDES = (("n_nodes", 4), ("waves", 1))
#: Seeds per request.  Blocks are aligned (``[8b, 8b + 8)``), so a
#: request either repeats an earlier one exactly (all hits) or shares
#: no seed with any earlier one (all misses).
SWEEP_BLOCK = 8
#: Block indices are drawn from ``range(SWEEP_BLOCK_SPACE)``.
SWEEP_BLOCK_SPACE = 4096


def zipf_counts(n_keys: int, total: int) -> List[int]:
    """Request counts for popularity ranks ``1..n_keys`` under Zipf's
    law (weight ``1/rank``), rounded by largest remainder so they sum
    to ``total``, each at least 1."""
    weights = [1.0 / rank for rank in range(1, n_keys + 1)]
    shares = [total * w / sum(weights) for w in weights]
    counts = [max(1, int(s)) for s in shares]
    deficit = total - sum(counts)
    if deficit < 0:
        raise ValueError(f"{total} requests cannot cover {n_keys} keys")
    by_remainder = sorted(range(n_keys), key=lambda i: counts[i] - shares[i])
    for i in by_remainder[:deficit]:
        counts[i] += 1
    return counts


def sweep_stream(seed: int, workload: Workload) -> List[Tuple[str, int]]:
    """The request stream for ``seed``: ``(exp_id, first seed)`` pairs,
    each naming the block ``[first, first + SWEEP_BLOCK)``."""
    rng = random.Random(seed)
    counts = zipf_counts(workload.sweep_keys, workload.sweep_requests)
    stream = []
    for exp_id in SWEEP_EXPERIMENTS:
        blocks = rng.sample(range(SWEEP_BLOCK_SPACE), workload.sweep_keys)
        for block, count in zip(blocks, counts):
            stream.extend([(exp_id, block * SWEEP_BLOCK)] * count)
    rng.shuffle(stream)
    return stream


def sweep_expected(stream: List[Tuple[str, int]]) -> List[bool]:
    """Per request: ``True`` when it repeats an earlier request (every
    member is a store hit), ``False`` when it is the first (every
    member misses)."""
    seen = set()
    repeats = []
    for key in stream:
        repeats.append(key in seen)
        seen.add(key)
    return repeats
