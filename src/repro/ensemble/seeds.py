"""Seed-list parsing for ensemble sweeps and the experiments CLI.

The CLI exposes explicit seed lists (``run --seeds 1,2,5-20``) next to
the older ``--reps`` form (which derives ``cfg.seed + rep``).  Parsing
and :func:`sweep_seeds` live in their own dependency-free module so
both the harness and the ensemble engine resolve a sweep's seeds the
same way without a circular import.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Union

from ..exceptions import ConfigurationError

#: Accepted by every ``seeds=`` parameter: an explicit sequence of
#: ints or a spec string like ``"1,2,5-20"``.
SeedsLike = Union[str, Sequence[int], Iterable[int]]


def parse_seed_list(spec: str) -> List[int]:
    """Parse ``"1,2,5-20"`` into an explicit seed list.

    Comma-separated entries; each entry is one non-negative integer or
    an inclusive ``lo-hi`` range.  Order is preserved and duplicates
    are kept (running one seed twice is a deterministic no-op worth
    allowing for A/B timing), so ``"3,1-2"`` yields ``[3, 1, 2]``.
    """
    out: List[int] = []
    for raw in spec.split(","):
        entry = raw.strip()
        if not entry:
            raise ConfigurationError(f"empty entry in seed list {spec!r}")
        lo, sep, hi = entry.partition("-")
        try:
            if sep:
                start, stop = int(lo), int(hi)
                if start > stop:
                    raise ConfigurationError(
                        f"descending seed range {entry!r} in {spec!r}")
                out.extend(range(start, stop + 1))
            else:
                out.append(int(entry))
        except ValueError:
            raise ConfigurationError(
                f"bad seed entry {entry!r} in {spec!r}")
    if not out:
        raise ConfigurationError(f"empty seed list {spec!r}")
    if any(s < 0 for s in out):
        raise ConfigurationError(f"negative seed in {spec!r}")
    return out


def resolve_seeds(seeds: SeedsLike) -> List[int]:
    """Normalize any ``seeds=`` argument into a non-empty int list."""
    if isinstance(seeds, str):
        return parse_seed_list(seeds)
    out = [int(s) for s in seeds]
    if not out:
        raise ConfigurationError("seed list is empty")
    if any(s < 0 for s in out):
        raise ConfigurationError(f"negative seed in {out!r}")
    return out


def sweep_seeds(cfg, seeds: Optional[SeedsLike] = None,
                n_reps: Optional[int] = None) -> List[int]:
    """The seed list of a multi-run sweep over ``cfg``.

    ``seeds`` names the seeds explicitly (see :func:`resolve_seeds`);
    otherwise the sweep runs ``cfg.seed + rep`` for ``n_reps``
    repetitions, 3 when neither is given.  Passing both is an error,
    not a silent preference for one.
    """
    if seeds is not None and n_reps is not None:
        raise ConfigurationError("pass seeds= or n_reps=, not both")
    if seeds is not None:
        return resolve_seeds(seeds)
    reps = 3 if n_reps is None else n_reps
    if reps < 1:
        raise ConfigurationError("n_reps must be >= 1")
    return [cfg.seed + rep for rep in range(reps)]
