"""Query and analytics over a run store.

The "find runs like this one" surface (the Chroma embedding-store
idiom, applied to metric vectors instead of embeddings):

* :func:`query` — filter stored runs by config fields, with
  equality, comparison-operator and callable predicates;
* :func:`metric_vector` / :func:`nearest` — embed every run as a
  fixed vector of its headline metrics and rank neighbours by
  z-score-normalized euclidean distance, so "similar" means similar
  *behavior* (throughput, utilization, makespan), not similar knobs;
* :func:`compare` — side-by-side metric table across named runs,
  with relative deltas against the first.

Everything here reads entry and result documents only — no
profile blobs are touched, so queries stay cheap even when the store
holds multi-GB traces.
"""

from __future__ import annotations

import math
import operator
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..exceptions import StoreError
from .store import CachedRun, RunStore

#: Metric fields embedded into the nearest-neighbour vector, in order.
METRIC_FIELDS = (
    "throughput_avg",
    "throughput_peak",
    "utilization_cores",
    "makespan",
    "n_tasks",
)

#: Comparison-operator suffixes accepted by the ``where`` filter
#: (``{"n_nodes__ge": 64}``) and by the CLI's ``key>=value`` forms.
_OPS: Dict[str, Callable[[Any, Any], bool]] = {
    "eq": operator.eq,
    "ne": operator.ne,
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
}


def _entry_value(entry: Dict[str, Any], field: str) -> Any:
    """A field from an entry document: config first, then the entry
    itself (seed, created), then the result metrics."""
    config = entry.get("config") or {}
    if field in config:
        return config[field]
    if field in entry:
        return entry[field]
    return (entry.get("result") or {}).get(field)


def _matches(entry: Dict[str, Any], where: Dict[str, Any]) -> bool:
    for key, want in where.items():
        field, _, op_name = key.partition("__")
        value = _entry_value(entry, field)
        if callable(want):
            if not want(value):
                return False
            continue
        op = _OPS.get(op_name or "eq")
        if op is None:
            raise StoreError(f"unknown query operator {op_name!r} "
                             f"(pick from {sorted(_OPS)})")
        try:
            if value is None or not op(value, want):
                return False
        except TypeError:
            return False
    return True


def _load(store: RunStore, digest: str) -> Dict[str, Any]:
    cached = store.get(digest)
    if cached is None:
        raise StoreError(f"no store entry matches {digest!r}")
    return _doc(cached)


def _doc(cached: CachedRun) -> Dict[str, Any]:
    return {
        "digest": cached.digest,
        "config": cached.entry.get("config", {}),
        "seed": cached.entry.get("seed"),
        "created": cached.entry.get("created"),
        "result": cached.result_doc,
    }


def query(store: RunStore, where: Optional[Dict[str, Any]] = None,
          limit: Optional[int] = None) -> List[Dict[str, Any]]:
    """Stored runs whose config/metrics match ``where``.

    ``where`` maps field names (optionally suffixed ``__lt``,
    ``__ge``, ...) to values or predicates; fields resolve against the
    config document first, then entry metadata, then result metrics
    (``{"launcher": "flux", "n_nodes__ge": 64,
    "throughput_avg__gt": 1000.0}``).  Returns full documents
    (config + metrics), newest first.
    """
    rows = store.entries()
    out: List[Dict[str, Any]] = []
    for row in rows:
        cached = store.get(row["digest"])
        if cached is None:
            continue
        doc = _doc(cached)
        if where and not _matches(doc, where):
            continue
        out.append(doc)
        if limit is not None and len(out) >= limit:
            break
    return out


def metric_vector(doc: Dict[str, Any]) -> List[float]:
    """The run's embedding: its headline metrics, in
    :data:`METRIC_FIELDS` order.  ``throughput`` nests avg/peak in
    the result document; both forms are accepted."""
    result = doc.get("result") or doc
    throughput = result.get("throughput") or {}
    values = {
        "throughput_avg": result.get("throughput_avg",
                                     throughput.get("avg")),
        "throughput_peak": result.get("throughput_peak",
                                      throughput.get("peak")),
        "utilization_cores": result.get("utilization_cores"),
        "makespan": result.get("makespan"),
        "n_tasks": result.get("n_tasks"),
    }
    return [float(values[f] or 0.0) for f in METRIC_FIELDS]


def nearest(store: RunStore, digest: str, k: int = 5,
            where: Optional[Dict[str, Any]] = None
            ) -> List[Tuple[Dict[str, Any], float]]:
    """The ``k`` stored runs most similar to ``digest`` in metric
    space (the query run itself excluded).

    Distances are euclidean over per-dimension z-scores computed
    across the candidate population, so a metric's scale (makespan in
    hundreds of seconds vs utilization in [0, 1]) does not dominate.
    ``where`` pre-filters the candidates.  Returns ``(document,
    distance)`` pairs, nearest first.
    """
    target = _load(store, digest)
    candidates = [doc for doc in query(store, where=where)
                  if doc["digest"] != target["digest"]]
    if not candidates:
        return []
    population = [metric_vector(doc) for doc in candidates]
    population.append(metric_vector(target))
    dims = len(METRIC_FIELDS)
    n = len(population)
    means = [sum(vec[d] for vec in population) / n for d in range(dims)]
    stds = []
    for d in range(dims):
        var = sum((vec[d] - means[d]) ** 2 for vec in population) / n
        stds.append(math.sqrt(var) or 1.0)

    def z(vec: Sequence[float]) -> List[float]:
        return [(vec[d] - means[d]) / stds[d] for d in range(dims)]

    t = z(population[-1])
    scored = []
    for doc, vec in zip(candidates, population):
        zv = z(vec)
        dist = math.sqrt(sum((zv[d] - t[d]) ** 2 for d in range(dims)))
        scored.append((doc, dist))
    scored.sort(key=lambda pair: (pair[1], pair[0]["digest"]))
    return scored[:max(k, 0)]


def compare(store: RunStore, digests: Sequence[str]
            ) -> List[Dict[str, Any]]:
    """Metric profiles of several runs side by side.

    Returns one row per metric field: the value in every named run
    plus ``delta`` — each run's relative difference from the first
    (the comparison baseline).
    """
    if len(digests) < 2:
        raise StoreError("compare needs at least two digests")
    docs = [_load(store, digest) for digest in digests]
    vectors = [metric_vector(doc) for doc in docs]
    rows = []
    for d, field in enumerate(METRIC_FIELDS):
        base = vectors[0][d]
        rows.append({
            "metric": field,
            "values": [vec[d] for vec in vectors],
            "delta": [
                (vec[d] - base) / base if base else
                (0.0 if vec[d] == base else math.inf)
                for vec in vectors],
        })
    return rows
