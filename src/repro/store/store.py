"""The content-addressed on-disk run store.

Layout (everything under one root directory)::

    <root>/
      store.json        format marker + digest-scheme version
      objects/ab/<digest>/
        entry.json      full config doc, cache key, fingerprint,
                        artifact hashes + sizes; its mtime is the
                        entry's LRU clock
        result.json     the run's metrics document (result_to_doc)
        profile.jsonl   byte-exact trace export (save_profile format)
      tmp/              staging dirs (one atomic rename publishes each)
      trash/            eviction staging (renamed out, then deleted)

``objects/`` is the store's only record: listing, ``gc`` and prefix
lookup read the object directories, and nothing else is kept in step
with them.  Stores written with an ``index.json`` / ``index.jsonl`` /
``index.lock`` keep working; those files are ignored.

Correctness properties, each pinned by ``tests/store``:

* **Atomic publication.**  A writer stages the whole entry in
  ``tmp/`` and publishes it with one ``os.rename``; concurrent
  writers of the same digest race to one winner (``rename`` onto an
  existing directory fails; the loser discards its staging copy).
  Readers never observe a partial entry.
* **Integrity on read.**  ``entry.json`` records the sha256 of every
  artifact; every artifact a read *delivers* is verified against it
  first.  A corrupt entry is quarantined (counted, removed) and
  reported as a miss — never served.
* **Safe eviction.**  Eviction renames the entry directory into
  ``trash/`` before deleting; a reader holding open file handles
  keeps its POSIX data, and no half-deleted entry is ever visible at
  its content address.
* **LRU eviction.**  :meth:`RunStore.gc` evicts least-recently-used
  entries down to a byte or entry cap (``store gc --max-bytes`` /
  ``--max-entries``).  A hit sets its ``entry.json`` mtime to now
  (one ``utime``, no lock), so a hit and a put cost the same however
  many entries the store holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import errno
import glob
import hashlib
import io
import json
import os
import shutil
import time
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..exceptions import StoreError
from .keys import KEY_SCHEME, cache_key, run_digest

PathLike = Union[str, Path]

STORE_FORMAT = "repro-run-store"
STORE_VERSION = 1

#: Artifact names every complete entry carries.
ARTIFACT_RESULT = "result.json"
ARTIFACT_PROFILE = "profile.jsonl"
ENTRY_NAME = "entry.json"


@dataclasses.dataclass
class StoreStats:
    """Hit/miss/write counters (per store instance and process-wide).

    The process-wide instance (:data:`STATS`) is what the Zipf cost
    gate snapshots to count a request stream's hits, misses and puts
    exactly (see ``benchmarks/test_cost_gates.py``).
    """

    hits: int = 0
    misses: int = 0
    stored: int = 0
    lost_races: int = 0
    evicted: int = 0
    integrity_failures: int = 0

    def snapshot(self) -> Dict[str, int]:
        return dataclasses.asdict(self)

    def delta(self, before: Dict[str, int]) -> Dict[str, int]:
        now = self.snapshot()
        return {key: now[key] - before.get(key, 0) for key in now}


#: Process-wide counters, aggregated across every store instance.
STATS = StoreStats()


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sha256_file(path: Path) -> str:
    hasher = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            hasher.update(chunk)
    return hasher.hexdigest()


def result_to_doc(result) -> Dict[str, Any]:
    """The ``result.json`` document of one finished run.

    It carries everything an
    :class:`~repro.experiments.harness.ExperimentResult` holds except
    per-task objects and the live session (the same contract pooled
    runs have): counts, throughput, utilization, makespan, startup
    overheads and the fault report.
    """
    return {
        "n_tasks": result.n_tasks,
        "n_done": result.n_done,
        "n_failed": result.n_failed,
        "throughput": dataclasses.asdict(result.throughput),
        "utilization_cores": result.utilization_cores,
        "utilization_gpus": result.utilization_gpus,
        "makespan": result.makespan,
        "startup_overheads": [list(pair) for pair in
                              result.startup_overheads],
        "wall_seconds": result.wall_seconds,
        "faults": (dataclasses.asdict(result.faults)
                   if result.faults is not None else None),
        # Frozen keys: run stores on disk carry them; readers ignore
        # them.
        "n_shards": 0,
        "shard_peak_rss_mb": [],
    }


def result_from_doc(cfg, doc: Dict[str, Any]):
    """Rebuild a (task-free) ``ExperimentResult`` from its document.

    Documents without a ``faults`` key load with ``faults=None``.
    """
    from ..analytics.metrics import ThroughputStats
    from ..experiments.harness import ExperimentResult

    result = ExperimentResult(
        config=cfg,
        n_tasks=int(doc["n_tasks"]),
        n_done=int(doc["n_done"]),
        n_failed=int(doc["n_failed"]),
        throughput=ThroughputStats(**doc["throughput"]),
        utilization_cores=float(doc["utilization_cores"]),
        utilization_gpus=float(doc["utilization_gpus"]),
        makespan=float(doc["makespan"]),
        startup_overheads=[(str(n), float(v)) for n, v in
                           doc.get("startup_overheads", [])],
        wall_seconds=float(doc.get("wall_seconds", 0.0)),
    )
    faults = doc.get("faults")
    if faults is not None:
        from ..faults import FaultReport

        faults = dict(faults)
        faults["schedule"] = tuple(
            tuple(item) for item in faults.get("schedule", ()))
        result.faults = FaultReport(**faults)
    return result


@dataclasses.dataclass
class CachedRun:
    """One verified store entry, ready to deliver."""

    digest: str
    path: Path
    entry: Dict[str, Any]
    result_doc: Dict[str, Any]

    def to_result(self, cfg):
        """The run's (task-free) ``ExperimentResult``, marked cached."""
        result = result_from_doc(cfg, self.result_doc)
        result.provenance = "cached"
        result.cache = {"hit": True, "digest": self.digest}
        return result

    def profile_bytes(self) -> bytes:
        """The byte-exact profile export, integrity-verified."""
        path = self.path / ARTIFACT_PROFILE
        data = path.read_bytes()
        recorded = self.entry["artifacts"][ARTIFACT_PROFILE]["sha256"]
        if _sha256_bytes(data) != recorded:
            raise StoreError(
                f"store entry {self.digest[:12]}: profile blob corrupt "
                f"(sha256 mismatch against {ENTRY_NAME})")
        return data


class RunStore:
    """Content-addressed store of finished runs, keyed by run digest."""

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)
        self.stats = StoreStats()
        self.root.mkdir(parents=True, exist_ok=True)
        marker = self.root / "store.json"
        if not marker.exists():
            from ..resilience.atomic import atomic_write_json

            atomic_write_json(marker, {
                "format": STORE_FORMAT,
                "version": STORE_VERSION,
                "key_scheme": KEY_SCHEME,
            })
        else:
            doc = json.loads(marker.read_text(encoding="utf-8"))
            if doc.get("format") != STORE_FORMAT:
                raise StoreError(f"{self.root}: not a repro run store")
            if doc.get("key_scheme") != KEY_SCHEME:
                raise StoreError(
                    f"{self.root}: digest scheme {doc.get('key_scheme')!r} "
                    f"does not match this code's scheme {KEY_SCHEME}")

    # -- construction helpers ----------------------------------------------

    @classmethod
    def resolve(cls, cache) -> Optional["RunStore"]:
        """Coerce a ``cache=`` argument: ``None`` stays off, a
        :class:`RunStore` passes through, anything path-like opens a
        store rooted there."""
        if cache is None:
            return None
        if isinstance(cache, RunStore):
            return cache
        return cls(cache)

    def digest_for(self, cfg, seed: Optional[int] = None,
                   fingerprint: Optional[str] = None,
                   key: Optional[str] = None) -> str:
        """The run digest this store would file ``cfg`` under
        (``key``: see :func:`~repro.store.keys.run_digest`)."""
        return run_digest(cfg, seed=seed, fingerprint=fingerprint,
                          key=key)

    # -- paths -------------------------------------------------------------

    def _object_dir(self, digest: str) -> Path:
        return self.root / "objects" / digest[:2] / digest

    # -- write path --------------------------------------------------------

    def put(self, digest: str, cfg, result, profile_bytes: bytes,
            key: Optional[str] = None) -> bool:
        """Store one finished run under ``digest``.

        ``profile_bytes`` are the exact bytes of the run's
        ``save_profile`` export (:func:`export_profile_bytes` for a
        live profiler); ``key`` is ``cache_key(cfg)`` when the caller
        already holds it.  Returns ``True`` when this call published
        the entry, ``False`` when another writer won the race (their
        copy is byte-identical by the determinism contract, so losing
        costs nothing).
        """
        final = self._object_dir(digest)
        if final.exists():
            return False
        stage = self.root / "tmp" / f"{digest}.{os.getpid()}.{uuid.uuid4().hex}"
        stage.mkdir(parents=True)
        try:
            (stage / ARTIFACT_PROFILE).write_bytes(profile_bytes)
            result_text = json.dumps(result_to_doc(result), sort_keys=True,
                                     indent=2) + "\n"
            result_bytes = result_text.encode("utf-8")
            (stage / ARTIFACT_RESULT).write_bytes(result_bytes)
            entry = {
                "format": STORE_FORMAT,
                "version": STORE_VERSION,
                "digest": digest,
                "cache_key": cache_key(cfg) if key is None else key,
                "seed": cfg.seed,
                "config": dataclasses.asdict(cfg),
                "created": time.time(),
                "artifacts": {
                    ARTIFACT_RESULT: {
                        "sha256": _sha256_bytes(result_bytes),
                        "bytes": len(result_bytes),
                    },
                    ARTIFACT_PROFILE: {
                        "sha256": _sha256_bytes(profile_bytes),
                        "bytes": len(profile_bytes),
                    },
                },
            }
            entry_bytes = (json.dumps(entry, sort_keys=True, indent=2,
                                      default=repr) + "\n").encode("utf-8")
            (stage / ENTRY_NAME).write_bytes(entry_bytes)
            final.parent.mkdir(parents=True, exist_ok=True)
            try:
                os.rename(stage, final)
            except OSError as exc:
                if exc.errno in (errno.EEXIST, errno.ENOTEMPTY,
                                 errno.EPERM):
                    # Another writer published the same digest first;
                    # by the determinism contract its bytes equal ours.
                    self.stats.lost_races += 1
                    STATS.lost_races += 1
                    return False
                raise
        finally:
            if stage.exists():
                shutil.rmtree(stage, ignore_errors=True)
        self.stats.stored += 1
        STATS.stored += 1
        return True

    # -- read path ---------------------------------------------------------

    def fetch(self, digest: str, touch: bool = True) -> Optional[CachedRun]:
        """The verified entry at ``digest``, or ``None`` (a miss).

        Verifies the result document against the hashes recorded in
        ``entry.json`` before delivering it; the (much larger) profile
        blob is verified by :meth:`CachedRun.profile_bytes` when it is
        actually read.  A corrupt entry is quarantined and counted.
        ``touch`` records the access for LRU by setting the
        ``entry.json`` mtime to now.
        """
        path = self._object_dir(digest)
        entry_path = path / ENTRY_NAME
        if not entry_path.exists():
            self._miss()
            return None
        try:
            entry = json.loads(entry_path.read_text(encoding="utf-8"))
            result_bytes = (path / ARTIFACT_RESULT).read_bytes()
        except (OSError, ValueError):
            self._quarantine(digest, "unreadable entry")
            self._miss()
            return None
        recorded = entry.get("artifacts", {}).get(
            ARTIFACT_RESULT, {}).get("sha256")
        if recorded != _sha256_bytes(result_bytes):
            self._quarantine(digest, "result document corrupt")
            self._miss()
            return None
        result_doc = json.loads(result_bytes.decode("utf-8"))
        if touch:
            now = time.time_ns()
            with contextlib.suppress(FileNotFoundError):  # evicted
                os.utime(entry_path, ns=(now, now))
        self.stats.hits += 1
        STATS.hits += 1
        return CachedRun(digest=digest, path=path, entry=entry,
                         result_doc=result_doc)

    def load_result(self, cfg, digest: str):
        """Convenience: fetch + rebuild the cached result, or ``None``."""
        cached = self.fetch(digest)
        return cached.to_result(cfg) if cached is not None else None

    def _miss(self) -> None:
        self.stats.misses += 1
        STATS.misses += 1

    def _quarantine(self, digest: str, reason: str) -> None:
        self.stats.integrity_failures += 1
        STATS.integrity_failures += 1
        self._remove(digest)

    # -- maintenance -------------------------------------------------------

    def _remove(self, digest: str) -> None:
        """Delete one entry via rename-then-delete (readers holding
        open handles keep their data; the address vanishes atomically).
        """
        path = self._object_dir(digest)
        if not path.exists():
            return
        trash = self.root / "trash"
        trash.mkdir(parents=True, exist_ok=True)
        target = trash / f"{digest}.{uuid.uuid4().hex}"
        try:
            os.rename(path, target)
        except OSError:  # pragma: no cover - concurrent removal
            return
        shutil.rmtree(target, ignore_errors=True)

    def gc(self, max_bytes: Optional[int] = None,
           max_entries: Optional[int] = None) -> List[str]:
        """Evict least-recently-used entries down to the given caps;
        returns the evictees.  Ties on the LRU clock go to the older
        ``created``."""
        entries = self._scan_objects()
        evicted: List[str] = []
        by_age = sorted(
            entries,
            key=lambda d: (entries[d]["last_access"],
                           entries[d].get("created") or 0.0))
        total = sum(int(m.get("bytes", 0)) for m in entries.values())

        def over() -> bool:
            if max_entries is not None and len(entries) > max_entries:
                return True
            return max_bytes is not None and total > max_bytes

        for digest in by_age:
            if not over():
                break
            self._remove(digest)
            total -= int(entries.pop(digest).get("bytes", 0))
            evicted.append(digest)
            self.stats.evicted += 1
            STATS.evicted += 1
        return evicted

    def verify(self) -> List[str]:
        """Integrity-check every artifact of every entry; returns a
        list of problems (empty = clean).  Read-only: nothing is
        quarantined, so operators see the full damage report first."""
        problems: List[str] = []
        objects = self.root / "objects"
        if not objects.is_dir():
            return problems
        for entry_path in sorted(objects.glob("*/*/" + ENTRY_NAME)):
            label = entry_path.parent.name[:12]
            try:
                entry = json.loads(entry_path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                problems.append(f"{label}: unreadable entry.json ({exc})")
                continue
            for name, meta in entry.get("artifacts", {}).items():
                blob = entry_path.parent / name
                if not blob.exists():
                    problems.append(f"{label}: missing artifact {name}")
                    continue
                if _sha256_file(blob) != meta.get("sha256"):
                    problems.append(f"{label}: sha256 mismatch on {name}")
        return problems

    # -- enumeration -------------------------------------------------------

    def _scan_objects(self) -> Dict[str, Dict[str, Any]]:
        """Summary rows for every entry, read from ``objects/``; an
        entry's ``last_access`` is its ``entry.json`` mtime."""
        rows: Dict[str, Dict[str, Any]] = {}
        for entry_path in (self.root / "objects").glob("*/*/" + ENTRY_NAME):
            try:
                last_access = entry_path.stat().st_mtime
                entry = json.loads(entry_path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            digest = entry.get("digest")
            if not digest:
                continue
            cfg = entry.get("config", {})
            rows[digest] = {
                "exp_id": cfg.get("exp_id"),
                "launcher": cfg.get("launcher"),
                "workload": cfg.get("workload"),
                "n_nodes": cfg.get("n_nodes"),
                "n_partitions": cfg.get("n_partitions"),
                "seed": entry.get("seed"),
                "created": entry.get("created"),
                "last_access": last_access,
                "bytes": sum(a.get("bytes", 0)
                             for a in entry.get("artifacts", {}).values()),
            }
        return rows

    def entries(self) -> List[Dict[str, Any]]:
        """Summary rows for every stored run, newest first."""
        rows = [dict(meta, digest=digest)
                for digest, meta in self._scan_objects().items()]
        rows.sort(key=lambda m: m.get("created") or 0.0, reverse=True)
        return rows

    def get(self, digest: str) -> Optional[CachedRun]:
        """Like :meth:`fetch` but without bumping the LRU clock; also
        accepts an unambiguous digest prefix."""
        if len(digest) < 64:
            pattern = f"{glob.escape(digest[:2])}*/{glob.escape(digest)}*"
            matches = [path.name for path in
                       (self.root / "objects").glob(pattern)]
            if not matches:
                return None
            if len(matches) > 1:
                raise StoreError(
                    f"digest prefix {digest!r} is ambiguous "
                    f"({len(matches)} matches)")
            digest = matches[0]
        return self.fetch(digest, touch=False)

    def export(self, digest: str, out_dir: PathLike) -> Dict[str, Path]:
        """Copy one entry's artifacts into ``out_dir`` (verified)."""
        cached = self.get(digest)
        if cached is None:
            raise StoreError(f"no store entry matches {digest!r}")
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        from ..resilience.atomic import atomic_write_bytes

        written = {
            ARTIFACT_PROFILE: atomic_write_bytes(
                out / ARTIFACT_PROFILE, cached.profile_bytes()),
            ARTIFACT_RESULT: atomic_write_bytes(
                out / ARTIFACT_RESULT,
                (json.dumps(cached.result_doc, sort_keys=True, indent=2)
                 + "\n").encode("utf-8")),
            ENTRY_NAME: atomic_write_bytes(
                out / ENTRY_NAME,
                (self._object_dir(cached.digest) / ENTRY_NAME)
                .read_bytes()),
        }
        return written


def export_profile_bytes(profiler) -> bytes:
    """A live profiler's ``save_profile`` export as bytes, for
    :meth:`RunStore.put`: encoded in memory by the same writer
    (:func:`repro.analytics.export.write_profile`), so spilled-chunk
    concatenation stays verbatim."""
    from ..analytics.export import write_profile

    buf = io.StringIO()
    write_profile(buf, profiler)
    return buf.getvalue().encode("utf-8")
