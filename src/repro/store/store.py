"""The content-addressed on-disk run store.

Layout (everything under one root directory)::

    <root>/
      store.json          format marker, store version, digest scheme
      objects/ab/<digest> one file per stored run (below); its mtime
                          is the entry's LRU clock
      tmp/                temp files of puts in flight

An object file has three parts, in order:

1. one JSON header line: digest, cache key, seed, full config doc,
   creation time, and the sha256 and byte length of each part below;
2. the run's result document (:func:`result_to_doc`);
3. the byte-exact profile export (``save_profile`` format).

``objects/`` is the store's only record: listing, ``gc`` and prefix
lookup read the object files' header lines, and nothing else is kept
in step with them.

Correctness properties, each pinned by ``tests/store``:

* **Atomic publication.**  A writer writes the whole object to a temp
  file in ``tmp/`` and publishes it with one ``os.link`` to its
  address; concurrent writers of the same digest race to one winner
  (``link`` onto an existing name fails; the loser counts a lost race).
  Either way the temp file is unlinked.  Readers never observe a
  partial object.
* **Integrity on read.**  The header records the sha256 and length of
  each part; every part a read *delivers* is verified against it
  first.  A hit reads the header line and the result part only; the
  profile part is read and verified when it is used.  A corrupt
  object is quarantined (counted, removed) and reported as a miss —
  never served.
* **Safe eviction.**  Eviction is one ``os.unlink``: the address
  vanishes atomically, and a reader holding the file open keeps its
  POSIX data.
* **LRU eviction.**  :meth:`RunStore.gc` evicts least-recently-used
  entries down to a byte or entry cap (``store gc --max-bytes`` /
  ``--max-entries``).  A hit sets its object file's mtime to now
  (one ``utime``, no lock), so a hit and a put cost the same however
  many entries the store holds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import re
import time
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..exceptions import StoreError
from .keys import KEY_SCHEME, cache_key, run_digest

PathLike = Union[str, Path]

STORE_FORMAT = "repro-run-store"
STORE_VERSION = 2

#: What :meth:`RunStore.get` accepts: a run digest or a prefix of one.
_DIGEST_PREFIX = re.compile(r"[0-9a-f]{1,64}")


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


def _part(data: bytes) -> Dict[str, Any]:
    """The header's record of one part: its sha256 and byte length."""
    return {"sha256": _sha256_bytes(data), "bytes": len(data)}


def _read_header(fh) -> Tuple[Dict[str, Any], int]:
    """``(header, length of the header line)`` of an open object file."""
    line = fh.readline()
    return json.loads(line), len(line)


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
    #: Where the profile part starts in the object file.
    profile_offset: int

    def to_result(self, cfg):
        """The run's (task-free) ``ExperimentResult``, marked cached."""
        result = result_from_doc(cfg, self.result_doc)
        result.provenance = "cached"
        result.cache = {"hit": True, "digest": self.digest}
        return result

    def profile_bytes(self) -> bytes:
        """The byte-exact profile export, integrity-verified."""
        recorded = self.entry["parts"]["profile"]
        with self.path.open("rb") as fh:
            fh.seek(self.profile_offset)
            data = fh.read(recorded["bytes"])
        if _part(data) != recorded:
            raise StoreError(
                f"store entry {self.digest[:12]}: profile part corrupt "
                f"(length or sha256 mismatch against its header)")
        return data


class RunStore:
    """Content-addressed store of finished runs, keyed by run digest."""

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)
        self.stats = StoreStats()
        (self.root / "tmp").mkdir(parents=True, exist_ok=True)
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
            if doc.get("version") != STORE_VERSION:
                raise StoreError(
                    f"{self.root}: store version {doc.get('version')!r} "
                    f"does not match this code's version {STORE_VERSION}")
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

    def _object_path(self, digest: str) -> Path:
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
        final = self._object_path(digest)
        if final.exists():
            return False
        result_bytes = (json.dumps(result_to_doc(result), sort_keys=True,
                                   indent=2) + "\n").encode("utf-8")
        header = {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "digest": digest,
            "cache_key": cache_key(cfg) if key is None else key,
            "seed": cfg.seed,
            "config": dataclasses.asdict(cfg),
            "created": time.time(),
            "parts": {"result": _part(result_bytes),
                      "profile": _part(profile_bytes)},
        }
        header_bytes = (json.dumps(header, sort_keys=True, default=repr)
                        + "\n").encode("utf-8")
        temp = self.root / "tmp" / f"{digest}.{os.getpid()}.{uuid.uuid4().hex}"
        try:
            with temp.open("wb") as fh:
                fh.write(header_bytes)
                fh.write(result_bytes)
                fh.write(profile_bytes)
            final.parent.mkdir(parents=True, exist_ok=True)
            try:
                os.link(temp, final)
            except FileExistsError:
                # Another writer published the same digest first; by
                # the determinism contract its bytes equal ours.
                self.stats.lost_races += 1
                STATS.lost_races += 1
                return False
        finally:
            temp.unlink(missing_ok=True)
        self.stats.stored += 1
        STATS.stored += 1
        return True

    # -- read path ---------------------------------------------------------

    def fetch(self, digest: str, touch: bool = True) -> Optional[CachedRun]:
        """The verified entry at ``digest``, or ``None`` (a miss).

        Reads the header line and the result part, and verifies the
        result against the header's hash before delivering it; the
        (much larger) profile part is read and verified by
        :meth:`CachedRun.profile_bytes` when it is used.  A corrupt
        entry is quarantined and counted.  ``touch`` records the access
        for LRU by setting the object file's mtime to now.
        """
        path = self._object_path(digest)
        try:
            fh = path.open("rb")
        except FileNotFoundError:
            self._miss()
            return None
        with fh:
            try:
                header, offset = _read_header(fh)
                recorded = header["parts"]["result"]
                result_bytes = fh.read(recorded["bytes"])
                intact = _part(result_bytes) == recorded
                result_doc = json.loads(result_bytes) if intact else None
            except (OSError, ValueError, KeyError, TypeError):
                intact = False
            if not intact:
                self._quarantine(digest)
                self._miss()
                return None
            if touch:
                now = time.time_ns()
                os.utime(fh.fileno(), ns=(now, now))
        self.stats.hits += 1
        STATS.hits += 1
        return CachedRun(digest=digest, path=path, entry=header,
                         result_doc=result_doc,
                         profile_offset=offset + len(result_bytes))

    def load_result(self, cfg, digest: str):
        """Convenience: fetch + rebuild the cached result, or ``None``."""
        cached = self.fetch(digest)
        return cached.to_result(cfg) if cached is not None else None

    def _miss(self) -> None:
        self.stats.misses += 1
        STATS.misses += 1

    def _quarantine(self, digest: str) -> None:
        self.stats.integrity_failures += 1
        STATS.integrity_failures += 1
        self._remove(digest)

    # -- maintenance -------------------------------------------------------

    def _remove(self, digest: str) -> None:
        """Delete one entry (a reader holding it open keeps its bytes;
        the address vanishes atomically)."""
        self._object_path(digest).unlink(missing_ok=True)

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
        total = sum(m["bytes"] for m in entries.values())

        def over() -> bool:
            if max_entries is not None and len(entries) > max_entries:
                return True
            return max_bytes is not None and total > max_bytes

        for digest in by_age:
            if not over():
                break
            self._remove(digest)
            total -= entries.pop(digest)["bytes"]
            evicted.append(digest)
            self.stats.evicted += 1
            STATS.evicted += 1
        return evicted

    def verify(self) -> List[str]:
        """Integrity-check every part of every entry, and that each
        object file is exactly its header plus both parts long; returns
        a list of problems (empty = clean).  Read-only: nothing is
        quarantined, so operators see the full damage report first."""
        problems: List[str] = []
        for path in sorted((self.root / "objects").glob("*/*")):
            label = path.name[:12]
            try:
                with path.open("rb") as fh:
                    header, _ = _read_header(fh)
                    body = fh.read()
                parts = header["parts"]
                want = parts["result"]["bytes"] + parts["profile"]["bytes"]
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"{label}: unreadable header ({exc})")
                continue
            if len(body) != want:
                problems.append(f"{label}: {len(body)} bytes after the "
                                f"header, {want} expected (truncated?)")
                continue
            split = parts["result"]["bytes"]
            for name, data in (("result", body[:split]),
                               ("profile", body[split:])):
                if _sha256_bytes(data) != parts[name]["sha256"]:
                    problems.append(f"{label}: sha256 mismatch on {name}")
        return problems

    # -- enumeration -------------------------------------------------------

    def _scan_objects(self) -> Dict[str, Dict[str, Any]]:
        """Summary rows for every entry, read from the header lines in
        ``objects/``; an entry's ``last_access`` is its file's mtime."""
        rows: Dict[str, Dict[str, Any]] = {}
        for path in (self.root / "objects").glob("*/*"):
            try:
                with path.open("rb") as fh:
                    stat = os.fstat(fh.fileno())
                    header, _ = _read_header(fh)
            except (OSError, ValueError):
                continue
            cfg = header.get("config", {})
            rows[path.name] = {
                "exp_id": cfg.get("exp_id"),
                "launcher": cfg.get("launcher"),
                "workload": cfg.get("workload"),
                "n_nodes": cfg.get("n_nodes"),
                "n_partitions": cfg.get("n_partitions"),
                "seed": header.get("seed"),
                "created": header.get("created"),
                "last_access": stat.st_mtime,
                "bytes": stat.st_size,
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
        accepts an unambiguous digest prefix.  Anything but 1-64
        lowercase hex characters raises :class:`StoreError`."""
        if not _DIGEST_PREFIX.fullmatch(digest):
            raise StoreError(f"{digest!r} is not a run digest or a "
                             f"prefix of one (1-64 lowercase hex digits)")
        if len(digest) < 64:
            matches = [path.name for path in (self.root / "objects").glob(
                f"{digest[:2]}*/{digest}*")]
            if not matches:
                return None
            if len(matches) > 1:
                raise StoreError(
                    f"digest prefix {digest!r} is ambiguous "
                    f"({len(matches)} matches)")
            digest = matches[0]
        return self.fetch(digest, touch=False)

    def export(self, digest: str, out_dir: PathLike) -> Dict[str, Path]:
        """Write one entry's profile, result document and header
        document (``entry.json``) into ``out_dir``, verified."""
        cached = self.get(digest)
        if cached is None:
            raise StoreError(f"no store entry matches {digest!r}")
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        from ..resilience.atomic import atomic_write_bytes

        documents = {"result.json": cached.result_doc,
                     "entry.json": cached.entry}
        written = {"profile.jsonl": atomic_write_bytes(
            out / "profile.jsonl", cached.profile_bytes())}
        for name, doc in documents.items():
            written[name] = atomic_write_bytes(
                out / name, (json.dumps(doc, sort_keys=True, indent=2)
                             + "\n").encode("utf-8"))
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
