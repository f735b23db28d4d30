"""The content-addressed on-disk run store.

Layout (everything under one root directory)::

    <root>/
      store.json        format marker + digest-scheme version
      index.json        snapshot: digest -> {summary, last_access, hits,
                        bytes}, plus the journal position it holds
      index.jsonl       journal: a generation header, then one line per
                        put or touch since the last compaction
      index.lock        advisory lock serializing index/eviction updates
      objects/ab/<digest>/
        entry.json      full config doc, cache key, fingerprint,
                        artifact hashes + sizes
        result.json     the run's metrics document (result_to_doc)
        profile.jsonl   byte-exact trace export (save_profile format)
      tmp/              staging dirs (one atomic rename publishes each)
      trash/            eviction staging (renamed out, then deleted)

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
  ``--max-entries``).
* **O(1) index updates.**  A put or touch appends one fsynced
  line to ``index.jsonl`` under the lock; it never parses or rewrites
  the snapshot.  Readers fold the journal into the snapshot.  ``gc``
  compacts the two, and so does any write that finds the journal
  larger than both the snapshot and :data:`COMPACT_FLOOR`, so
  compaction costs O(1) amortized per write and a small store's warm
  hits do not rewrite its index every few touches.  Every record
  starts with a newline, so a torn last line (a crash mid-append) is
  skipped and never swallows the next append.
  The snapshot records the journal generation and byte offset it
  holds and only later bytes are replayed, so a crash between a
  compaction's two writes neither double-counts nor loses a record.
  The index is derived from ``objects/``: a torn or missing snapshot
  is rebuilt by scanning them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import errno
import hashlib
import io
import json
import os
import shutil
import time
import uuid
from pathlib import Path
from typing import (Any, Dict, Iterator, List, Optional, Sequence, Tuple,
                    Union)

from ..exceptions import StoreError
from .keys import KEY_SCHEME, cache_key, run_digest

try:  # pragma: no cover - POSIX (the supported platform) has fcntl
    import fcntl
except ImportError:  # pragma: no cover - win fallback: no inter-proc lock
    fcntl = None

PathLike = Union[str, Path]

STORE_FORMAT = "repro-run-store"
STORE_VERSION = 1

#: Journal size [bytes] below which a write never compacts, however
#: small the snapshot: about 1,500 touch records.
COMPACT_FLOOR = 64 * 1024

#: Artifact names every complete entry carries.
ARTIFACT_RESULT = "result.json"
ARTIFACT_PROFILE = "profile.jsonl"
ENTRY_NAME = "entry.json"
INDEX_NAME = "index.json"
JOURNAL_NAME = "index.jsonl"


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

    # -- paths and locking -------------------------------------------------

    def _object_dir(self, digest: str) -> Path:
        return self.root / "objects" / digest[:2] / digest

    @contextlib.contextmanager
    def _locked(self) -> Iterator[None]:
        """Advisory inter-process lock for index and eviction updates."""
        lock_path = self.root / "index.lock"
        fd = os.open(str(lock_path), os.O_CREAT | os.O_RDWR, 0o644)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            if fcntl is not None:
                with contextlib.suppress(OSError):
                    fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    def _read_index(self) -> Tuple[Dict[str, Dict[str, Any]],
                                   Tuple[int, int]]:
        """The folded index (snapshot + journal) and the journal
        position it reaches: ``(generation, byte length)``.

        The snapshot records the position it already holds; only
        journal bytes past it are replayed, so a crash between a
        compaction's snapshot write and its journal reset neither
        replays a record twice nor loses a later append.  The journal
        is read before the snapshot: a compaction landing in between
        then only makes the snapshot hold more of what was read.
        """
        generation, data = self._read_journal()
        try:
            doc = json.loads((self.root / INDEX_NAME).read_text(
                encoding="utf-8"))
            entries = dict(doc["entries"])
            held = tuple(doc.get("journal", (-1, 0)))
        except (OSError, ValueError, KeyError, TypeError):
            # The index is a derived structure; a torn or missing
            # snapshot is rebuilt from the object directories, never
            # fatal.
            entries, held = self._scan_objects(), (-1, 0)
        if generation is None:
            return entries, (max(held[0], 0), 0)
        start = 0
        if generation == held[0]:
            start = held[1]
        elif generation < held[0]:
            start = len(data)  # already folded into the snapshot
        for line in data[start:].split(b"\n"):
            try:
                record = json.loads(line)
            except ValueError:
                continue  # a torn append
            _apply(entries, record)
        return entries, (generation, len(data))

    def _read_journal(self) -> Tuple[Optional[int], bytes]:
        """The journal's generation and raw bytes (header included)."""
        try:
            data = (self.root / JOURNAL_NAME).read_bytes()
            header = json.loads(data.split(b"\n", 1)[0])
            return int(header["generation"]), data
        except (OSError, ValueError, KeyError, TypeError):
            return None, b""

    def _write_index(self, entries: Dict[str, Dict[str, Any]],
                     position: Tuple[int, int]) -> None:
        from ..resilience.atomic import atomic_write_json

        atomic_write_json(self.root / INDEX_NAME, {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "journal": list(position),
            "entries": entries,
        }, indent=None)

    def _compact(self, entries: Dict[str, Dict[str, Any]],
                 position: Tuple[int, int]) -> None:
        """Fold everything up to ``position`` into a new snapshot and
        start the next journal generation (lock held)."""
        self._write_index(entries, position)
        self._reset_journal(position[0] + 1)

    def _reset_journal(self, generation: int) -> None:
        from ..resilience.atomic import atomic_write_bytes

        atomic_write_bytes(self.root / JOURNAL_NAME, _encode_record(
            {"format": STORE_FORMAT, "generation": generation}))

    def _log(self, record: Dict[str, Any]) -> None:
        """Record one index update: an fsynced journal append (lock held).

        Compacts instead when the journal is missing or has outgrown
        both the snapshot and :data:`COMPACT_FLOOR`, which bounds both
        replay cost and journal size.
        """
        journal = self.root / JOURNAL_NAME
        try:
            due = (journal.stat().st_size
                   > max((self.root / INDEX_NAME).stat().st_size,
                         COMPACT_FLOOR))
        except FileNotFoundError:
            due = True
        if due:
            entries, position = self._read_index()
            _apply(entries, record)
            self._compact(entries, position)
            return
        with journal.open("ab") as fh:
            fh.write(b"\n" + _encode_record(record))
            fh.flush()
            os.fsync(fh.fileno())

    def _scan_objects(self) -> Dict[str, Dict[str, Any]]:
        """Rebuild index entries from the object directories."""
        entries: Dict[str, Dict[str, Any]] = {}
        objects = self.root / "objects"
        if not objects.is_dir():
            return entries
        for entry_path in objects.glob("*/*/" + ENTRY_NAME):
            try:
                entry = json.loads(entry_path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            digest = entry.get("digest")
            if digest:
                entries[digest] = self._index_meta(entry)
        return entries

    @staticmethod
    def _index_meta(entry: Dict[str, Any]) -> Dict[str, Any]:
        cfg = entry.get("config", {})
        total = sum(a.get("bytes", 0)
                    for a in entry.get("artifacts", {}).values())
        return {
            "exp_id": cfg.get("exp_id"),
            "launcher": cfg.get("launcher"),
            "workload": cfg.get("workload"),
            "n_nodes": cfg.get("n_nodes"),
            "n_partitions": cfg.get("n_partitions"),
            "seed": entry.get("seed"),
            "created": entry.get("created"),
            "last_access": entry.get("created"),
            "bytes": total,
            "hits": 0,
        }

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
        record = {"op": "put", "digest": digest,
                  "meta": self._index_meta(entry)}
        with self._locked():
            self._log(record)
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
        ``touch`` records the access for LRU and hit counts; a caller
        fetching many entries at once passes ``False`` and records
        them all with one :meth:`touch`.
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
            self.touch([digest])
        self.stats.hits += 1
        STATS.hits += 1
        return CachedRun(digest=digest, path=path, entry=entry,
                         result_doc=result_doc)

    def touch(self, digests: Sequence[str]) -> None:
        """Record one access to each of ``digests`` (bumps its LRU
        clock and hit count) with a single journal line."""
        if not digests:
            return
        with self._locked():
            self._log({"op": "touch", "at": time.time(),
                       "digests": list(digests)})

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

    def _enforce_caps(self, entries: Dict[str, Dict[str, Any]],
                      max_bytes: Optional[int],
                      max_entries: Optional[int]) -> List[str]:
        """Evict LRU entries until within the caps; returns evictees.

        Called with the index lock held.
        """
        evicted: List[str] = []
        by_age = sorted(
            entries,
            key=lambda d: entries[d].get("last_access")
            or entries[d].get("created") or 0.0)
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

    def gc(self, max_bytes: Optional[int] = None,
           max_entries: Optional[int] = None) -> List[str]:
        """Evict least-recently-used entries down to the given caps;
        also reconciles the index with the object directories and
        compacts the journal into the snapshot."""
        with self._locked():
            entries = self._scan_objects()
            index, position = self._read_index()
            for digest, meta in index.items():
                if digest in entries:
                    entries[digest]["last_access"] = meta.get("last_access")
                    entries[digest]["hits"] = meta.get("hits", 0)
            evicted = self._enforce_caps(entries, max_bytes, max_entries)
            self._compact(entries, position)
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

    def entries(self) -> List[Dict[str, Any]]:
        """Index rows (summary metadata) for every stored run, newest
        first."""
        index, _ = self._read_index()
        missing = [d for d in index if not self._object_dir(d).exists()]
        for digest in missing:
            index.pop(digest)
        rows = [dict(meta, digest=digest)
                for digest, meta in index.items()]
        rows.sort(key=lambda m: m.get("created") or 0.0, reverse=True)
        return rows

    def get(self, digest: str) -> Optional[CachedRun]:
        """Like :meth:`fetch` but without bumping the LRU clock; also
        accepts an unambiguous digest prefix."""
        if len(digest) < 64:
            matches = [row["digest"] for row in self.entries()
                       if row["digest"].startswith(digest)]
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


def _encode_record(record: Dict[str, Any]) -> bytes:
    return json.dumps(record, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _apply(entries: Dict[str, Dict[str, Any]], record: Any) -> None:
    """Fold one journal record into ``entries`` (in place)."""
    op = record.get("op") if isinstance(record, dict) else None
    if op == "put":
        entries[record["digest"]] = record["meta"]
    elif op == "touch":
        for digest in record["digests"]:
            meta = entries.get(digest)
            if meta is not None:
                meta["last_access"] = record["at"]
                meta["hits"] = int(meta.get("hits", 0)) + 1
    elif op == "evict":   # written by stores that evicted on put
        for digest in record["digests"]:
            entries.pop(digest, None)


def export_profile_bytes(profiler) -> bytes:
    """A live profiler's ``save_profile`` export as bytes, for
    :meth:`RunStore.put`: encoded in memory by the same writer
    (:func:`repro.analytics.export.write_profile`), so spilled-chunk
    concatenation stays verbatim."""
    from ..analytics.export import write_profile

    buf = io.StringIO()
    write_profile(buf, profiler)
    return buf.getvalue().encode("utf-8")
