"""Canonical run identity: what makes two runs *the same run*.

A run digest is a sha256 over a canonical document of these
components:

``config``
    The canonical cache key of the :class:`ExperimentConfig` —
    every behavior-affecting field, serialized with sorted keys at
    every nesting level (dict insertion order must never leak into
    the digest), defaults filled by ``dataclasses.asdict``.  Excluded
    are the *labels* (``exp_id``, ``tags``) and the ``seed`` (keyed
    separately; see :data:`CACHE_KEY_EXCLUDED`).

``seed``
    Kept out of the config key so sweeps get per-seed granularity: a
    64-seed ensemble with 60 seeds already stored simulates only the
    missing 4.

``workload``
    Always the literal ``"derived"``: every run's task set comes from
    :func:`~repro.experiments.harness.build_workload` (or the
    campaign runner), a pure function of the config that adds no
    information.  The field stays in the document so digests keyed
    under :data:`KEY_SCHEME` 1 remain valid.

``code``
    A fingerprint of every ``.py`` source file in the installed
    ``repro`` package — any source change, anywhere, invalidates
    every cached run.  Coarse on purpose: a stale hit is a
    correctness bug, a spurious miss is one re-simulation.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Optional

#: Version of the digest scheme itself; bump on any change to the
#: normalization or fingerprint rules so old stores go stale instead
#: of serving entries keyed under different semantics.
KEY_SCHEME = 1

#: Config fields excluded from the cache key.  ``exp_id`` and
#: ``tags`` are labels (no effect on the simulation); ``seed`` is a
#: separate digest component.  Any other field changes the simulated
#: run, so excluding it would let a run be served another run's
#: result.
CACHE_KEY_EXCLUDED = ("exp_id", "tags", "seed")


def normalize_config(cfg) -> Dict[str, Any]:
    """The behavior-defining document of a config.

    ``dataclasses.asdict`` fills every default and recurses into
    nested dataclasses (fault specs, retry policies); the excluded
    label/execution fields are dropped.  The result is
    JSON-serializable and — once dumped with ``sort_keys=True`` —
    independent of dict insertion order at every level.
    """
    doc = dataclasses.asdict(cfg)
    for name in CACHE_KEY_EXCLUDED:
        doc.pop(name, None)
    return doc


def canonical_json(doc: Any) -> str:
    """Deterministic JSON: sorted keys, compact separators, ``repr``
    fallback for non-JSON leaves (enums, paths)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      default=repr)


def cache_key(cfg) -> str:
    """sha256 of the normalized config document (seed excluded)."""
    payload = canonical_json(normalize_config(cfg))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# -- code-version fingerprint ------------------------------------------------

_FINGERPRINT_CACHE: Dict[str, str] = {}


@functools.lru_cache(maxsize=None)
def _package_root() -> Path:
    """The installed ``repro`` package directory, resolved once: a
    memoized fingerprint then costs no file-system call."""
    import repro

    return Path(repro.__file__).resolve().parent


def code_fingerprint(root: Optional[Path] = None,
                     refresh: bool = False) -> str:
    """Fingerprint of the ``repro`` package's source tree.

    sha256 over the sorted ``(relative path, content sha256)`` pairs
    of every ``.py`` file under the package directory.  Memoized per
    process (source files do not change under a running simulation);
    ``refresh`` forces a re-scan, which the tests use to observe
    invalidation without restarting the interpreter.
    """
    root = _package_root() if root is None else Path(root)
    key = str(root)
    if not refresh and key in _FINGERPRINT_CACHE:
        return _FINGERPRINT_CACHE[key]
    hasher = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        try:
            content = path.read_bytes()
        except OSError:  # pragma: no cover - racing file removal
            continue
        digest = hashlib.sha256(content).hexdigest()
        hasher.update(f"{rel}:{digest}\n".encode("utf-8"))
    fingerprint = hasher.hexdigest()
    _FINGERPRINT_CACHE[key] = fingerprint
    return fingerprint


def run_digest(cfg, seed: Optional[int] = None,
               fingerprint: Optional[str] = None,
               key: Optional[str] = None) -> str:
    """The content address of one run.

    ``seed`` defaults to ``cfg.seed``; ``fingerprint`` overrides the
    code fingerprint (tests).  ``key`` is ``cache_key(cfg)`` when the
    caller already holds it: a sweep digests many seeds of one config.
    """
    if seed is None:
        seed = cfg.seed
    payload = canonical_json({
        "scheme": KEY_SCHEME,
        "config": cache_key(cfg) if key is None else key,
        "seed": int(seed),
        "workload": "derived",
        "code": fingerprint if fingerprint is not None
        else code_fingerprint(),
    })
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
