"""Run manifests and observability bundles.

A *bundle* is the machine-readable record of what a run **was** —
enough to re-run it and to analyse it offline without the process
that produced it:

.. code-block:: text

    <bundle>/
      manifest.json   config, seed, platform, package versions, results
      spans.json      nested span tree (sim-time)
      trace.json      Perfetto / chrome://tracing export of the spans
      profile.jsonl   raw trace events (loadable via analytics.load_events)
      telemetry.jsonl live progress records (when the run streamed any)

``manifest.json`` is the index: every other file is listed under
``"files"`` so consumers can discover what a (possibly partial)
bundle contains.
"""

from __future__ import annotations

import dataclasses
import json
import platform as _platform
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, Union

#: Bundle format version, bumped on layout changes.
BUNDLE_VERSION = 2

MANIFEST_NAME = "manifest.json"

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.session import Session
    from ..experiments.configs import ExperimentConfig
    from .spans import Span

PathLike = Union[str, Path]


def _git_revision(start: Optional[Path] = None) -> Optional[str]:
    """Best-effort code revision from ``.git`` (no subprocess).

    Walks up from this file to the repository root and resolves HEAD
    one level of indirection deep; returns ``None`` outside a
    checkout (e.g. an installed wheel).
    """
    here = start if start is not None else Path(__file__).resolve()
    for parent in [here, *here.parents]:
        git = parent / ".git"
        if not git.is_dir():
            continue
        try:
            head = (git / "HEAD").read_text(encoding="utf-8").strip()
            if head.startswith("ref: "):
                ref = git / head[5:]
                if ref.exists():
                    return ref.read_text(encoding="utf-8").strip()
                packed = git / "packed-refs"
                if packed.exists():
                    for line in packed.read_text(
                            encoding="utf-8").splitlines():
                        if line.endswith(head[5:]):
                            return line.split(" ", 1)[0]
                return None
            return head
        except OSError:  # pragma: no cover - unreadable .git
            return None
    return None


def package_versions() -> Dict[str, str]:
    """Versions of everything that can change the numbers."""
    from .. import __version__

    versions = {
        "repro": __version__,
        "python": _platform.python_version(),
    }
    try:
        import numpy

        versions["numpy"] = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dep
        pass
    rev = _git_revision()
    if rev:
        versions["git"] = rev
    return versions


def build_manifest(config: Optional["ExperimentConfig"] = None,
                   session: Optional["Session"] = None,
                   result: Optional[Any] = None,
                   extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Assemble the manifest dict for one run.

    Everything is optional so partial bundles (e.g. a trace exported
    from a bare profile file) still get a valid manifest.
    """
    manifest: Dict[str, Any] = {
        "bundle_version": BUNDLE_VERSION,
        "kind": "repro-run",
        "versions": package_versions(),
        "host": {
            "platform": _platform.platform(),
            "machine": _platform.machine(),
            "python_executable": sys.executable,
        },
    }
    if config is not None:
        cfg = dataclasses.asdict(config)
        manifest["config"] = cfg
        manifest["seed"] = cfg.get("seed")
    if session is not None:
        cluster = session.cluster
        manifest["cluster"] = {
            "n_nodes": cluster.n_nodes,
            "cores_per_node": cluster.cores_per_node,
            "gpus_per_node": cluster.gpus_per_node,
        }
        manifest["session_uid"] = session.uid
        manifest["sim_end_time"] = session.now
        manifest["trace_events"] = len(session.profiler)
    if result is not None:
        manifest["result"] = {
            "n_tasks": result.n_tasks,
            "n_done": result.n_done,
            "n_failed": result.n_failed,
            "throughput_avg": result.throughput.avg,
            "throughput_peak": result.throughput.peak,
            "utilization_cores": result.utilization_cores,
            "utilization_gpus": result.utilization_gpus,
            "makespan": result.makespan,
            "wall_seconds": result.wall_seconds,
        }
        # Run-store provenance — recorded only when a store was in
        # play, so store-off manifests stay byte-identical to runs
        # predating the cache entirely.
        provenance = getattr(result, "provenance", "fresh")
        cache = getattr(result, "cache", None)
        if cache is not None or provenance != "fresh":
            manifest["result"]["provenance"] = provenance
            if cache is not None:
                manifest["result"]["cache"] = dict(cache)
        # The fault report, only on faulty runs: faultless manifests
        # carry no key for it.
        faults = getattr(result, "faults", None)
        if faults is not None:
            manifest["result"]["faults"] = dataclasses.asdict(faults)
    if extra:
        manifest.update(extra)
    return manifest


def write_bundle(directory: PathLike,
                 manifest: Dict[str, Any],
                 spans: Optional["Span"] = None,
                 profiler=None,
                 telemetry=None,
                 extra_files: Optional[Dict[str, PathLike]] = None
                 ) -> Dict[str, Path]:
    """Write a bundle; returns ``{artifact name: path}``.

    Only the artifacts whose source was passed are written — the
    manifest always; spans/trace/profile/telemetry when
    available — and the manifest's ``files`` section lists exactly
    what landed.  ``telemetry`` is a sequence of live progress records
    (see :mod:`repro.observability.telemetry`).  ``extra_files`` names
    artifacts already sitting inside the bundle directory (e.g. an
    ensemble's per-seed profiles) so the manifest indexes them too.
    """
    from ..analytics.export import save_profile
    from ..resilience.atomic import atomic_write_text
    from .export import write_chrome_trace, write_telemetry

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: Dict[str, Path] = {}

    if spans is not None:
        spans_path = directory / "spans.json"
        atomic_write_text(
            spans_path,
            json.dumps(spans.to_dict(), sort_keys=True) + "\n")
        written["spans"] = spans_path
        written["trace"] = write_chrome_trace(
            spans, directory / "trace.json")
    if profiler is not None:
        profile_path = directory / "profile.jsonl"
        save_profile(profiler, profile_path)
        written["profile"] = profile_path
    if telemetry:
        written["telemetry"] = write_telemetry(
            telemetry, directory / "telemetry.jsonl")
    for name, path in (extra_files or {}).items():
        written[name] = Path(path)

    manifest = dict(manifest)
    manifest["files"] = {name: path.name for name, path in written.items()}
    manifest_path = directory / MANIFEST_NAME
    atomic_write_text(
        manifest_path,
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    written["manifest"] = manifest_path
    return written


def read_manifest(directory: PathLike) -> Dict[str, Any]:
    """Load and sanity-check a bundle's manifest."""
    path = Path(directory) / MANIFEST_NAME
    manifest = json.loads(path.read_text(encoding="utf-8"))
    if manifest.get("kind") != "repro-run":
        raise ValueError(f"{path}: not a repro run manifest")
    return manifest
