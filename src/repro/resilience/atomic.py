"""Atomic file writes: a crash never leaves a torn artifact.

Every durable artifact the simulator emits — profiles, bundle files,
store entries, checkpoints — goes through one of these
helpers.  The recipe is the classic one:

1. write the full content to a temporary file *in the target
   directory* (same filesystem, so the final rename cannot cross a
   device boundary),
2. flush and ``fsync`` the temporary file so the bytes are on disk,
   not just in the page cache,
3. ``os.replace`` it over the destination — atomic on POSIX and on
   modern Windows.

A reader therefore sees either the complete previous version or the
complete new version, never a prefix; a SIGKILL between any two steps
leaves at worst a stray ``*.tmp`` file next to the target.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Iterator, TextIO, Union

PathLike = Union[str, Path]


@contextlib.contextmanager
def atomic_writer(path: PathLike, mode: str = "w",
                  encoding: str = "utf-8") -> Iterator[TextIO]:
    """Context manager yielding a file handle whose contents replace
    ``path`` atomically on clean exit.

    On an exception inside the block the temporary file is removed and
    the destination is left untouched.  ``mode`` must be a write mode
    (``"w"`` or ``"wb"``).
    """
    if mode not in ("w", "wb"):
        raise ValueError(f"atomic_writer requires 'w' or 'wb', got {mode!r}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp")
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, mode,
                       encoding=(None if "b" in mode else encoding)) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def atomic_write_bytes(path: PathLike, data: bytes) -> Path:
    """Atomically replace ``path`` with ``data``."""
    path = Path(path)
    with atomic_writer(path, "wb") as fh:
        fh.write(data)
    return path


def atomic_write_text(path: PathLike, text: str,
                      encoding: str = "utf-8") -> Path:
    """Atomically replace ``path`` with ``text``."""
    return atomic_write_bytes(path, text.encode(encoding))


def atomic_write_json(path: PathLike, doc: Any, *,
                      indent: int = 2, sort_keys: bool = True) -> Path:
    """Atomically replace ``path`` with ``doc`` serialized as JSON."""
    text = json.dumps(doc, indent=indent, sort_keys=sort_keys) + "\n"
    return atomic_write_text(path, text)
