"""Crash-injection test hook (``REPRO_CRASH_AT``).

Tests and CI jobs need to kill the simulator at a precise,
reproducible point — mid-sweep in a pool worker, at a given sim
time in a plain run — and then assert
that recovery reproduces the uninterrupted trace byte-for-byte.

``REPRO_CRASH_AT`` holds a ``kind:value`` spec:

``sim:<t>``
    die at the first checkpoint tick whose sim time is ``>= t``
    (runs with checkpointing armed);
``events:<n>``
    die at the first checkpoint tick with ``>= n`` trace events;
``pool:<seed>``
    a parallel-rep / ensemble pool worker dies when it picks up the
    unit with that seed.

``REPRO_CRASH_ONCE=<marker-path>`` makes the crash one-shot: the
marker file is created just before dying, and any process that sees
an existing marker skips the crash.  This is what lets a recovered /
resumed run sail past the original crash point.

Death is ``os._exit(137)`` — no cleanup handlers, no atexit, no
flushes — the closest in-process stand-in for SIGKILL, which is
exactly the failure mode the resilience layer must survive.
"""

from __future__ import annotations

import os
from typing import Optional

ENV_CRASH_AT = "REPRO_CRASH_AT"
ENV_CRASH_ONCE = "REPRO_CRASH_ONCE"

#: Exit status of an injected crash (mirrors a SIGKILL'd process).
CRASH_STATUS = 137


def crash_value(kind: str) -> Optional[float]:
    """The threshold configured for ``kind``, or ``None`` if the hook
    is not armed for it."""
    spec = os.environ.get(ENV_CRASH_AT)
    if not spec:
        return None
    want, sep, raw = spec.partition(":")
    if not sep or want != kind:
        return None
    try:
        return float(raw)
    except ValueError:
        return None


def _fire() -> None:
    marker = os.environ.get(ENV_CRASH_ONCE)
    if marker:
        if os.path.exists(marker):
            return  # already crashed once; let the retry live
        try:
            with open(marker, "x", encoding="utf-8") as fh:
                fh.write("crashed\n")
        except FileExistsError:
            return
    os._exit(CRASH_STATUS)


def crash_point(kind: str, value: float) -> None:
    """Die (hard) if the hook is armed for ``kind`` and ``value`` has
    reached the configured threshold.  No-op otherwise."""
    threshold = crash_value(kind)
    if threshold is not None and value >= threshold:
        _fire()
