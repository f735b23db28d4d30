"""Crash-injection test hook (``REPRO_CRASH_AT``).

Tests and CI jobs need to kill a pool worker mid-sweep at a precise,
reproducible point and then assert that recovery reproduces the
uninterrupted results byte-for-byte.

``REPRO_CRASH_AT=pool:<seed>`` makes a parallel-rep / ensemble pool
worker die when it picks up a unit with that seed (or a later one).

``REPRO_CRASH_ONCE=<marker-path>`` makes the crash one-shot: the
marker file is created just before dying, and any process that sees
an existing marker skips the crash.  This is what lets a resubmitted
unit or a restarted sweep sail past the original crash point.

Death is ``os._exit(137)`` — no cleanup handlers, no atexit, no
flushes — the closest in-process stand-in for SIGKILL, which is
exactly the failure mode the resilience layer must survive.
"""

from __future__ import annotations

import os

ENV_CRASH_AT = "REPRO_CRASH_AT"
ENV_CRASH_ONCE = "REPRO_CRASH_ONCE"

#: Exit status of an injected crash (mirrors a SIGKILL'd process).
CRASH_STATUS = 137


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


def crash_point(seed: int) -> None:
    """Die (hard) if the hook is armed as ``pool:<s>`` and ``seed``
    has reached ``s``.  No-op otherwise."""
    kind, sep, raw = os.environ.get(ENV_CRASH_AT, "").partition(":")
    if not sep or kind != "pool":
        return
    try:
        threshold = float(raw)
    except ValueError:
        return
    if seed >= threshold:
        _fire()
