"""Deterministic, named random-number streams.

Every stochastic component (Flux RPC jitter, Dragon spawn latency,
Slurm controller service time, ...) draws from its *own* named
substream derived from a single experiment seed via
:class:`numpy.random.SeedSequence`.  Adding a new component therefore
never perturbs the draws seen by existing components, which keeps
experiment results comparable across code revisions.
"""

from __future__ import annotations

import math
import zlib
from typing import Dict, List

import numpy as np


class RngStreams:
    """A family of independent, reproducible RNG streams.

    Parameters
    ----------
    seed:
        Root seed for the whole experiment.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        # (name, mean, cv) -> (mu, sigma) for lognormal_latency.
        # Experiments use a handful of distinct latency parameters but
        # draw from them hundreds of thousands of times; caching skips
        # two log() and a sqrt() per draw without changing any value.
        self._lognorm_params: Dict[tuple, tuple] = {}
        # name -> prefetched standard normals (reversed; pop from the
        # end).  A lognormal draw is exp(mu + sigma*z) with z one
        # standard normal from the stream, so batching the z draws
        # yields bitwise-identical values to one-at-a-time generation
        # while amortizing the numpy call overhead — even when draws
        # with different (mean, cv) interleave on the same stream.
        self._norm_buf: Dict[str, List[float]] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the stream for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            # Stable mapping from the stream name to spawn keys: crc32 is
            # deterministic across processes and Python versions (unlike
            # the builtin hash()).
            key = zlib.crc32(name.encode("utf-8"))
            seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(key,))
            gen = np.random.default_rng(seq)
            self._streams[name] = gen
        return gen

    def lognormal_latency(
        self, name: str, mean: float, cv: float = 0.25
    ) -> float:
        """One lognormal latency draw with the given mean and coefficient
        of variation — the canonical service-time noise model used by all
        substrate components.
        """
        if mean <= 0.0:
            return 0.0
        entry = self._lognorm_params.get((name, mean, cv))
        if entry is None:
            sigma2 = np.log(1.0 + cv * cv)
            entry = (np.log(mean) - 0.5 * sigma2, np.sqrt(sigma2))
            self._lognorm_params[(name, mean, cv)] = entry
        mu, sigma = entry
        buf = self._norm_buf.get(name)
        if not buf:
            buf = self.stream(name).standard_normal(512)[::-1].tolist()
            self._norm_buf[name] = buf
        return math.exp(mu + sigma * buf.pop())

    def lognormal_latency_batch(
        self, name: str, mean: float, cv: float = 0.25, n: int = 1
    ) -> List[float]:
        """``n`` lognormal latency draws, bitwise-identical to ``n``
        sequential :meth:`lognormal_latency` calls.

        Consumes the same per-stream prefetch buffer in the same order
        (including ``math.exp`` for the transform, so not even the last
        ulp differs), which is what lets the vectorized ensemble engines
        draw a whole run's latencies at once while staying
        byte-compatible with the scalar simulator's traces.
        """
        if n <= 0:
            return []
        if mean <= 0.0:
            return [0.0] * n
        entry = self._lognorm_params.get((name, mean, cv))
        if entry is None:
            sigma2 = np.log(1.0 + cv * cv)
            entry = (np.log(mean) - 0.5 * sigma2, np.sqrt(sigma2))
            self._lognorm_params[(name, mean, cv)] = entry
        mu, sigma = entry
        exp = math.exp
        out: List[float] = []
        buf = self._norm_buf.get(name)
        while len(out) < n:
            if not buf:
                buf = self.stream(name).standard_normal(512)[::-1].tolist()
                self._norm_buf[name] = buf
            take = min(n - len(out), len(buf))
            # Slice from the end and reverse: the exact values (and
            # order) that ``take`` individual pops would have returned.
            chunk = buf[-take:]
            del buf[-take:]
            out.extend(exp(mu + sigma * z) for z in reversed(chunk))
        return out

    def uniform(self, name: str, low: float, high: float) -> float:
        """One uniform draw from ``[low, high)``."""
        return float(self.stream(name).uniform(low, high))

    def exponential(self, name: str, mean: float) -> float:
        """One exponential draw with the given mean."""
        if mean <= 0.0:
            return 0.0
        return float(self.stream(name).exponential(mean))

    def weibull(self, name: str, mean: float, shape: float = 1.5) -> float:
        """One Weibull draw parameterized by its *mean* (the scale is
        derived as ``mean / gamma(1 + 1/shape)``), matching how MTBF
        figures are quoted in failure studies."""
        if mean <= 0.0:
            return 0.0
        scale = mean / math.gamma(1.0 + 1.0 / shape)
        return float(scale * self.stream(name).weibull(shape))


class StreamCursor:
    """Lazy forward cursor over one stream's lognormal draw sequence.

    Some consumers need "the next draw" an *unbounded* number of times
    — the flux scheduler's cycle gaps, whose count depends on the very
    timeline the draws produce.  Pre-drawing a fixed batch would either
    waste draws or (worse) under-shoot and shift the stream.  The
    cursor extends in ``chunk``-sized batches instead; because
    :meth:`RngStreams.lognormal_latency_batch` is bitwise-identical to
    sequential draws regardless of how they are chunked, the sequence
    this cursor yields is independent of ``chunk`` and identical to
    what a simulation loop calling :meth:`lognormal_latency` once per
    cycle would have consumed.
    """

    __slots__ = ("_rng", "_name", "_mean", "_cv", "_chunk", "_buf", "_pos",
                 "n_drawn")

    def __init__(self, rng: "RngStreams", name: str, mean: float,
                 cv: float = 0.25, chunk: int = 256) -> None:
        self._rng = rng
        self._name = name
        self._mean = mean
        self._cv = cv
        self._chunk = max(1, chunk)
        self._buf: List[float] = []
        self._pos = 0
        #: Total draws consumed — the cycle count, for diagnostics.
        self.n_drawn = 0

    def next(self) -> float:
        """The next draw from the stream (extends lazily)."""
        if self._pos >= len(self._buf):
            self._buf = self._rng.lognormal_latency_batch(
                self._name, self._mean, cv=self._cv, n=self._chunk)
            self._pos = 0
        value = self._buf[self._pos]
        self._pos += 1
        self.n_drawn += 1
        return value
