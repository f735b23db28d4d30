"""Discrete-event simulation substrate.

This package is a small, from-scratch DES kernel (SimPy-flavoured):
an :class:`~repro.sim.kernel.Environment` with an event queue,
generator-based processes, counted resources, FIFO stores, and
named deterministic RNG streams.  Every runtime-system model in
:mod:`repro` (Slurm, Flux, Dragon, the pilot agent) is written as
processes over this kernel.
"""

from .events import AllOf, AnyOf, Condition, Event, Timeout
from .kernel import Environment
from .process import Interrupt, Process
from .random import RngStreams
from .resources import Request, Resource, Store, StoreGet

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Request",
    "Resource",
    "RngStreams",
    "Store",
    "StoreGet",
    "Timeout",
]
