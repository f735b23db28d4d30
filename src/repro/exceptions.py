"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by the library derive from :class:`ReproError`
so callers can catch library failures with a single ``except`` clause
while still distinguishing substrate-specific failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class SimulationError(ReproError):
    """Raised for misuse of the discrete-event simulation kernel."""


class ResourceError(ReproError):
    """Raised when a resource request cannot be satisfied or is invalid."""


class AllocationError(ResourceError):
    """Raised when an allocation request exceeds the cluster capacity."""


class SchedulingError(ReproError):
    """Raised when a scheduler receives an unsatisfiable or malformed task."""


class StateTransitionError(ReproError):
    """Raised on an illegal pilot/task state-machine transition."""


class JobspecError(ReproError):
    """Raised when a Flux jobspec fails validation."""


class LaunchError(ReproError):
    """Raised when a launcher fails to start a task."""


class SrunCeilingError(LaunchError):
    """Raised when the platform srun concurrency ceiling rejects a launch."""


class BackendError(LaunchError):
    """Raised when an execution backend (Flux instance, Dragon pool,
    srun partition) fails as a whole rather than for one task."""


class NodeFailureError(ResourceError):
    """Raised when a compute node fails under a running task or an
    operation touches a node that is DOWN."""


class RuntimeStartupError(ReproError):
    """Raised when a third-party runtime (Flux/Dragon) fails to bootstrap."""


class DragonError(ReproError):
    """Raised for failures inside the Dragon-like runtime."""


class ChannelError(DragonError):
    """Raised for misuse of shared-memory channels."""


class ConfigurationError(ReproError):
    """Raised for invalid experiment or component configuration."""


class WorkloadError(ReproError):
    """Raised when a workload description is malformed."""


class StoreError(ReproError):
    """Raised for unusable run-store state: a root that is not a
    store, a digest-scheme mismatch, an ambiguous digest prefix, or a
    blob whose content no longer matches its recorded hash."""


class HostFailureError(SimulationError):
    """Raised when a *host-side* pool worker process is lost and its
    work cannot be salvaged.  Distinct from
    :class:`NodeFailureError`, which models failures of the *simulated*
    machine."""
