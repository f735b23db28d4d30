"""Package-level tests: public API surface, ids, exceptions."""

import os
import subprocess
import sys

import pytest

import repro
from repro.exceptions import (
    AllocationError,
    ChannelError,
    ConfigurationError,
    DragonError,
    JobspecError,
    LaunchError,
    ReproError,
    ResourceError,
    RuntimeStartupError,
    SchedulingError,
    SimulationError,
    SrunCeilingError,
    StateTransitionError,
    WorkloadError,
)
from repro.ids import IdRegistry, generate_id


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_top_level_exports(self):
        for name in ("Session", "PilotDescription", "PartitionSpec",
                     "TaskDescription", "ResourceSpec", "frontier"):
            assert hasattr(repro, name), name

    def test_all_subpackages_import(self):
        import repro.analytics
        import repro.core
        import repro.dragon
        import repro.experiments
        import repro.flux
        import repro.platform
        import repro.rjms
        import repro.sim
        import repro.workloads

    def test_all_lists_are_importable(self):
        """Every name in each subpackage's __all__ actually exists."""
        import importlib

        for module_name in ("repro", "repro.sim", "repro.platform",
                            "repro.rjms", "repro.flux", "repro.dragon",
                            "repro.core", "repro.workloads",
                            "repro.analytics", "repro.experiments"):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), f"{module_name}.{name}"

    def test_kernel_imports_no_analytics(self):
        """The DES kernel sits below the analytics layer: importing it
        must not load ``repro.analytics`` (or the runtime above it)."""
        code = ("import sys, repro.sim; "
                "print(sorted(m for m in sys.modules "
                "if m.startswith(('repro.analytics', 'repro.core'))))")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, env=env).stdout
        assert out.strip() == "[]"


class TestExceptionHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (SimulationError, ResourceError, AllocationError,
                    SchedulingError, StateTransitionError, JobspecError,
                    LaunchError, SrunCeilingError, RuntimeStartupError,
                    DragonError, ChannelError, ConfigurationError,
                    WorkloadError):
            assert issubclass(exc, ReproError), exc

    def test_specialization_chains(self):
        assert issubclass(AllocationError, ResourceError)
        assert issubclass(SrunCeilingError, LaunchError)
        assert issubclass(ChannelError, DragonError)

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise JobspecError("x")


class TestIds:
    def test_sequential_per_prefix(self):
        reg = IdRegistry()
        assert reg.next("task") == "task.000000"
        assert reg.next("task") == "task.000001"
        assert reg.next("pilot") == "pilot.000000"

    def test_count(self):
        reg = IdRegistry()
        assert reg.count("x") == 0
        reg.next("x")
        reg.next("x")
        assert reg.count("x") == 2

    def test_registries_independent(self):
        a, b = IdRegistry(), IdRegistry()
        a.next("t")
        assert b.next("t") == "t.000000"

    def test_module_level_generator(self):
        first = generate_id("modtest")
        second = generate_id("modtest")
        assert first != second
        assert first.startswith("modtest.")
