"""Fixtures shared by the test modules."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="session")
def tracing():
    """`perfbench/tracing.py`, loaded by its path as the benchmark runner
    uses it, and left unchanged.  Its tracer looks up loaded modules only,
    so every module it traces is imported first."""
    import fkdvlab.cli  # noqa: F401
    import fkdvlab.config  # noqa: F401
    import fkdvlab.lemma_checks  # noqa: F401
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
