"""Fixtures shared by the test modules."""

import importlib.util
import os
import sys

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


@pytest.fixture
def pair_calls(monkeypatch):
    """Calls of the band transform pair, `spectral.band_synthesis` and
    `spectral.band_analysis`, counted by name in every loaded fkdvlab module
    that binds them."""
    from fkdvlab import spectral
    counts = {"band_synthesis": 0, "band_analysis": 0}
    for name in counts:
        func = getattr(spectral, name)

        def counted(*args, _name=name, _func=func, **kwargs):
            counts[_name] += 1
            return _func(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("fkdvlab") and getattr(module, name, None) is func:
                monkeypatch.setattr(module, name, counted)
    return counts
