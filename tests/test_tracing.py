"""The benchmark's tracer against the program: every name it traces
resolves, and a traced study shows the step kernel's exact call counts
(the band transform pair's counted by the `pair_calls` fixture).

The `tracing` fixture (conftest.py) is `perfbench/tracing.py`, loaded by
its path as the benchmark runner uses it.
"""

import importlib
import inspect

from fkdvlab import integrator
from fkdvlab.experiments import default_config, run_study


def test_every_traced_name_resolves(tracing):
    for module, name in tracing.TRACED:
        assert callable(getattr(importlib.import_module(f"fkdvlab.{module}"), name)), \
            f"{module}.{name}"
    assert {"config", "observer"} <= set(inspect.signature(integrator.run_simulation).parameters)


def test_traced_decay_study_counts(tracing, pair_calls, tmp_path):
    cfg = default_config("decay", n_points=256, t_end=2.0, sample_dt=0.25,
                         fit_t_min=0.5, fit_t_max=2.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_study(cfg, str(tmp_path))
    finally:
        tracer.remove()
    summary = tracer.summary()
    calls = summary["calls"]
    steps = calls["integrator.step_ifrk4"]
    assert steps > 0
    assert calls["equations.nonlinearity"] == 4 * steps
    assert calls["integrator.cfl_dt"] == steps + summary["segments"]
    # the step's transforms are the band pair, which the tracer does not
    # name: no natural-order transform runs under the step, and each
    # nonlinearity evaluation is one band synthesis and one band analysis
    assert summary["step_transforms"] == 0
    assert pair_calls == {"band_synthesis": 4 * steps, "band_analysis": 4 * steps}
