"""Spans around calls into the public functions of each fkdvlab module.

The program itself carries no tracing.  `Tracer.install` replaces each
traced function by a wrapper in every loaded fkdvlab module that holds it,
so `integrator.inverse_transform`, `experiments.norm_linf` and the calls
that `spectral` makes to its own functions are all caught.  Spans are kept
in memory as (name, start, end, parent, call id) and written out when the
run ends.  Self time is a span's duration minus the time of its direct
child spans.

`diagnostics` is not traced: a scattering study spends 0.3 % of its time
there, so no change to it could move an end-to-end number.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

LEMMA_CHECKS = ("check_dispersive_estimate", "check_interpolation_inequality",
                "check_phase_expansion", "check_trilinear_identity",
                "check_pseudo_product", "check_oscillatory_gaussian")

#: (module, function) pairs whose calls become spans named module.function.
TRACED = (
    ("spectral", "transform"),
    ("spectral", "inverse_transform"),
    ("spectral", "dealias"),
    ("spectral", "hermitize"),
    ("spectral", "hermitian_defect"),
    ("spectral", "norm_linf"),
    ("equations", "nonlinearity"),
    ("integrator", "step_ifrk4"),
    ("integrator", "cfl_dt"),
    ("experiments", "run_study"),
    ("io", "write_series_columns"),
    ("io", "write_spectrum"),
    ("io", "write_report"),
    ("io", "write_manifest"),
    ("config", "parse_config"),
    ("cli", "cli_dispatch"),
    ("cli", "run_lemma_checks"),
) + tuple(("lemma_checks", name) for name in LEMMA_CHECKS)

TRANSFORMS = ("spectral.transform", "spectral.inverse_transform")
STEP_SPANS = ("integrator.step_ifrk4", "integrator.cfl_dt")


class Tracer:
    """Records spans for the traced functions between install and remove."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, call id]
        self.segments = 0               # solver segments planned by run_simulation
        self.call_id = 0
        self._stack = [-1]
        self._rebound: list[tuple] = []

    def _wrap(self, name: str, func, adapt=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if adapt is not None:
                args, kwargs = adapt(args, kwargs)
            span = [name, 0.0, 0.0, stack[-1], self.call_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def _adapt_run_simulation(self, signature):
        """Count the segments each run will plan, and wrap the study's
        observer closure in an `experiments.observer` span."""
        def adapt(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            config = bound.arguments["config"]
            events = set(config.snapshot_times) | {config.t_end}
            self.segments += sum(1 for t in events if t > 1e-14)
            if bound.arguments.get("observer") is not None:
                bound.arguments["observer"] = self._wrap(
                    "experiments.observer", bound.arguments["observer"])
            return bound.args, bound.kwargs
        return adapt

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "fkdvlab" or name.startswith("fkdvlab.")}
        targets = [(f"{m}.{f}", getattr(modules[f"fkdvlab.{m}"], f), None)
                   for m, f in TRACED]
        run_simulation = modules["fkdvlab.integrator"].run_simulation
        targets.append(("integrator.run_simulation", run_simulation,
                        self._adapt_run_simulation(inspect.signature(run_simulation))))
        for name, func, adapt in targets:
            traced = self._wrap(name, func, adapt)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is func:
                        setattr(mod, attr, traced)
                        self._rebound.append((mod, attr, func))

    def remove(self) -> None:
        for mod, attr, func in reversed(self._rebound):
            setattr(mod, attr, func)
        self._rebound.clear()

    def write(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart\tend\tparent\tcall\n")
            for name, start, end, parent, call in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{call}\n")

    def summary(self) -> dict:
        """Calls, self seconds and transforms under the step kernel."""
        child = [0.0] * len(self.spans)
        under_step = [False] * len(self.spans)
        calls: dict = defaultdict(int)
        self_s: dict = defaultdict(float)
        step_transforms = 0
        # a parent is appended before its children, so one forward pass sees
        # every parent's flag before its children need it
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            under_step[i] = name in STEP_SPANS or (parent >= 0 and under_step[parent])
            if parent >= 0:
                child[parent] += end - start
                if name in TRANSFORMS and under_step[parent]:
                    step_transforms += 1
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
        return {"calls": dict(calls), "self_s": dict(self_s),
                "step_transforms": step_transforms, "segments": self.segments}


def peak_alloc_mb(func, *args, **kwargs) -> float:
    """Peak traced allocation of one call, in MiB (numpy buffers included)."""
    tracemalloc.start()
    try:
        func(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
