"""The reproducible studies tying simulations to the quantitative claims.

Five studies: sup-norm decay, modified scattering, long-wave comparison,
dispersionless shock formation (with a characteristics oracle), and
Sobolev/weighted norm growth.  Each study is a body run inside one
skeleton, ``study_skeleton``: it consumes one ExperimentConfig, runs
deterministically, writes its series and manifest through the io layer,
and returns an ExperimentReport whose verdicts cite the emitted series
files.  A study body keeps only its snapshot schedule, its observer and
its verdicts.

Default data shapes were chosen so each phenomenon sits inside its
asymptotic window at desk scale: a narrow gaussian for sup-norm decay
(early dispersal of the gradient-carrying frequencies), a wide gaussian
with spectrum concentrated in |xi| <= 1/2 for the scattering study (the
weighted sup-distance must be governed by the phase-corrected core, not
the cascade frontier), and a wide low-frequency bump for the long-wave
comparison (sub-leading dispersive corrections stay small).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from . import io as lab_io
from .diagnostics import (
    DecaySeries,
    PhaseAccumulator,
    ScatteringSeries,
    accumulate_phase,
    compute_profile,
    corrected_profile,
    difference_rate,
    extract_scattering_limit,
    fit_power_law,
)
from .equations import EQUATION_KINDS, EquationSpec, make_equation
from .errors import ConfigurationError
from .integrator import HaltReason, SolverConfig, geometric_snapshots, run_simulation
from .spectral import (
    BOUNDARY_MASS_THRESHOLD,
    Grid,
    SpectralField,
    apply_multiplier,
    boundary_mass_fraction,
    derivative_symbol,
    half_inverse_transform,
    half_spectrum,
    half_table,
    hermitize,
    inverse_transform,
    make_grid,
    norm_h11,
    norm_sobolev,
    norm_z,
    regrid,
    transform,
)

STUDIES = ("decay", "scattering", "longwave", "shock", "norms")
INITIAL_KINDS = ("gaussian", "sech2", "sine", "custom")


@dataclass
class ExperimentConfig:
    """Resolved configuration of one study run (defaults per study)."""

    study: str = "decay"
    # equation
    equation: str = "modified_fkdv"
    alpha: float | None = -0.5
    epsilon: float | None = None
    # initial data
    initial_kind: str = "gaussian"           # one of INITIAL_KINDS
    amplitude: float = 0.1
    width: float = 1.0
    center: float | None = None              # None -> box center
    sine_mode: int = 1
    custom_samples: np.ndarray | None = None
    # grid / solver
    n_points: int = 2 ** 13
    box_length: float = 256.0 * np.pi
    dt_max: float = 0.1
    cfl_coefficient: float = 0.5
    t_end: float = 100.0
    seed: int = 0
    # decay / norms studies
    sample_dt: float = 1.0
    fit_t_min: float = 5.0
    fit_t_max: float = 100.0
    # long-wave study
    eps_list: tuple = (0.1, 0.05)
    j_list: tuple = (0, 1)
    t_eval: float = 5.0
    # shock study
    blowup_factor: float = 50.0
    detect_dt: float = 0.01
    refine_start: int = 2 ** 9
    refine_max: int = 2 ** 13

    def grid(self) -> Grid:
        return make_grid(self.n_points, self.box_length)

    def make_eq(self) -> EquationSpec:
        return make_equation(self.equation, alpha=self.alpha, epsilon=self.epsilon)

    def solver(self, t_end: float, snapshots: tuple) -> SolverConfig:
        return SolverConfig(dt_max=self.dt_max, cfl_coefficient=self.cfl_coefficient,
                            t_end=t_end, snapshot_times=snapshots)

    def to_dict(self) -> dict:
        out = {}
        for key, value in self.__dict__.items():
            if key == "custom_samples":
                out[key] = None if value is None else [float(v) for v in value]
            elif isinstance(value, tuple):
                out[key] = list(value)
            elif isinstance(value, (np.floating, np.integer)):
                out[key] = value.item()
            else:
                out[key] = value
        return out


def _grid_size(n) -> bool:
    """Whether n is a power of two >= 8, the sizes a grid is built on."""
    return isinstance(n, (int, np.integer)) and n >= 8 and (n & (n - 1)) == 0


def validate_config(cfg: ExperimentConfig) -> None:
    """Cross-field validation shared by file parsing and direct construction,
    including what each study needs of its equation and data."""
    if cfg.study not in STUDIES:
        raise ConfigurationError(
            f"[run] study: unknown study {cfg.study!r}; expected one of {STUDIES}")
    for section, key in (("grid", "n_points"), ("study", "refine_start"),
                         ("study", "refine_max")):
        if not _grid_size(getattr(cfg, key)):
            raise ConfigurationError(f"[{section}] {key}: must be a power of two >= 8, "
                                     f"got {getattr(cfg, key)}")
    if cfg.refine_start > cfg.refine_max:
        raise ConfigurationError(f"[study] refine_start/refine_max: refine_start "
                                 f"{cfg.refine_start} exceeds refine_max {cfg.refine_max}")
    if not (0 < cfg.box_length < np.inf):
        raise ConfigurationError(
            f"[grid] box_length: must be positive and finite, got {cfg.box_length}")
    if cfg.seed < 0:
        raise ConfigurationError(f"[run] seed: must be nonnegative, got {cfg.seed}")
    if cfg.equation not in EQUATION_KINDS:
        raise ConfigurationError(f"[equation] kind: unknown kind {cfg.equation!r}; "
                                 f"expected one of {EQUATION_KINDS}")
    if cfg.initial_kind not in INITIAL_KINDS:
        raise ConfigurationError(f"[initial] kind: unknown kind {cfg.initial_kind!r}; "
                                 f"expected one of {INITIAL_KINDS}")
    # a set alpha or epsilon is checked whatever the kind: the shock study
    # hands alpha to its contrast run after the whole ladder
    if cfg.alpha is None and cfg.equation == "modified_fkdv":
        raise ConfigurationError(f"[equation] alpha: required for {cfg.equation}")
    if cfg.alpha is not None and not (-1.0 < cfg.alpha < 0.0):
        raise ConfigurationError(f"[equation] alpha: must lie in (-1, 0), got {cfg.alpha}")
    if cfg.epsilon is None and cfg.equation in ("rescaled_modified_whitham", "mkdv") \
            and cfg.study != "longwave":
        raise ConfigurationError(f"[equation] epsilon: required for {cfg.equation}")
    if cfg.epsilon is not None and not (0 < cfg.epsilon < np.inf):
        raise ConfigurationError(
            f"[equation] epsilon: must be positive and finite, got {cfg.epsilon}")
    if not (0 <= cfg.t_end < np.inf):
        raise ConfigurationError(
            f"[solver] t_end: must be nonnegative and finite, got {cfg.t_end}")
    if not (0 < cfg.cfl_coefficient <= 1):
        raise ConfigurationError(
            f"[solver] cfl_coefficient: must lie in (0, 1], got {cfg.cfl_coefficient}")
    if not (0 < cfg.dt_max < np.inf):
        raise ConfigurationError(
            f"[solver] dt_max: must be positive and finite, got {cfg.dt_max}")
    if not (-np.inf < cfg.fit_t_min < cfg.fit_t_max < np.inf):
        raise ConfigurationError(f"[study] fit window: t_min {cfg.fit_t_min} must precede "
                                 f"t_max {cfg.fit_t_max}, both finite")
    for key in ("sample_dt", "detect_dt"):
        value = getattr(cfg, key)
        if not (0 < value < np.inf):
            raise ConfigurationError(f"[study] {key}: must be positive and finite, got {value}")
    if not all(0 < eps < np.inf for eps in cfg.eps_list):
        raise ConfigurationError(
            f"[study] eps_list: values must be positive and finite, got {cfg.eps_list}")
    if not (0 <= cfg.amplitude < np.inf):
        raise ConfigurationError(
            f"[initial] amplitude: must be nonnegative and finite, got {cfg.amplitude}")
    if not (0 < cfg.width < np.inf):
        raise ConfigurationError(
            f"[initial] width: must be positive and finite, got {cfg.width}")
    if cfg.center is not None and not (-np.inf < cfg.center < np.inf):
        raise ConfigurationError(f"[initial] center: must be finite, got {cfg.center}")
    if cfg.study in ("decay", "shock") and \
            cfg.make_eq().is_dispersive != (cfg.study == "decay"):
        need = "dispersive" if cfg.study == "decay" else "dispersionless"
        raise ConfigurationError(f"[equation] kind: the {cfg.study} study requires "
                                 f"a {need} equation, got {cfg.equation}")
    if cfg.study in ("scattering", "norms") and cfg.equation != "modified_fkdv":
        raise ConfigurationError(f"[equation] kind: the {cfg.study} study requires "
                                 f"modified_fkdv, got {cfg.equation}")
    if cfg.study == "scattering" and cfg.t_end < 64.0:
        raise ConfigurationError(
            f"[solver] t_end: the scattering study requires t_end >= 64, got {cfg.t_end}")
    if not all(isinstance(j, (int, np.integer)) for j in cfg.j_list):
        raise ConfigurationError(
            f"[study] j_list: Sobolev orders must be integers, got {cfg.j_list}")
    if cfg.study == "longwave" and not cfg.j_list:
        raise ConfigurationError("[study] j_list: the longwave study needs at least "
                                 "one Sobolev order")
    if cfg.study == "longwave" and len(cfg.eps_list) < 2:
        raise ConfigurationError(f"[study] eps_list: the longwave study needs at "
                                 f"least two values, got {cfg.eps_list}")


#: Study-specific default overrides, applied by default_config().
STUDY_DEFAULTS: dict[str, dict] = {
    "decay": {"width": 0.7, "t_end": 100.0},
    "scattering": {"width": 20.0, "t_end": 128.0},
    "longwave": {"initial_kind": "sech2", "amplitude": 1.0, "width": 1.5,
                 "n_points": 2 ** 10, "box_length": 32.0 * np.pi,
                 "dt_max": 0.05, "t_end": 10.0},
    "shock": {"equation": "modified_burgers", "alpha": None,
              "initial_kind": "sine", "amplitude": 0.5,
              "n_points": 2 ** 9, "box_length": 2.0 * np.pi,
              "dt_max": 0.01, "t_end": 8.0},
    "norms": {"width": 1.0, "t_end": 100.0, "fit_t_min": 10.0, "fit_t_max": 100.0},
}


def default_config(study: str, **overrides) -> ExperimentConfig:
    cfg = ExperimentConfig(study=study)
    cfg = replace(cfg, **STUDY_DEFAULTS.get(study, {}))
    cfg = replace(cfg, **overrides)
    validate_config(cfg)
    return cfg


@dataclass
class Verdict:
    name: str
    passed: bool
    value: float
    threshold: str
    series: str

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed),
                "value": self.value, "threshold": self.threshold,
                "series": self.series}


@dataclass
class ExperimentReport:
    study: str
    inputs: dict
    measured: dict = field(default_factory=dict)
    verdicts: list = field(default_factory=list)
    series_paths: list = field(default_factory=list)

    def add_verdict(self, name: str, passed: bool, value: float,
                    threshold: str, series: str) -> None:
        self.verdicts.append(Verdict(name, passed, float(value), threshold, series))

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_dict(self) -> dict:
        return {"study": self.study, "inputs": self.inputs,
                "measured": self.measured,
                "verdicts": [v.to_dict() for v in self.verdicts],
                "series_paths": self.series_paths,
                "all_passed": self.all_passed}


#: Offsets (x - center)/width past which each profile is exactly 0 in
#: doubles: exp(-28^2) underflows, and cosh(710) is finite but its square is
#: not.  ``_scaled_offset`` saturates there instead of overflowing.
_GAUSSIAN_REACH = 28.0
_SECH2_REACH = 710.0


def _scaled_offset(x: np.ndarray, center: float, width: float, reach: float) -> np.ndarray:
    """(x - center) / width, clipped to [-reach, reach] before the division,
    so a huge but finite center or a tiny width cannot overflow it; offsets
    inside the reach are computed as the plain quotient, bit for bit."""
    span = reach * float(width)    # a float product: inf when huge, no warning
    return np.clip(x - center, -span, span) / width


def initial_field(cfg: ExperimentConfig, grid: Grid | None = None) -> SpectralField:
    grid = grid or cfg.grid()
    x = grid.x
    center = grid.x_center if cfg.center is None else cfg.center
    if cfg.initial_kind == "gaussian":
        z = _scaled_offset(x, center, cfg.width, _GAUSSIAN_REACH)
        u0 = cfg.amplitude * np.exp(-z ** 2)
    elif cfg.initial_kind == "sech2":
        c = np.cosh(_scaled_offset(x, center, cfg.width, _SECH2_REACH))
        finite = c < 2.0 ** 512                 # exactly where c ** 2 does not overflow
        u0 = np.zeros_like(c)
        u0[finite] = cfg.amplitude / c[finite] ** 2
    elif cfg.initial_kind == "sine":
        u0 = cfg.amplitude * np.sin(2.0 * np.pi * cfg.sine_mode * x / grid.box_length)
    elif cfg.initial_kind == "custom":
        if cfg.custom_samples is None:
            raise ConfigurationError("custom initial data requires samples")
        u0 = np.asarray(cfg.custom_samples, dtype=float)
        if u0.shape != (grid.n_points,):
            raise ConfigurationError(
                f"custom samples of length {len(u0)} do not match grid "
                f"with {grid.n_points} points")
    else:
        raise ConfigurationError(f"unknown initial kind {cfg.initial_kind!r}")
    return hermitize(transform(grid, u0))


SOBOLEV_ORDER = 8.0     #: order s of the H^s norm in the smallness and norms study
EPSILON_BAR = 1e6       #: largest measured initial-data size a study starts from


def measure_smallness(u0: SpectralField) -> dict:
    """Size decomposition of the initial data: H^SOBOLEV_ORDER +
    weighted-localization + weighted-sup (Z norm) contributions, recorded in
    every manifest."""
    h_n = norm_sobolev(u0, SOBOLEV_ORDER)
    frac = boundary_mass_fraction(u0)
    h11 = norm_h11(u0)
    z = norm_z(u0)
    return {"sobolev": h_n, "h11": h11, "z": z, "epsilon0": h_n + h11 + z,
            "boundary_mass_fraction": frac,
            "h11_reliable": bool(frac <= BOUNDARY_MASS_THRESHOLD)}


# ---------------------------------------------------------------------------
# The study skeleton
# ---------------------------------------------------------------------------

@dataclass
class Study:
    """What the skeleton hands a study body: the validated configuration,
    the grid and initial data, their measured size and the report."""

    cfg: ExperimentConfig
    out_dir: str
    grid: Grid
    u0: SpectralField
    smallness: dict
    report: ExperimentReport

    @cached_property
    def eq(self) -> EquationSpec:
        return self.cfg.make_eq()

    def simulate(self, snapshots: tuple, observer) -> HaltReason:
        """Run the initial data under the configured equation to t_end."""
        cfg = self.cfg
        return run_simulation(self.u0, self.eq, cfg.solver(cfg.t_end, snapshots),
                              observer)[1]

    def write_series(self, name: str, *data, writer=None, **options) -> str:
        """Write one series CSV into out_dir, by ``writer(path, *data,
        **options)`` (default ``io.write_series_columns``), and cite it in
        the report."""
        (writer or lab_io.write_series_columns)(
            os.path.join(self.out_dir, name), *data, **options)
        self.report.series_paths.append(name)
        return name


def study_skeleton(cfg: ExperimentConfig, out_dir: str,
                   body: Callable[[Study], tuple[list[HaltReason], Callable[[], None]]],
                   name: str | None = None) -> ExperimentReport:
    """Run one study body between the steps every study shares.

    Validates cfg, builds the grid and initial data and refuses data whose
    measured size is not within EPSILON_BAR before any step.  The body runs
    its simulations and writes its series; it returns the halts of the runs
    its verdicts rest on, in run order, and the function that adds those
    verdicts.  Then the halt policy: the study's halt is its first run that
    stopped early, else its last run; an early stop replaces the verdicts
    with a failed ``run_completed``.  The report and the manifest go to out_dir as
    ``<name>_report.json`` and ``<name>_manifest.json``; name defaults to
    the study.
    """
    validate_config(cfg)
    started = time.time()
    name = name or cfg.study
    grid = cfg.grid()
    u0 = initial_field(cfg, grid)
    smallness = measure_smallness(u0)
    # written so that a NaN size (from NaN custom samples) is refused too
    if not smallness["epsilon0"] <= EPSILON_BAR:
        raise ConfigurationError(
            f"initial data size {smallness['epsilon0']:.3e} is not within the "
            f"smallness bound {EPSILON_BAR:.3e}")
    os.makedirs(out_dir, exist_ok=True)
    report = ExperimentReport(name, cfg.to_dict(), {"smallness": smallness})
    halts, add_verdicts = body(Study(cfg, out_dir, grid, u0, smallness, report))

    halt = next((h for h in halts if not h.completed), halts[-1] if halts else None)
    manifest = f"{name}_manifest.json"
    if halt is not None:
        report.measured["halt"] = {"kind": halt.kind, "t": halt.t}
    if halt is None or halt.completed:
        add_verdicts()
    else:
        report.add_verdict("run_completed", False, halt.t, "halt before t_end", manifest)
    lab_io.write_manifest(os.path.join(out_dir, manifest), cfg.to_dict(), smallness,
                          halt, started)
    lab_io.write_report(report, os.path.join(out_dir, f"{name}_report.json"))
    return report


def _study(body) -> Callable[[ExperimentConfig, str], ExperimentReport]:
    """The runner ``(cfg, out_dir) -> ExperimentReport`` of a study body."""
    def run(cfg: ExperimentConfig, out_dir: str) -> ExperimentReport:
        return study_skeleton(cfg, out_dir, body)
    run.__name__, run.__doc__ = body.__name__, body.__doc__
    return run


def _sup_gradient(grid: Grid) -> Callable[[np.ndarray], float]:
    """sup|u_x| of a half spectrum on grid, by the half-layout d/dx table."""
    table = half_table(grid, derivative_symbol().on_grid(grid))
    return lambda half: float(np.max(np.abs(half_inverse_transform(grid, half * table))))


# ---------------------------------------------------------------------------
# Decay study
# ---------------------------------------------------------------------------

EXPONENT_BAND = (-0.6, -0.4)    #: band of the fitted exponents of sup|u|, sup|u_x|
R2_MIN = 0.95                   #: least r^2 of each decay fit


@_study
def run_decay_study(study: Study):
    """Sup-norm decay of the solution and its gradient, fitted over a window."""
    cfg, report = study.cfg, study.report
    sup_ux = _sup_gradient(study.grid)
    series_u = DecaySeries("linf_u")
    series_ux = DecaySeries("linf_ux")

    def observer(state):
        if state.t > 0:
            series_u.add(state.t, state.max_abs_u)
            series_ux.add(state.t, sup_ux(state.half))

    halt = study.simulate(tuple(np.arange(0.0, cfg.t_end + 1e-9, cfg.sample_dt)),
                          observer)
    series_name = study.write_series(
        "decay_series.csv", series_u.times,
        {"linf_u": series_u.values, "linf_ux": series_ux.values})

    def verdicts():
        lo, hi = EXPONENT_BAND
        for name, series in (("u", series_u), ("ux", series_ux)):
            exponent, r2 = fit_power_law(series, cfg.fit_t_min, cfg.fit_t_max)
            report.measured[f"exponent_{name}"] = exponent
            report.measured[f"r2_{name}"] = r2
            report.add_verdict(f"exponent_{name}_in_band", lo <= exponent <= hi,
                               exponent, f"[{lo}, {hi}]", series_name)
            report.add_verdict(f"r2_{name}", r2 >= R2_MIN, r2,
                               f">= {R2_MIN}", series_name)
    return [halt], verdicts


# ---------------------------------------------------------------------------
# Scattering study
# ---------------------------------------------------------------------------

def _merge_times(times, rel=1e-9) -> tuple:
    out = []
    for t in sorted(times):
        if not out or t - out[-1] > rel * max(1.0, abs(t)):
            out.append(float(t))
    return tuple(out)


MONO_FROM = 3           #: first dyadic pair m from which d_m(g) must not increase
FINAL_RATIO_MAX = 0.5   #: largest final corrected-to-raw Cauchy-difference ratio


@_study
def run_scattering_study(study: Study):
    """Profile Cauchy differences with and without the log-phase correction."""
    cfg, eq, report = study.cfg, study.eq, study.report
    n_dyadic = int(np.floor(np.log2(cfg.t_end) + 1e-9))
    dyadic = [2.0 ** m for m in range(1, n_dyadic + 1)]
    acc = PhaseAccumulator(study.grid, cfg.alpha)
    series = ScatteringSeries()

    def observer(state):
        if state.t >= 1.0 - 1e-12:
            snap = compute_profile(state.u_hat, state.t, eq)
            accumulate_phase(acc, snap)
            if any(abs(state.t - d) <= 1e-8 * d for d in dyadic):
                series.add(state.t, corrected_profile(snap, acc), snap.f_hat)

    halt = study.simulate(
        _merge_times(set(geometric_snapshots(cfg.t_end)) | set(dyadic)), observer)

    def verdicts():
        w_inf = extract_scattering_limit(series)
        t_m, d_g = series.dyadic_differences("corrected")
        _, d_f = series.dyadic_differences("raw")

        d_name = study.write_series("scattering_differences.csv", t_m,
                                    {"d_corrected": d_g, "d_raw": d_f})
        study.write_series("scattering_limit.csv", w_inf, writer=lab_io.write_spectrum)
        report.measured["d_corrected"] = [float(v) for v in d_g]
        report.measured["d_raw"] = [float(v) for v in d_f]
        report.measured["rate_corrected"] = difference_rate(t_m, d_g)
        report.measured["rate_raw"] = difference_rate(t_m, d_f)

        m0 = MONO_FROM
        mono = all(d_g[i + 1] <= d_g[i] for i in range(m0 - 1, len(d_g) - 1))
        worst = max((d_g[i + 1] / d_g[i] for i in range(m0 - 1, len(d_g) - 1)),
                    default=0.0)
        report.add_verdict(f"d_corrected_nonincreasing_from_m{m0}", mono, worst,
                           "max step ratio <= 1", d_name)
        final_ratio = d_g[-1] / d_f[-1] if d_f[-1] > 0 else float("inf")
        report.measured["final_ratio"] = float(final_ratio)
        report.add_verdict("final_corrected_to_raw_ratio",
                           final_ratio <= FINAL_RATIO_MAX, final_ratio,
                           f"<= {FINAL_RATIO_MAX}", d_name)
    return [halt], verdicts


# ---------------------------------------------------------------------------
# Long-wave comparison study
# ---------------------------------------------------------------------------

RATIO_BAND = (2.5, 6.0)     #: band of each error ratio of consecutive epsilons
SHAPE_FACTOR_MAX = 2.0      #: largest max/min of e0/t over 2 <= t <= 1/(2 eps)


@_study
def run_longwave_study(study: Study):
    """Scaled nonlocal equation vs its third-order local model from shared data."""
    cfg, grid, phi, report = study.cfg, study.grid, study.u0, study.report

    def one_epsilon(eps: float) -> tuple:
        t_end = max(cfg.t_eval, 1.0 / (2.0 * eps))
        snaps = tuple(np.arange(0.0, t_end + 1e-9, 0.25))
        states_u, states_v = {}, {}

        def collector(store):
            def observer(state):
                store[round(state.t, 9)] = state.u_hat
            return observer

        eq_u = make_equation("rescaled_modified_whitham", epsilon=eps)
        eq_v = make_equation("mkdv", epsilon=eps)
        _, halt_u = run_simulation(phi, eq_u, cfg.solver(t_end, snaps), collector(states_u))
        _, halt_v = run_simulation(phi, eq_v, cfg.solver(t_end, snaps), collector(states_v))
        # a run that halted early stops its store short of the other's
        times = sorted(states_u.keys() & states_v.keys())
        e_j = {j: [norm_sobolev(SpectralField(grid, states_u[t].coeffs - states_v[t].coeffs), j)
                   for t in times] for j in cfg.j_list}
        return {"times": times, "e": e_j}, [halt_u, halt_v]

    members = [one_epsilon(eps) for eps in cfg.eps_list]

    errors: dict[float, dict] = {}
    for eps, (data, _) in zip(cfg.eps_list, members):
        errors[eps] = data
        study.write_series(f"longwave_eps{eps:g}.csv", data["times"],
                           {f"e{j}": data["e"][j] for j in cfg.j_list})

    def verdicts():
        lo, hi = RATIO_BAND
        nearest = {eps: int(np.argmin(np.abs(np.asarray(data["times"]) - cfg.t_eval)))
                   for eps, data in errors.items()}
        eps_sorted = sorted(cfg.eps_list, reverse=True)
        for big, small in zip(eps_sorted, eps_sorted[1:]):
            for j in cfg.j_list:
                ratio = (errors[big]["e"][j][nearest[big]]
                         / errors[small]["e"][j][nearest[small]])
                report.measured[f"ratio_e{j}_eps{big:g}_over_eps{small:g}"] = float(ratio)
                report.add_verdict(
                    f"e{j}_ratio_eps{big:g}_to_{small:g}", lo <= ratio <= hi,
                    ratio, f"[{lo}, {hi}]", f"longwave_eps{big:g}.csv")

        j0 = cfg.j_list[0]
        for eps in cfg.eps_list:
            times = np.asarray(errors[eps]["times"])
            e0 = np.asarray(errors[eps]["e"][j0])
            window = (times >= 2.0) & (times <= 1.0 / (2.0 * eps) + 1e-9)
            vals = e0[window] / times[window]
            factor = float(np.max(vals) / np.min(vals))
            report.measured[f"e{j0}_over_t_variation_eps{eps:g}"] = factor
            report.add_verdict(
                f"e{j0}_over_t_flat_eps{eps:g}", factor < SHAPE_FACTOR_MAX,
                factor, f"< {SHAPE_FACTOR_MAX}", f"longwave_eps{eps:g}.csv")
    return [halt for _, halts in members for halt in halts], verdicts


# ---------------------------------------------------------------------------
# Shock study and its characteristics oracle
# ---------------------------------------------------------------------------

REFINE_TOLERANCE = 0.05         #: largest relative move of t_detect under doubling
ORACLE_TOLERANCE = 0.10         #: largest relative error of t_detect against t*
CONTRAST_EPSILON0 = 0.1         #: measured size the contrast data are scaled to
CONTRAST_HORIZON_FACTOR = 4.0   #: horizon of the contrast run, in units of t*


def predict_shock_time(u0_samples: np.ndarray, grid: Grid) -> float | None:
    """Gradient blow-up time of u_t + u^2 u_x = 0 by characteristics.

    Along straight rays the gradient is u0'/(1 + t * d/dx[u0^2]), so
    t* = -1 / min_x d/dx[u0(x)^2].  The minimum is taken by brute force on
    an 8x spectrally refined grid; None when no compression.
    """
    u0 = np.asarray(u0_samples, dtype=float)
    if u0.shape != (grid.n_points,):
        raise ConfigurationError("sample count does not match the grid")
    fine = make_grid(grid.n_points * 8, grid.box_length)
    slope = inverse_transform(apply_multiplier(
        regrid(transform(grid, u0 ** 2), fine), derivative_symbol()))
    worst = float(np.min(slope))
    if worst >= -1e-14 * max(1.0, float(np.max(np.abs(slope)))):
        return None
    return -1.0 / worst


def _confirms(prev: float | None, cur: float | None) -> bool:
    """Whether rungs n and 2n detect within REFINE_TOLERANCE of each other."""
    return prev is not None and cur is not None and abs(cur - prev) / prev < REFINE_TOLERANCE


def _detect_blowup_time(cfg: ExperimentConfig, eq: EquationSpec, n_points: int,
                        u0_maker: Callable[[Grid], SpectralField],
                        t_end: float) -> tuple[float | None, dict]:
    grid = make_grid(n_points, cfg.box_length)
    u0 = u0_maker(grid)
    sup_ux = _sup_gradient(grid)
    g0 = sup_ux(half_spectrum(u0))
    snaps = tuple(np.arange(0.0, t_end + 1e-9, cfg.detect_dt))
    hit: list[float] = []
    peak = [0.0]

    def observer(state):
        gx = sup_ux(state.half)
        peak[0] = max(peak[0], gx)
        if not hit and g0 > 0.0 and gx >= cfg.blowup_factor * g0:
            hit.append(state.t)

    final, halt = run_simulation(u0, eq, cfg.solver(t_end, snaps), observer)
    info = {"halt": halt.kind, "initial_gradient": g0,
            "peak_gradient": peak[0], "n_points": n_points}
    return (hit[0] if hit else None), info


@_study
def run_shock_study(study: Study):
    """Gradient blow-up detection vs the characteristics oracle, with a
    dispersive contrast run from the same data scaled small.  Each ladder
    row records the halt of its own run; the study itself reports none."""
    cfg, eq, base0, report = study.cfg, study.eq, study.u0, study.report
    t_star = predict_shock_time(inverse_transform(base0), study.grid)
    report.measured["oracle_t_star"] = t_star

    def u0_maker(grid):
        # one stored base field, moved across grids spectrally, so every
        # ladder rung and the contrast run share initial data exactly
        return hermitize(regrid(base0, grid))

    ladder = []
    n = cfg.refine_start
    while n <= cfg.refine_max:
        t_end = cfg.t_end if t_star is None else min(cfg.t_end, 2.0 * t_star)
        t_detect, info = _detect_blowup_time(cfg, eq, n, u0_maker, t_end)
        ladder.append({"n_points": n, "t_detect": t_detect, **info})
        if len(ladder) >= 2:
            prev, cur = ladder[-2]["t_detect"], ladder[-1]["t_detect"]
            if _confirms(prev, cur) or (prev is None and cur is None and t_star is None):
                break
        n *= 2
    report.measured["refinement_ladder"] = ladder
    ladder_name = study.write_series(
        "shock_ladder.csv", [row["n_points"] for row in ladder],
        {"t_detect": [row["t_detect"] if row["t_detect"] is not None else np.nan
                      for row in ladder],
         "peak_gradient": [row["peak_gradient"] for row in ladder]},
        time_label="n_points")

    if t_star is not None:
        # dispersive contrast: same shape scaled to a prescribed measured size,
        # evolved by the cubic fractional flow over a horizon past the shock time
        contrast_alpha = cfg.alpha if cfg.alpha is not None else -0.5
        scale = CONTRAST_EPSILON0 / study.smallness["epsilon0"]
        horizon = CONTRAST_HORIZON_FACTOR * t_star

        def contrast_maker(grid):
            return SpectralField(grid, scale * u0_maker(grid).coeffs)

        t_detect_c, info_c = _detect_blowup_time(
            cfg, make_equation("modified_fkdv", alpha=contrast_alpha),
            ladder[-1]["n_points"], contrast_maker, horizon)
        growth = info_c["peak_gradient"] / info_c["initial_gradient"]
        report.measured["contrast"] = {
            "alpha": contrast_alpha, "scale": scale, "horizon": horizon,
            "t_detect": t_detect_c, "gradient_growth": growth}

    def verdicts():
        if t_star is None:
            detected = any(row["t_detect"] is not None for row in ladder)
            report.add_verdict("no_detection_without_compression", not detected,
                               float(detected), "no detection expected", ladder_name)
            return
        t_detect = ladder[-1]["t_detect"]
        confirmed = len(ladder) >= 2 and _confirms(ladder[-2]["t_detect"], t_detect)
        report.measured["t_detect"] = t_detect
        report.add_verdict("detection_confirmed_under_refinement", confirmed,
                           float(t_detect if t_detect is not None else -1),
                           f"move < {REFINE_TOLERANCE:.0%} under doubling",
                           ladder_name)
        if t_detect is not None:
            rel = abs(t_detect - t_star) / t_star
            report.measured["relative_oracle_error"] = rel
            report.add_verdict("detection_matches_oracle", rel <= ORACLE_TOLERANCE,
                               rel, f"<= {ORACLE_TOLERANCE}", ladder_name)
        else:
            report.add_verdict("detection_matches_oracle", False, -1.0,
                               "detection expected", ladder_name)
        report.add_verdict("dispersive_contrast_no_detection", t_detect_c is None,
                           growth, f"gradient growth < {cfg.blowup_factor}x over "
                           f"{CONTRAST_HORIZON_FACTOR:g}*t*",
                           ladder_name)
    return [], verdicts


# ---------------------------------------------------------------------------
# Norm-growth study
# ---------------------------------------------------------------------------

SLOPE_MAX = 0.05    #: largest log-log slope of the H^s and H^{1,1} norms


@_study
def run_norm_growth_study(study: Study):
    """Sobolev norm of the solution and weighted-localization norm of the
    profile: log-log slopes over the window must stay near zero."""
    cfg, eq, report = study.cfg, study.eq, study.report
    series_n = DecaySeries(f"sobolev_{SOBOLEV_ORDER:g}")
    series_11 = DecaySeries("h11_profile")
    warned = [0]

    def observer(state):
        if state.t <= 0:
            return
        series_n.add(state.t, norm_sobolev(state.u_hat, SOBOLEV_ORDER))
        f_hat = compute_profile(state.u_hat, state.t, eq).f_hat
        frac = boundary_mass_fraction(f_hat)
        if frac > BOUNDARY_MASS_THRESHOLD:
            warned[0] += 1
        series_11.add(state.t, norm_h11(f_hat))

    halt = study.simulate(geometric_snapshots(cfg.t_end), observer)
    series_name = study.write_series(
        "norm_growth_series.csv", series_n.times,
        {series_n.name: series_n.values, series_11.name: series_11.values})
    report.measured["h11_boundary_warnings"] = warned[0]

    def verdicts():
        for name, series in ((f"h{SOBOLEV_ORDER:g}", series_n), ("h11", series_11)):
            slope, r2 = fit_power_law(series, cfg.fit_t_min, cfg.fit_t_max)
            report.measured[f"slope_{name}"] = slope
            report.add_verdict(f"slope_{name}", slope <= SLOPE_MAX, slope,
                               f"<= {SLOPE_MAX}", series_name)
    return [halt], verdicts


STUDY_RUNNERS = {
    "decay": run_decay_study,
    "scattering": run_scattering_study,
    "longwave": run_longwave_study,
    "shock": run_shock_study,
    "norms": run_norm_growth_study,
}


def run_study(cfg: ExperimentConfig, out_dir: str) -> ExperimentReport:
    validate_config(cfg)
    return STUDY_RUNNERS[cfg.study](cfg, out_dir)
