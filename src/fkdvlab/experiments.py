"""The reproducible studies tying simulations to the quantitative claims.

Five studies: sup-norm decay, modified scattering, long-wave comparison,
dispersionless shock formation (with a characteristics oracle), and
Sobolev/weighted norm growth.  Each study is a body run inside one
skeleton, ``study_skeleton``: it consumes one ExperimentConfig, runs
deterministically, writes its series and manifest through the io layer,
and returns an ExperimentReport whose verdicts cite the emitted series
files.  Every run samples through one function, ``sample_run``: a study
body keeps only its snapshot schedule, its columns (functions of the
solver state, each sampled once at every snapshot) and its verdicts.

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
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import io as lab_io
from .diagnostics import (
    PhaseAccumulator,
    compute_profile,
    difference_rate,
    fit_power_law,
    z_distance,
)
from .equations import EquationSpec, make_equation
from .errors import ConfigurationError, InsufficientDataError
from .integrator import (HaltReason, SolverConfig, SolverState, geometric_snapshots,
                         run_simulation, uniform_snapshots)
from .spectral import (
    BOUNDARY_MASS_THRESHOLD,
    Grid,
    SpectralField,
    boundary_mass_fraction,
    half_table,
    hermitize,
    inverse_transform,
    is_grid_size,
    make_grid,
    max_abs,
    norm_h11,
    norm_linf,
    norm_sobolev,
    norm_z,
    regrid,
    z_weight,
)

INITIAL_KINDS = ("gaussian", "sech2", "sine")


def _in_section(section: str, build, *args):
    """build(*args), a refusal's message led by the INI section whose keys
    the record reads."""
    try:
        return build(*args)
    except ConfigurationError as exc:
        raise ConfigurationError(f"[{section}] {exc}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved configuration of one study run (defaults per study).  It is
    checked once, when built: the grid, solver and equation records check
    their own keys, and the config adds what each study needs of them and
    of its data."""

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
    # grid / solver
    n_points: int = 2 ** 13
    box_length: float = 256.0 * np.pi
    dt_max: float = 0.1
    t_end: float = 100.0
    seed: int = 0
    # decay / norms studies
    sample_dt: float = 1.0
    fit_t_min: float = 5.0
    fit_t_max: float = 100.0
    # long-wave study
    eps_list: tuple = (0.1, 0.05)
    t_eval: float = 5.0
    # shock study
    blowup_factor: float = 50.0
    refine_start: int = 2 ** 9
    refine_max: int = 2 ** 13

    def grid(self) -> Grid:
        return Grid(self.n_points, float(self.box_length))

    def make_eq(self) -> EquationSpec:
        return make_equation(self.equation, alpha=self.alpha, epsilon=self.epsilon)

    def solver(self, t_end: float, snapshots: tuple) -> SolverConfig:
        return SolverConfig(dt_max=self.dt_max, t_end=t_end, snapshot_times=snapshots)

    def __post_init__(self):
        if self.study not in STUDIES:
            raise ConfigurationError(
                f"[run] study: unknown study {self.study!r}; expected one of {STUDIES}")
        _in_section("grid", self.grid)
        for key in ("refine_start", "refine_max"):
            if not is_grid_size(getattr(self, key)):
                raise ConfigurationError(f"[study] {key}: must be a power of two >= 8, "
                                         f"got {getattr(self, key)}")
        if self.refine_start > self.refine_max:
            raise ConfigurationError(f"[study] refine_start/refine_max: refine_start "
                                     f"{self.refine_start} exceeds refine_max {self.refine_max}")
        # numpy's generators take integer seeds only
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ConfigurationError(
                f"[run] seed: must be a nonnegative integer, got {self.seed}")
        if self.initial_kind not in INITIAL_KINDS:
            raise ConfigurationError(f"[initial] kind: unknown kind {self.initial_kind!r}; "
                                     f"expected one of {INITIAL_KINDS}")
        if not all(0 < eps < np.inf for eps in self.eps_list):
            raise ConfigurationError(
                f"[study] eps_list: values must be positive and finite, got {self.eps_list}")
        # a tuple of floats, as the INI parser gives, so that the config hashes
        object.__setattr__(self, "eps_list", tuple(float(eps) for eps in self.eps_list))
        # each value names its series file longwave_eps{eps:g}.csv and its verdicts
        if len({f"{eps:g}" for eps in self.eps_list}) < len(self.eps_list):
            raise ConfigurationError(
                f"[study] eps_list: values must differ in their first 6 significant "
                f"digits, which name the series files, got {self.eps_list}")
        if self.study == "longwave" and len(self.eps_list) < 2:
            raise ConfigurationError(f"[study] eps_list: the longwave study needs at "
                                     f"least two values, got {self.eps_list}")
        # The record checks the kind and each set parameter whatever the kind:
        # the shock study hands alpha to its contrast run after the whole
        # ladder.  The longwave study builds its own equations, one per
        # eps_list entry, so there a long-wave kind may leave epsilon to them.
        epsilon = self.epsilon
        if epsilon is None and self.study == "longwave":
            epsilon = self.eps_list[0]
        eq = _in_section("equation", EquationSpec, self.equation, -1.0, self.alpha, epsilon)
        _in_section("solver", self.solver, self.t_end, ())
        if not (-np.inf < self.fit_t_min < self.fit_t_max < np.inf):
            raise ConfigurationError(f"[study] fit window: t_min {self.fit_t_min} must "
                                     f"precede t_max {self.fit_t_max}, both finite")
        for key in ("sample_dt", "t_eval"):
            value = getattr(self, key)
            if not (0 < value < np.inf):
                raise ConfigurationError(f"[study] {key}: must be positive and finite, "
                                         f"got {value}")
        # a factor of 1 or less detects at t = 0 on every rung
        if not (1 < self.blowup_factor < np.inf):
            raise ConfigurationError(f"[study] blowup_factor: must exceed 1 and be "
                                     f"finite, got {self.blowup_factor}")
        if not (0 <= self.amplitude < np.inf):
            raise ConfigurationError(
                f"[initial] amplitude: must be nonnegative and finite, got {self.amplitude}")
        if not (0 < self.width < np.inf):
            raise ConfigurationError(
                f"[initial] width: must be positive and finite, got {self.width}")
        if self.center is not None and not (-np.inf < self.center < np.inf):
            raise ConfigurationError(f"[initial] center: must be finite, got {self.center}")
        # mode 0 is u0 = 0, and from n/2 on the sine is round-off or an alias
        if not (isinstance(self.sine_mode, (int, np.integer))
                and 1 <= self.sine_mode < self.n_points // 2):
            raise ConfigurationError(
                f"[initial] sine_mode: must be an integer in [1, n_points/2) = "
                f"[1, {self.n_points // 2}), got {self.sine_mode}")
        if self.study in ("decay", "shock") and eq.is_dispersive != (self.study == "decay"):
            need = "dispersive" if self.study == "decay" else "dispersionless"
            raise ConfigurationError(f"[equation] kind: the {self.study} study requires "
                                     f"a {need} equation, got {self.equation}")
        if self.study in ("scattering", "norms") and self.equation != "modified_fkdv":
            raise ConfigurationError(f"[equation] kind: the {self.study} study requires "
                                     f"modified_fkdv, got {self.equation}")
        if self.study == "scattering" and self.t_end < 64.0:
            raise ConfigurationError(
                f"[solver] t_end: the scattering study requires t_end >= 64, got {self.t_end}")


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
    return ExperimentConfig(study=study, **{**STUDY_DEFAULTS.get(study, {}), **overrides})


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
    else:
        u0 = cfg.amplitude * np.sin(2.0 * np.pi * cfg.sine_mode * x / grid.box_length)
    return hermitize(SpectralField.from_samples(grid, u0))


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

def sample_run(u0: SpectralField, eq: EquationSpec, config: SolverConfig,
               columns: dict[str, Callable[[SolverState], object]],
               ) -> tuple[HaltReason, list, dict[str, list]]:
    """Run u0 under eq and evaluate each named column, a function of the
    solver state, once at every scheduled snapshot in time order (t = 0
    only when it is scheduled).  Returns the halt, the snapshot times and
    each column's values; a run that halts stops them at its last finite
    snapshot."""
    times: list = []
    values = {name: [] for name in columns}
    stores = [(column, values[name]) for name, column in columns.items()]

    def observer(state):
        times.append(state.t)
        for column, store in stores:
            store.append(column(state))

    return run_simulation(u0, eq, config, observer)[1], times, values


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

    def simulate(self, snapshots: tuple, columns: dict):
        """``sample_run`` of the initial data under the configured equation
        to t_end."""
        cfg = self.cfg
        return sample_run(self.u0, self.eq, cfg.solver(cfg.t_end, snapshots), columns)

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

    Builds the grid and initial data and refuses data whose
    measured size is not within EPSILON_BAR before any step.  The body runs
    its simulations and writes its series; it returns the halts of the runs
    its verdicts rest on, in run order, and the function that adds those
    verdicts.  Then the halt policy: the study's halt is its first run that
    stopped early, else its last run; an early stop replaces the verdicts
    with a failed ``run_completed``.  The manifest goes to out_dir as
    ``<name>_manifest.json`` before the verdicts are added, so that series
    whose verdicts refuse the data still have theirs, and the report after,
    as ``<name>_report.json``; name defaults to the study.
    """
    started = time.time()
    name = name or cfg.study
    grid = cfg.grid()
    u0 = initial_field(cfg, grid)
    smallness = measure_smallness(u0)
    # written so that a NaN size is refused too
    if not smallness["epsilon0"] <= EPSILON_BAR:
        raise ConfigurationError(
            f"initial data size {smallness['epsilon0']:.3e} is not within the "
            f"smallness bound {EPSILON_BAR:.3e}")
    os.makedirs(out_dir, exist_ok=True)
    report = ExperimentReport(name, asdict(cfg), {"smallness": smallness})
    halts, add_verdicts = body(Study(cfg, out_dir, grid, u0, smallness, report))

    halt = next((h for h in halts if not h.completed), halts[-1] if halts else None)
    manifest = f"{name}_manifest.json"
    if halt is not None:
        report.measured["halt"] = {"kind": halt.kind, "t": halt.t}
    lab_io.write_manifest(os.path.join(out_dir, manifest), asdict(cfg), smallness,
                          halt, started)
    if halt is None or halt.completed:
        add_verdicts()
    else:
        report.add_verdict("run_completed", False, halt.t, "halt before t_end", manifest)
    lab_io.write_report(report.to_dict(), os.path.join(out_dir, f"{name}_report.json"))
    return report


def _sup_gradient(grid: Grid) -> Callable[[np.ndarray], float]:
    """sup|u_x| of a half spectrum on grid, by the d/dx table."""
    table = half_table(grid, lambda xi: 1j * xi)
    return lambda half: max_abs(inverse_transform(grid, half * table))


# ---------------------------------------------------------------------------
# Decay study
# ---------------------------------------------------------------------------

EXPONENT_BAND = (-0.6, -0.4)    #: band of the fitted exponents of sup|u|, sup|u_x|
R2_MIN = 0.95                   #: least r^2 of each decay fit


def _decay(study: Study):
    """Sup-norm decay of the solution and its gradient, fitted over a window."""
    cfg, report = study.cfg, study.report
    sup_ux = _sup_gradient(study.grid)
    halt, times, series = study.simulate(
        uniform_snapshots(cfg.t_end, cfg.sample_dt)[1:],
        {"linf_u": lambda state: norm_linf(state.field),
         "linf_ux": lambda state: sup_ux(state.half)})
    series_name = study.write_series("decay_series.csv", times, series)

    def verdicts():
        lo, hi = EXPONENT_BAND
        for name in ("u", "ux"):
            exponent, r2 = fit_power_law(times, series[f"linf_{name}"],
                                         cfg.fit_t_min, cfg.fit_t_max)
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


def _scattering(study: Study):
    """Profile Cauchy differences with and without the log-phase correction."""
    cfg, eq, report = study.cfg, study.eq, study.report
    n_dyadic = int(np.floor(np.log2(cfg.t_end) + 1e-9))
    dyadic = [2.0 ** m for m in range(1, n_dyadic + 1)]
    acc = PhaseAccumulator(study.grid, cfg.alpha)

    def checkpoint(state):
        # the phase advances at every snapshot; (g, f_hat) is kept at the
        # dyadic times only
        f_hat = compute_profile(state.field, state.t, eq)
        g = acc.correct(state.t, f_hat)
        if any(abs(state.t - d) <= 1e-8 * d for d in dyadic):
            return g, f_hat
        return None

    halt, times, sampled = study.simulate(
        _merge_times(set(geometric_snapshots(cfg.t_end)) | set(dyadic)),
        {"checkpoint": checkpoint})
    checkpoints = [(t, *c) for t, c in zip(times, sampled["checkpoint"]) if c is not None]

    def verdicts():
        times, gs, fs = zip(*checkpoints)
        # each Cauchy difference is dated at its left checkpoint
        t_m = np.array(times[:-1])
        d_g = np.array([z_distance(a, b) for a, b in zip(gs, gs[1:])])
        d_f = np.array([z_distance(a, b) for a, b in zip(fs, fs[1:])])

        d_name = study.write_series("scattering_differences.csv", t_m,
                                    {"d_corrected": d_g, "d_raw": d_f})
        w_inf = SpectralField(study.grid, z_weight(study.grid) * gs[-1].coeffs)
        study.write_series("scattering_limit.csv", w_inf, writer=lab_io.write_spectrum)
        report.measured["d_corrected"] = [float(v) for v in d_g]
        report.measured["d_raw"] = [float(v) for v in d_f]
        report.measured["rate_corrected"] = difference_rate(t_m, d_g)
        report.measured["rate_raw"] = difference_rate(t_m, d_f)

        m0 = MONO_FROM
        # zero data leave every difference 0, so each ratio below 0/0
        if not (np.all(d_g[m0 - 1:-1] > 0.0) and d_f[-1] > 0.0):
            raise InsufficientDataError(
                f"the step and final ratios need positive Cauchy differences, got "
                f"d_corrected {d_g.tolist()} and d_raw {d_f.tolist()}")
        mono = all(d_g[i + 1] <= d_g[i] for i in range(m0 - 1, len(d_g) - 1))
        worst = max((d_g[i + 1] / d_g[i] for i in range(m0 - 1, len(d_g) - 1)),
                    default=0.0)
        report.add_verdict(f"d_corrected_nonincreasing_from_m{m0}", mono, worst,
                           "max step ratio <= 1", d_name)
        final_ratio = d_g[-1] / d_f[-1]
        report.measured["final_ratio"] = float(final_ratio)
        report.add_verdict("final_corrected_to_raw_ratio",
                           final_ratio <= FINAL_RATIO_MAX, final_ratio,
                           f"<= {FINAL_RATIO_MAX}", d_name)
    return [halt], verdicts


# ---------------------------------------------------------------------------
# Long-wave comparison study
# ---------------------------------------------------------------------------

LONGWAVE_ORDERS = (0, 1)    #: Sobolev orders j of the errors e_j the gates read
RATIO_BAND = (2.5, 6.0)     #: band of each error ratio of consecutive epsilons
SHAPE_FACTOR_MAX = 2.0      #: largest max/min of e0/t over 2 <= t <= 1/(2 eps)


def _longwave(study: Study):
    """Scaled nonlocal equation vs its third-order local model from shared data."""
    cfg, grid, phi, report = study.cfg, study.grid, study.u0, study.report

    def one_epsilon(eps: float) -> tuple:
        t_end = max(cfg.t_eval, 1.0 / (2.0 * eps))
        solver = cfg.solver(t_end, uniform_snapshots(t_end, 0.25))
        half = {"half": lambda state: state.half}
        halt_u, times_u, u = sample_run(
            phi, make_equation("rescaled_modified_whitham", epsilon=eps), solver, half)
        halt_v, times_v, v = sample_run(phi, make_equation("mkdv", epsilon=eps), solver, half)
        # a run that halted early stops its samples short of the other's
        times = times_u[:len(times_v)]
        e_j = {j: [norm_sobolev(SpectralField(grid, a - b), j)
                   for a, b in zip(u["half"], v["half"])] for j in LONGWAVE_ORDERS}
        return {"times": times, "e": e_j}, [halt_u, halt_v]

    members = [one_epsilon(eps) for eps in cfg.eps_list]

    errors: dict[float, dict] = {}
    for eps, (data, _) in zip(cfg.eps_list, members):
        errors[eps] = data
        study.write_series(f"longwave_eps{eps:g}.csv", data["times"],
                           {f"e{j}": data["e"][j] for j in LONGWAVE_ORDERS})

    def verdicts():
        lo, hi = RATIO_BAND

        def index_near_t_eval(times):
            # every error is 0 at t = 0, so the ratio reads a later snapshot
            times = np.asarray(times)
            later = np.flatnonzero(times > 0.0)
            return int(later[np.argmin(np.abs(times[later] - cfg.t_eval))])

        nearest = {eps: index_near_t_eval(data["times"]) for eps, data in errors.items()}
        eps_sorted = sorted(cfg.eps_list, reverse=True)
        for big, small in zip(eps_sorted, eps_sorted[1:]):
            for j in LONGWAVE_ORDERS:
                denominator = errors[small]["e"][j][nearest[small]]
                if denominator == 0.0:
                    raise InsufficientDataError(
                        f"the e{j} ratio of eps = {big:g} to {small:g} needs a nonzero "
                        f"error at eps = {small:g} near t_eval = {cfg.t_eval:g}, got 0")
                ratio = errors[big]["e"][j][nearest[big]] / denominator
                report.measured[f"ratio_e{j}_eps{big:g}_over_eps{small:g}"] = float(ratio)
                report.add_verdict(
                    f"e{j}_ratio_eps{big:g}_to_{small:g}", lo <= ratio <= hi,
                    ratio, f"[{lo}, {hi}]", f"longwave_eps{big:g}.csv")

        for eps in cfg.eps_list:
            times = np.asarray(errors[eps]["times"])
            e0 = np.asarray(errors[eps]["e"][0])
            window = (times >= 2.0) & (times <= 1.0 / (2.0 * eps) + 1e-9)
            vals = e0[window] / times[window]
            factor = float(np.max(vals) / np.min(vals))
            report.measured[f"e0_over_t_variation_eps{eps:g}"] = factor
            report.add_verdict(
                f"e0_over_t_flat_eps{eps:g}", factor < SHAPE_FACTOR_MAX,
                factor, f"< {SHAPE_FACTOR_MAX}", f"longwave_eps{eps:g}.csv")
    return [halt for _, halts in members for halt in halts], verdicts


# ---------------------------------------------------------------------------
# Shock study and its characteristics oracle
# ---------------------------------------------------------------------------

DETECT_DT = 0.01                #: snapshot spacing at which t_detect is read
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
    slope = inverse_transform(fine, regrid(SpectralField.from_samples(grid, u0 ** 2),
                                           fine).coeffs * half_table(fine, lambda xi: 1j * xi))
    worst = float(np.min(slope))
    if worst >= -1e-14 * max(1.0, float(np.max(np.abs(slope)))):
        return None
    return -1.0 / worst


def _confirms(prev: float | None, cur: float | None) -> bool:
    """Whether rungs n and 2n detect within REFINE_TOLERANCE of each other."""
    return prev is not None and cur is not None and abs(cur - prev) / prev < REFINE_TOLERANCE


def _detect_blowup_time(cfg: ExperimentConfig, eq: EquationSpec, u0: SpectralField,
                        t_end: float) -> tuple[float | None, dict]:
    """First snapshot time (every DETECT_DT) at which sup|u_x| reaches
    blowup_factor times its value g0 at t = 0, None when it never does or
    g0 = 0; and the run's halt, g0 and peak sup|u_x|."""
    sup_ux = _sup_gradient(u0.grid)
    g0 = sup_ux(u0.coeffs)
    halt, times, sampled = sample_run(
        u0, eq, cfg.solver(t_end, uniform_snapshots(t_end, DETECT_DT)),
        {"sup_ux": lambda state: sup_ux(state.half)})
    gradients = sampled["sup_ux"]
    hits = (t for t, gx in zip(times, gradients) if gx >= cfg.blowup_factor * g0)
    info = {"halt": halt.kind, "initial_gradient": g0,
            "peak_gradient": max(gradients, default=0.0)}
    return (next(hits, None) if g0 > 0.0 else None), info


def _shock(study: Study):
    """Gradient blow-up detection vs the characteristics oracle, with a
    dispersive contrast run from the same data scaled small.  Each ladder
    row records the halt of its own run; the study itself reports none."""
    cfg, eq, base0, report = study.cfg, study.eq, study.u0, study.report
    t_star = predict_shock_time(inverse_transform(base0.grid, base0.coeffs), study.grid)
    report.measured["oracle_t_star"] = t_star

    ladder = []
    n = cfg.refine_start
    while n <= cfg.refine_max:
        t_end = cfg.t_end if t_star is None else min(cfg.t_end, 2.0 * t_star)
        # one stored base field, moved across grids spectrally, so every
        # ladder rung and the contrast run share initial data exactly
        u0 = regrid(base0, make_grid(n, cfg.box_length))
        t_detect, info = _detect_blowup_time(cfg, eq, u0, t_end)
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
        grid = make_grid(ladder[-1]["n_points"], cfg.box_length)
        t_detect_c, info_c = _detect_blowup_time(
            cfg, make_equation("modified_fkdv", alpha=contrast_alpha),
            SpectralField(grid, scale * regrid(base0, grid).coeffs), horizon)
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


def _norm_growth(study: Study):
    """Sobolev norm of the solution and weighted-localization norm of the
    profile: log-log slopes over the window must stay near zero."""
    cfg, eq, report = study.cfg, study.eq, study.report
    sobolev = f"sobolev_{SOBOLEV_ORDER:g}"

    def profile(state):
        # H^{1,1} norm of the profile, and whether the box edge spoils it
        f_hat = compute_profile(state.field, state.t, eq)
        return norm_h11(f_hat), boundary_mass_fraction(f_hat) > BOUNDARY_MASS_THRESHOLD

    halt, times, sampled = study.simulate(
        geometric_snapshots(cfg.t_end)[1:],
        {sobolev: lambda state: norm_sobolev(state.field, SOBOLEV_ORDER),
         "profile": profile})
    h11 = [value for value, _ in sampled["profile"]]
    series_name = study.write_series(
        "norm_growth_series.csv", times, {sobolev: sampled[sobolev], "h11_profile": h11})
    report.measured["h11_boundary_warnings"] = sum(warn for _, warn in sampled["profile"])

    def verdicts():
        for name, values in ((f"h{SOBOLEV_ORDER:g}", sampled[sobolev]), ("h11", h11)):
            slope, r2 = fit_power_law(times, values, cfg.fit_t_min, cfg.fit_t_max)
            report.measured[f"slope_{name}"] = slope
            report.add_verdict(f"slope_{name}", slope <= SLOPE_MAX, slope,
                               f"<= {SLOPE_MAX}", series_name)
    return [halt], verdicts


#: The body of each study, by name, in the order ``fkdvlab all`` runs them.
STUDY_BODIES = {"decay": _decay, "scattering": _scattering, "longwave": _longwave,
                "shock": _shock, "norms": _norm_growth}
STUDIES = tuple(STUDY_BODIES)


def run_study(cfg: ExperimentConfig, out_dir: str) -> ExperimentReport:
    return study_skeleton(cfg, out_dir, STUDY_BODIES[cfg.study])
