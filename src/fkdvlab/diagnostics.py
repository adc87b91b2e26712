"""Profile extraction, logarithmic phase correction, and rate fitting.

The profile of a solution is the state pulled back along the free flow,
f_hat = exp(-t*L) c: time-independent for the linear equation and slowly
varying for the weakly nonlinear one.  Its large-time Fourier phase drifts
logarithmically; the accumulator below removes that drift mode by mode,

    g(xi, t) = exp(i*H(xi, t)) f_hat(xi, t),
    H(xi, t) = -(xi*|xi|^(1-alpha) / (alpha*(alpha+1)))
               * integral_1^t |f_hat(s, xi)|^2 ds/s,

which is the phase produced by the three near-diagonal resonances of the
cubic interaction (stationary-phase constant 2*pi / |Hessian|, one third per
resonance from the divergence form of the nonlinearity).  The integral is
accumulated by the trapezoid rule in tau = ln s, which is uniform and
second-order on geometric snapshot schedules.  H is odd in xi, so g is
Hermitian like f_hat, and both are held as half spectra (``spectral``);
the weighted sup distances below have even weights, so their max over the
half spectrum is the max over the whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .equations import EquationSpec, grid_tables
from .errors import (
    ConfigurationError,
    GridMismatchError,
    InsufficientDataError,
    SequencingError,
)
from .spectral import NOISE_FLOOR, Z_WEIGHT, Grid, SpectralField

#: Fitted-rate sentinel for a stationary corrected-profile sequence.
STATIONARY_RATE = float("-inf")


@dataclass(frozen=True)
class ProfileSnapshot:
    t: float
    f_hat: SpectralField


def compute_profile(fld: SpectralField, t: float, eq: EquationSpec) -> ProfileSnapshot:
    """f_hat = exp(-t*L) c of the field's spectrum c; requires a nonzero
    linear symbol."""
    if not eq.is_dispersive:
        raise ConfigurationError(
            f"profile extraction needs a dispersive equation, got {eq.kind!r}")
    lin = grid_tables(eq, fld.grid).linear
    return ProfileSnapshot(t, SpectralField(fld.grid, np.exp(-t * lin) * fld.coeffs))


def phase_prefactor(xi: np.ndarray, alpha: float) -> np.ndarray:
    """-xi*|xi|^(1-alpha) / (alpha*(alpha+1)); vanishes at xi = 0."""
    xi = np.asarray(xi, dtype=float)
    return -xi * np.abs(xi) ** (1.0 - alpha) / (alpha * (alpha + 1.0))


class PhaseAccumulator:
    """Running log-time integral of |f_hat|^2, scaled to the resonant phase.

    Snapshots must arrive in time order; snapshots before t = 1 contribute
    nothing (the phase integral starts at 1 by definition).  Sequential by
    construction -- do not share one accumulator across runs.
    """

    def __init__(self, grid: Grid, alpha: float):
        self.grid = grid
        self.alpha = alpha
        self.prefactor = phase_prefactor(grid.wavenumbers, alpha)
        self.integral = np.zeros(len(self.prefactor))   # integral_1^t |f_hat|^2 ds/s
        self.last_t: float | None = None
        self._last_weight: np.ndarray | None = None

    @property
    def H(self) -> np.ndarray:
        return self.prefactor * self.integral


def accumulate_phase(acc: PhaseAccumulator, snap: ProfileSnapshot) -> PhaseAccumulator:
    """Advance H to snap.t by one trapezoid panel in tau = ln s."""
    if snap.f_hat.grid != acc.grid:
        raise GridMismatchError("snapshot grid does not match accumulator grid")
    if snap.t < 1.0:
        return acc
    weight = np.abs(snap.f_hat.coeffs) ** 2
    if acc.last_t is None:
        acc.last_t = snap.t
        acc._last_weight = weight
        return acc
    if snap.t < acc.last_t * (1.0 - 1e-12):
        raise SequencingError(
            f"snapshot at t={snap.t} arrived after accumulator reached t={acc.last_t}")
    dtau = np.log(snap.t / acc.last_t)
    acc.integral += 0.5 * dtau * (acc._last_weight + weight)
    acc.last_t = snap.t
    acc._last_weight = weight
    return acc


def corrected_profile(snap: ProfileSnapshot, acc: PhaseAccumulator) -> SpectralField:
    """g = exp(i*H) f_hat at the accumulator's current time."""
    if snap.f_hat.grid != acc.grid:
        raise GridMismatchError("snapshot grid does not match accumulator grid")
    if acc.last_t is None:
        if snap.t > 1.0:
            raise SequencingError(
                "corrected profile requested before any phase accumulation")
    elif not np.isclose(snap.t, acc.last_t, rtol=1e-9, atol=1e-12):
        raise SequencingError(
            f"corrected profile requested at t={snap.t} but accumulator "
            f"is at t={acc.last_t}")
    return SpectralField(snap.f_hat.grid, np.exp(1j * acc.H) * snap.f_hat.coeffs)


def z_distance(g1: SpectralField, g2: SpectralField, weight: float = Z_WEIGHT) -> float:
    """max over grid xi of (1+|xi|)^weight |g2 - g1|.

    Differences below ``NOISE_FLOOR`` times the larger field's spectral peak
    are below double-precision measurement resolution and count as zero, so
    large weights do not turn round-off into a reported distance.
    """
    if g1.grid != g2.grid:
        raise GridMismatchError("z_distance requires fields on the same grid")
    xi = g1.grid.wavenumbers
    diff = np.abs(g2.coeffs - g1.coeffs)
    scale = max(float(np.max(np.abs(g1.coeffs))), float(np.max(np.abs(g2.coeffs))))
    if scale > 0.0:
        diff = np.where(diff >= NOISE_FLOOR * scale, diff, 0.0)
    return float(np.max((1.0 + np.abs(xi)) ** weight * diff))


@dataclass
class ScatteringSeries:
    """Corrected profiles at dyadic checkpoints plus Cauchy-difference data."""

    times: list = field(default_factory=list)
    corrected: list = field(default_factory=list)     # g at each checkpoint
    raw: list = field(default_factory=list)           # f_hat at each checkpoint

    def add(self, t: float, g: SpectralField, f_hat: SpectralField) -> None:
        if self.times and t <= self.times[-1]:
            raise SequencingError("checkpoint times must be strictly increasing")
        if t < 1.0:
            raise SequencingError("checkpoints must lie at t >= 1")
        self.times.append(float(t))
        self.corrected.append(g)
        self.raw.append(f_hat)

    def dyadic_differences(self, which: str = "corrected") -> tuple[np.ndarray, np.ndarray]:
        """(t_m, d_m) with d_m the weighted sup distance ``z_distance`` between
        consecutive checkpoints; t_m is the left checkpoint time."""
        if which not in ("corrected", "raw"):
            raise ValueError(f"which must be 'corrected' or 'raw', got {which!r}")
        fields = self.corrected if which == "corrected" else self.raw
        t = np.asarray(self.times[:-1])
        d = np.array([z_distance(fields[i], fields[i + 1])
                      for i in range(len(fields) - 1)])
        return t, d


def _fit_loglog(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of ln y vs ln x with r^2 (1.0 for a constant fit)."""
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    if ss_tot == 0.0:
        return float(slope), 1.0
    return float(slope), float(1.0 - np.sum(resid ** 2) / ss_tot)


def extract_scattering_limit(series: ScatteringSeries) -> SpectralField:
    """Weighted corrected profile (1+|xi|)^Z_WEIGHT g at the last checkpoint
    of a series with at least four checkpoints."""
    if len(series.times) < 4:
        raise InsufficientDataError(
            f"need >= 4 dyadic checkpoints, got {len(series.times)}")
    g_last = series.corrected[-1]
    xi = g_last.grid.wavenumbers
    return SpectralField(g_last.grid,
                         (1.0 + np.abs(xi)) ** Z_WEIGHT * g_last.coeffs)


def difference_rate(t: np.ndarray, d: np.ndarray) -> float:
    """Fitted exponent of Cauchy differences d_m against t_m (as from
    ``ScatteringSeries.dyadic_differences``) over the positive ones; a
    stationary sequence, fewer than two positive, reports the -inf sentinel."""
    positive = d > 0.0
    if np.count_nonzero(positive) < 2:
        return STATIONARY_RATE
    rate, _ = _fit_loglog(t[positive], d[positive])
    return rate


@dataclass
class DecaySeries:
    """(t, value) samples of one named norm along a run."""

    name: str
    times: list = field(default_factory=list)
    values: list = field(default_factory=list)

    def add(self, t: float, value: float) -> None:
        if self.times and t <= self.times[-1]:
            raise SequencingError("decay-series times must be strictly increasing")
        if not np.isfinite(value) or value < 0:
            raise ValueError(f"decay-series values must be finite nonnegative, got {value}")
        self.times.append(float(t))
        self.values.append(float(value))


def fit_power_law(series: DecaySeries, t_min: float, t_max: float) -> tuple[float, float]:
    """Fitted exponent and r^2 of value ~ t^p over the window [t_min, t_max]."""
    t = np.asarray(series.times)
    v = np.asarray(series.values)
    window = (t >= t_min) & (t <= t_max)
    if np.count_nonzero(window) < 5:
        raise InsufficientDataError(
            f"need >= 5 points in [{t_min}, {t_max}], got {np.count_nonzero(window)}")
    if np.any(v[window] <= 0.0):
        raise InsufficientDataError(
            f"power-law fit of {series.name} needs positive values in [{t_min}, {t_max}], "
            f"got {np.count_nonzero(v[window] <= 0.0)} nonpositive")
    return _fit_loglog(t[window], v[window])
