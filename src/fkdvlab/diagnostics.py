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
Hermitian like f_hat, and both are held as half spectra (``spectral``).
Their distances are measured in the Z norm, whose weight and noise floor
``spectral.z_sup`` holds.
"""

from __future__ import annotations

import numpy as np

from .equations import EquationSpec, grid_tables
from .errors import (
    ConfigurationError,
    GridMismatchError,
    InsufficientDataError,
    SequencingError,
)
from .spectral import Grid, SpectralField, z_sup

#: Fitted-rate sentinel for a stationary corrected-profile sequence.
STATIONARY_RATE = float("-inf")


def compute_profile(fld: SpectralField, t: float, eq: EquationSpec) -> SpectralField:
    """f_hat = exp(-t*L) c of the field's spectrum c; requires a nonzero
    linear symbol."""
    if not eq.is_dispersive:
        raise ConfigurationError(
            f"profile extraction needs a dispersive equation, got {eq.kind!r}")
    lin = grid_tables(eq, fld.grid).linear
    return SpectralField(fld.grid, np.exp(-t * lin) * fld.coeffs)


def phase_prefactor(xi: np.ndarray, alpha: float) -> np.ndarray:
    """-xi*|xi|^(1-alpha) / (alpha*(alpha+1)); vanishes at xi = 0."""
    xi = np.asarray(xi, dtype=float)
    return -xi * np.abs(xi) ** (1.0 - alpha) / (alpha * (alpha + 1.0))


class PhaseAccumulator:
    """Running log-time integral of |f_hat|^2, scaled to the resonant phase.

    Profiles must arrive in time order; profiles before t = 1 contribute
    nothing (the phase integral starts at 1 by definition).  Sequential by
    construction -- do not share one accumulator across runs.
    """

    def __init__(self, grid: Grid, alpha: float):
        self.grid = grid
        self.prefactor = phase_prefactor(grid.wavenumbers, alpha)
        self.integral = np.zeros(len(self.prefactor))   # integral_1^t |f_hat|^2 ds/s
        self.last_t: float | None = None
        self._last_weight: np.ndarray | None = None

    @property
    def H(self) -> np.ndarray:
        return self.prefactor * self.integral

    def correct(self, t: float, f_hat: SpectralField) -> SpectralField:
        """g = exp(i*H) f_hat, with H first advanced to t by one trapezoid
        panel in tau = ln s when t >= 1."""
        if f_hat.grid != self.grid:
            raise GridMismatchError("profile grid does not match accumulator grid")
        if self.last_t is not None and t < self.last_t * (1.0 - 1e-12):
            raise SequencingError(
                f"profile at t={t} arrived after accumulator reached t={self.last_t}")
        if t >= 1.0:
            weight = np.abs(f_hat.coeffs) ** 2
            if self.last_t is not None:
                dtau = np.log(t / self.last_t)
                self.integral += 0.5 * dtau * (self._last_weight + weight)
            self.last_t, self._last_weight = t, weight
        return SpectralField(self.grid, np.exp(1j * self.H) * f_hat.coeffs)


def z_distance(g1: SpectralField, g2: SpectralField) -> float:
    """Z norm of g2 - g1, with differences below ``NOISE_FLOOR`` times the
    larger field's spectral peak counted as zero (``spectral.z_sup``)."""
    if g1.grid != g2.grid:
        raise GridMismatchError("z_distance requires fields on the same grid")
    scale = max(float(np.max(np.abs(g1.coeffs))), float(np.max(np.abs(g2.coeffs))))
    return z_sup(g1.grid, np.abs(g2.coeffs - g1.coeffs), scale)


def _fit_loglog(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of ln y vs ln x with r^2 (1.0 for a constant fit)."""
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    if ss_tot == 0.0:
        return float(slope), 1.0
    return float(slope), float(1.0 - np.sum(resid ** 2) / ss_tot)


def difference_rate(t: np.ndarray, d: np.ndarray) -> float:
    """Fitted exponent of Cauchy differences d_m against t_m over the
    positive ones; a stationary sequence, fewer than two positive, reports
    the -inf sentinel."""
    positive = d > 0.0
    if np.count_nonzero(positive) < 2:
        return STATIONARY_RATE
    rate, _ = _fit_loglog(t[positive], d[positive])
    return rate


def fit_power_law(times, values, t_min: float, t_max: float) -> tuple[float, float]:
    """Fitted exponent and r^2 of value ~ t^p over the window [t_min, t_max]
    of a sampled series; every value in the window must be positive and
    finite."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    window = (t >= t_min) & (t <= t_max)
    if np.count_nonzero(window) < 5:
        raise InsufficientDataError(
            f"need >= 5 points in [{t_min}, {t_max}], got {np.count_nonzero(window)}")
    # written so that a NaN fails the test too
    bad = ~((v[window] > 0.0) & (v[window] < np.inf))
    if bad.any():
        raise InsufficientDataError(
            f"power-law fit of value ~ t^p needs positive finite values in "
            f"[{t_min}, {t_max}], got {np.count_nonzero(bad)} nonpositive or nonfinite")
    return _fit_loglog(t[window], v[window])
