"""Periodic spectral representation and Fourier analysis utilities.

Fields live on a uniform periodic grid of ``n`` points over ``[0, L)``.
Spectral coefficients follow the continuous-transform normalization

    coeff(xi_k) = (dx / sqrt(2*pi)) * sum_m u(x_m) exp(-i x_m xi_k),

with wavenumbers xi_k = 2*pi*k/L stored in ascending order,
k = -n/2 ... n/2 - 1.  With this choice the spectral sum
``sum |coeff|^2 * dxi`` equals the physical quadrature of ``int |u|^2 dx``
(Parseval), and the analytic Fourier formulas for multipliers, profiles
and phase corrections transcribe with no hidden constants.

A real field is also held as its half spectrum: modes k = 0 ... n/2 in
real-FFT order, Nyquist last, same normalization.  ``half_transform`` and
``half_inverse_transform`` are the transform pair on that layout; the
solver steps it directly, and ``transform``/``inverse_transform`` are the
full ascending view built on top of it.

All functions here are pure; grids and fields are immutable value objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, GridMismatchError, ShapeError

_SQRT_2PI = np.sqrt(2.0 * np.pi)

#: Share of the squared-mass budget allowed in the outer 10% of the box
#: before a localization-sensitive norm is flagged unreliable.
BOUNDARY_MASS_THRESHOLD = 1e-6

#: Relative size, against the spectral peak, below which a coefficient (or a
#: coefficient difference) is transform round-off and counts as zero in the
#: high-frequency-weighted sup norms.
NOISE_FLOOR = 1e-14


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, box_length)."""

    n_points: int
    box_length: float

    def __post_init__(self):
        if not isinstance(self.n_points, (int, np.integer)) or not _is_power_of_two(int(self.n_points)) or self.n_points < 8:
            raise ConfigurationError(
                f"n_points must be a power of two >= 8, got {self.n_points}")
        if not self.box_length > 0:
            raise ConfigurationError(
                f"box_length must be positive, got {self.box_length}")

    @property
    def dx(self) -> float:
        return self.box_length / self.n_points

    @property
    def dxi(self) -> float:
        """Wavenumber spacing 2*pi/L."""
        return 2.0 * np.pi / self.box_length

    @property
    def mode_index(self) -> np.ndarray:
        """Integer mode indices k = -n/2 ... n/2-1, ascending."""
        n = self.n_points
        return np.arange(-(n // 2), n // 2)

    @property
    def wavenumbers(self) -> np.ndarray:
        """xi_k = 2*pi*k/L, ascending; single Nyquist mode at the left end."""
        return self.mode_index * self.dxi

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.n_points) * self.dx

    @property
    def x_center(self) -> float:
        return 0.5 * self.box_length

    def key(self) -> tuple:
        return (self.n_points, self.box_length)


def make_grid(n_points: int, box_length: float) -> Grid:
    return Grid(int(n_points), float(box_length))


@dataclass(frozen=True)
class SpectralField:
    """Complex Fourier coefficients of one field, paired with its grid."""

    grid: Grid
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.coeffs.shape != (self.grid.n_points,):
            raise ShapeError(
                f"coefficient array of shape {self.coeffs.shape} does not match "
                f"grid with {self.grid.n_points} points")


def half_transform(grid: Grid, samples: np.ndarray, modes: int | None = None) -> np.ndarray:
    """Real samples -> half spectrum: coefficients of modes k = 0 ... n/2 in
    real-FFT order, the Nyquist mode last, continuous normalization.

    A real field is Hermitian, so these n/2 + 1 coefficients determine it;
    ``full_spectrum`` mirrors them into the ascending layout.  ``modes``
    keeps only the first ``modes`` coefficients, k = 0 ... modes - 1.
    """
    return np.fft.rfft(samples)[:modes] * (grid.dx / _SQRT_2PI)


def half_inverse_transform(grid: Grid, half: np.ndarray) -> np.ndarray:
    """Half spectrum -> real samples.  The imaginary parts of the zero and
    Nyquist modes are ignored, as the real inverse FFT does."""
    return np.fft.irfft(half * (_SQRT_2PI / grid.dx), grid.n_points)


def half_sup_bound(grid: Grid, magnitudes: np.ndarray) -> float:
    """Upper bound on max|half_inverse_transform(grid, half)| from the
    magnitudes |half| alone: (sqrt(2 pi)/L) (|c_0| + 2 sum |c_k| + |c_(n/2)|),
    the triangle inequality on the synthesis, with no transform."""
    l1 = 2.0 * float(np.sum(magnitudes)) - float(magnitudes[0]) - float(magnitudes[-1])
    return _SQRT_2PI / grid.box_length * l1


def half_spectrum(fld: SpectralField) -> np.ndarray:
    """Half spectrum of the Hermitian part (c(xi) + conj c(-xi))/2 of the
    coefficients, with the real parts of the zero and Nyquist modes: the
    real field that ``inverse_transform`` synthesises.  For a Hermitian
    field it is the non-negative half exactly."""
    c = fld.coeffs
    n = fld.grid.n_points
    half = np.empty(n // 2 + 1, dtype=complex)
    half[0] = c[n // 2].real
    np.add(c[n // 2 + 1:], np.conjugate(c[n // 2 - 1:0:-1]), out=half[1:n // 2])
    half[1:n // 2] *= 0.5
    half[n // 2] = c[0].real                     # Nyquist
    return half


def full_spectrum(grid: Grid, half: np.ndarray) -> SpectralField:
    """Ascending full spectrum of a half spectrum: the negative modes are the
    conjugate mirror of the positive ones, the Nyquist mode sits at the left
    end."""
    n = grid.n_points
    coeffs = np.empty(n, dtype=complex)
    coeffs[n // 2:] = half[:-1]
    coeffs[0] = half[-1]
    np.conjugate(coeffs[:n // 2:-1], out=coeffs[1:n // 2])
    return SpectralField(grid, coeffs)


def half_table(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Entries k = 0 ... n/2 - 1 of an ascending full-grid table in the half
    spectrum layout, with 0 in the Nyquist slot."""
    return np.append(values[grid.n_points // 2:], 0.0)


def transform(grid: Grid, samples: np.ndarray) -> SpectralField:
    """Real physical samples -> spectral coefficients (ascending wavenumber
    order).

    The samples go through ``half_transform``; the negative half is the
    conjugate mirror of the non-negative one, so the result is exactly
    Hermitian.  Complex samples are refused: every field here is real.
    """
    samples = np.asarray(samples)
    n = grid.n_points
    if samples.shape != (n,):
        raise ShapeError(
            f"sample array of shape {samples.shape} does not match grid "
            f"with {n} points")
    if not np.isrealobj(samples):
        raise TypeError(f"transform takes real samples, got dtype {samples.dtype}")
    return full_spectrum(grid, half_transform(grid, samples))


def inverse_transform(fld: SpectralField) -> np.ndarray:
    """Spectral coefficients -> real physical samples: the real part of the
    synthesis, computed by ``half_inverse_transform`` of the Hermitian part
    (``half_spectrum``) of the coefficients.  For a Hermitian field that
    drops only the imaginary round-off.
    """
    return half_inverse_transform(fld.grid, half_spectrum(fld))


def hermitian_defect(fld: SpectralField) -> float:
    """Max deviation from coeff(-xi) == conj(coeff(xi)), Nyquist ignored."""
    c = fld.coeffs
    tail = c[1:]
    return float(np.max(np.abs(tail - np.conj(tail[::-1]))))


def hermitize(fld: SpectralField) -> SpectralField:
    """Project onto the Hermitian-symmetric subspace; zero the Nyquist mode."""
    c = fld.coeffs.copy()
    c[0] = 0.0
    c[1:] = 0.5 * (c[1:] + np.conj(c[1:][::-1]))
    return SpectralField(fld.grid, c)


@dataclass(frozen=True)
class MultiplierSymbol:
    """A Fourier multiplier m(xi), evaluated pointwise on wavenumber arrays."""

    evaluate: Callable[[np.ndarray], np.ndarray]

    def on_grid(self, grid: Grid) -> np.ndarray:
        values = np.asarray(self.evaluate(grid.wavenumbers), dtype=complex)
        values = values.copy()
        values[0] = 0.0  # Nyquist: odd symbols are ill-defined there
        return values


def apply_multiplier(fld: SpectralField, symbol: MultiplierSymbol) -> SpectralField:
    return SpectralField(fld.grid, fld.coeffs * symbol.on_grid(fld.grid))


def derivative_symbol() -> MultiplierSymbol:
    return MultiplierSymbol(lambda xi: 1j * xi)


def fractional_dispersion_symbol(alpha: float) -> MultiplierSymbol:
    """Symbol i*sign(xi)*|xi|^(1+alpha) of the operator |D|^alpha d/dx, for
    -1 < alpha < 0 (weak dispersion)."""
    if not (-1.0 < alpha < 0.0):
        raise ConfigurationError(f"alpha must lie in (-1.0, 0.0), got {alpha}")

    def evaluate(xi):
        xi = np.asarray(xi, dtype=float)
        return 1j * np.sign(xi) * np.abs(xi) ** (1.0 + alpha)

    return MultiplierSymbol(evaluate)


def whitham_scalar_symbol(epsilon: float | None = None) -> MultiplierSymbol:
    """Scalar symbol l(sqrt(eps)*xi) = (tanh(sqrt(eps)|xi|)/(sqrt(eps)|xi|))^(1/2).

    ``epsilon=None`` gives the unscaled operator (eps = 1).  The value at
    xi = 0 is the limit 1.  The full linear-part symbol used by steppers is
    -i*xi*l(sqrt(eps)*xi).
    """
    eps = 1.0 if epsilon is None else float(epsilon)
    if eps <= 0:
        raise ConfigurationError(f"epsilon must be positive, got {eps}")
    root_eps = np.sqrt(eps)

    def evaluate(xi):
        z = root_eps * np.abs(np.asarray(xi, dtype=float))
        small = z < 1e-8
        zsafe = np.where(small, 1.0, z)
        ratio = np.where(small, 1.0 - z * z / 3.0, np.tanh(zsafe) / zsafe)
        return np.sqrt(ratio).astype(complex)

    return MultiplierSymbol(evaluate)


# ---------------------------------------------------------------------------
# Dyadic (Littlewood-Paley style) frequency cutoffs
# ---------------------------------------------------------------------------

def _smooth_step(x: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for x <= 0, 1 for x >= 1, exp(-1/x)-mollified between."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    out[x <= 0.0] = 0.0
    out[x >= 1.0] = 1.0
    mid = (x > 0.0) & (x < 1.0)
    xm = x[mid]
    a = np.exp(-1.0 / xm)
    b = np.exp(-1.0 / (1.0 - xm))
    out[mid] = a / (a + b)
    return out


class DyadicCutoffs:
    """Smooth dyadic partition of frequency space.

    ``phi`` equals 1 on |xi| <= 1 and 0 on |xi| >= 2 (exp-based mollified
    step); ``psi = phi - phi(2 .)`` is the unit band bump, with rescalings
    psi_j(xi) = psi(xi / 2^j), phi_j(xi) = phi(xi / 2^j).  Telescoping gives
    the exact partition phi + sum_{j>=1} psi_j = 1.
    """

    description = "exp(-1/x)-mollified step, transition on 1<|xi|<2"

    def phi(self, xi) -> np.ndarray:
        return _smooth_step(2.0 - np.abs(np.asarray(xi, dtype=float)))

    def psi(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        return self.phi(xi) - self.phi(2.0 * xi)

    def phi_j(self, xi, j: int) -> np.ndarray:
        return self.phi(np.asarray(xi, dtype=float) / 2.0 ** j)

    def psi_j(self, xi, j: int) -> np.ndarray:
        return self.psi(np.asarray(xi, dtype=float) / 2.0 ** j)


CUTOFFS = DyadicCutoffs()


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

def norm_l2(fld: SpectralField) -> float:
    u = inverse_transform(fld)
    return float(np.sqrt(np.sum(u * u) * fld.grid.dx))


def norm_linf(fld: SpectralField) -> float:
    u = inverse_transform(fld)
    return float(np.max(np.abs(u)))


def norm_sobolev(fld: SpectralField, s: float) -> float:
    xi = fld.grid.wavenumbers
    weights = (1.0 + xi * xi) ** s
    return float(np.sqrt(np.sum(weights * np.abs(fld.coeffs) ** 2) * fld.grid.dxi))


def norm_z(fld: SpectralField, weight: float = 10.0) -> float:
    """Weighted sup norm max (1+|xi|)^weight |coeff(xi)|.

    Coefficients below ``NOISE_FLOOR`` times the spectral peak count as
    zero: they are transform round-off, and the high-frequency weight would
    otherwise amplify round-off into the reported norm.
    """
    xi = fld.grid.wavenumbers
    mag = np.abs(fld.coeffs)
    peak = float(np.max(mag))
    if peak > 0.0:
        mag = np.where(mag >= NOISE_FLOOR * peak, mag, 0.0)
    return float(np.max((1.0 + np.abs(xi)) ** weight * mag))


def boundary_mass_fraction(fld: SpectralField) -> float:
    """Share of int u^2 dx carried by the outer 10% of the box."""
    u = inverse_transform(fld)
    x = fld.grid.x
    L = fld.grid.box_length
    outer = (x < 0.05 * L) | (x >= 0.95 * L)
    total = float(np.sum(u * u))
    if total == 0.0:
        return 0.0
    return float(np.sum(u[outer] ** 2) / total)


def norm_h11(fld: SpectralField) -> float:
    """H^{1,1} norm: H^1 norm of <x - x_center> * u.

    Meaningful only for fields localized away from the box boundary, that is
    with ``boundary_mass_fraction`` at most ``BOUNDARY_MASS_THRESHOLD``; the
    callers check that themselves.
    """
    u = inverse_transform(fld)
    xc = fld.grid.x - fld.grid.x_center
    weighted = np.sqrt(1.0 + xc * xc) * u
    return norm_sobolev(transform(fld.grid, weighted), 1.0)


def mean_integral(fld: SpectralField) -> float:
    """int u dx over the box (the zero-mode coefficient times sqrt(2*pi))."""
    n = fld.grid.n_points
    return float((_SQRT_2PI * fld.coeffs[n // 2]).real)


# ---------------------------------------------------------------------------
# Dealiasing
# ---------------------------------------------------------------------------

def regrid(fld: SpectralField, new_grid: Grid) -> SpectralField:
    """Move a field to a finer or coarser grid on the same box by spectral
    zero-padding or truncation (exact for band-limited content)."""
    if abs(new_grid.box_length - fld.grid.box_length) > 1e-12 * fld.grid.box_length:
        raise GridMismatchError("regrid requires the same box length")
    n_old, n_new = fld.grid.n_points, new_grid.n_points
    c = np.zeros(n_new, dtype=complex)
    m = min(n_old, n_new)
    c[n_new // 2 - m // 2: n_new // 2 + m // 2] = \
        fld.coeffs[n_old // 2 - m // 2: n_old // 2 + m // 2]
    return SpectralField(new_grid, c)


def dealias_keep(n_points: int, degree: int) -> int:
    """Largest retained |mode index| for alias-free products of this degree."""
    if degree == 2:
        return n_points // 3
    if degree == 3:
        return n_points // 4
    raise ConfigurationError(f"dealias degree must be 2 or 3, got {degree}")


def dealias_mask(grid: Grid, degree: int) -> np.ndarray:
    keep = dealias_keep(grid.n_points, degree)
    return (np.abs(grid.mode_index) <= keep).astype(float)


def dealias(fld: SpectralField, degree: int) -> SpectralField:
    """Zero high modes so grid pointwise products of this degree are alias-free.

    Two-thirds rule for quadratic products, one-half rule for cubic ones.
    """
    return SpectralField(fld.grid, fld.coeffs * dealias_mask(fld.grid, degree))
