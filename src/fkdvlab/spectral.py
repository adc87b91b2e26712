"""Periodic spectral representation and Fourier analysis utilities.

Fields live on a uniform periodic grid of ``n`` points over ``[0, L)``.
Every field here is real, so its spectrum is Hermitian, c(-xi) =
conj c(xi), and is held as its half spectrum: the modes k = 0 ... n/2 in
real-FFT order, the Nyquist mode last, with wavenumbers xi_k = 2*pi*k/L and
the continuous-transform normalization

    coeff(xi_k) = (dx / sqrt(2*pi)) * sum_m u(x_m) exp(-i x_m xi_k).

A sum over the whole spectrum counts each mode 0 < k < n/2 twice, for
itself and its mirror -k, and the zero and Nyquist modes once.  With this
choice ``sum |coeff|^2 * dxi`` over the whole spectrum equals the physical
quadrature of ``int |u|^2 dx`` (Parseval), and the analytic Fourier
formulas for multipliers, profiles and phase corrections transcribe with
no hidden constants.  Synthesis ignores the imaginary parts of the zero
and Nyquist modes, as the real inverse FFT does.  ``whole_spectrum`` is the
one ascending view, k = -n/2 ... n/2 - 1, for sums over every wavenumber.

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

#: Weight of the Z norm max (1+|xi|)^Z_WEIGHT |f_hat(xi)|, the weighted sup
#: norm of the Fourier profile in which modified scattering is measured.
Z_WEIGHT = 10.0


def is_grid_size(n) -> bool:
    """Whether n is a size a grid is built on: an integer power of two >= 8."""
    return isinstance(n, (int, np.integer)) and n >= 8 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, box_length).  A plain value: equal
    grids compare and hash equal, so a grid keys its own tables."""

    n_points: int
    box_length: float

    def __post_init__(self):
        if not is_grid_size(self.n_points):
            raise ConfigurationError(
                f"n_points must be a power of two >= 8, got {self.n_points}")
        if not 0 < self.box_length < np.inf:
            raise ConfigurationError(
                f"box_length must be positive and finite, got {self.box_length}")

    @property
    def dx(self) -> float:
        return self.box_length / self.n_points

    @property
    def dxi(self) -> float:
        """Wavenumber spacing 2*pi/L."""
        return 2.0 * np.pi / self.box_length

    @property
    def mode_index(self) -> np.ndarray:
        """Integer mode indices k = 0 ... n/2 of the half spectrum."""
        return np.arange(self.n_points // 2 + 1)

    @property
    def wavenumbers(self) -> np.ndarray:
        """xi_k = 2*pi*k/L for k = 0 ... n/2; the Nyquist mode last."""
        return self.mode_index * self.dxi

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.n_points) * self.dx

    @property
    def x_center(self) -> float:
        return 0.5 * self.box_length


def make_grid(n_points: int, box_length: float) -> Grid:
    """The grid of n_points over [0, box_length); an integral float size is
    read as its integer, any other non-integer size is refused."""
    return Grid(int(n_points) if float(n_points).is_integer() else n_points,
                float(box_length))


@dataclass(frozen=True)
class SpectralField:
    """Half spectrum of one real field, paired with its grid."""

    grid: Grid
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.coeffs.shape != (self.grid.n_points // 2 + 1,):
            raise ShapeError(
                f"coefficient array of shape {self.coeffs.shape} does not match "
                f"the half spectrum of a grid with {self.grid.n_points} points")

    @classmethod
    def from_samples(cls, grid: Grid, samples) -> "SpectralField":
        """The field of real samples on grid.  Complex samples are refused,
        even with a zero imaginary part: every field here is real."""
        samples = np.asarray(samples)
        if samples.shape != (grid.n_points,):
            raise ShapeError(
                f"sample array of shape {samples.shape} does not match grid "
                f"with {grid.n_points} points")
        if not np.isrealobj(samples):
            raise TypeError(f"a field takes real samples, got dtype {samples.dtype}")
        return cls(grid, transform(grid, samples))


def transform(grid: Grid, samples: np.ndarray, modes: int | None = None,
              out: np.ndarray | None = None) -> np.ndarray:
    """Real samples -> half spectrum.  ``modes`` keeps only the first
    ``modes`` coefficients, k = 0 ... modes - 1.  ``out``, of n/2 + 1
    complex, receives the unscaled FFT; the result is always a new array.
    Unchecked: the step kernel calls it; ``SpectralField.from_samples``
    checks its samples."""
    return np.fft.rfft(samples, out=out)[:modes] * (grid.dx / _SQRT_2PI)


def inverse_transform(grid: Grid, half: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Half spectrum -> real samples, written to ``out`` (n floats) when it
    is given.  A shorter ``half`` is zero-padded to n/2 + 1 modes; the
    imaginary parts of the zero and Nyquist modes are ignored."""
    return np.fft.irfft(half * (_SQRT_2PI / grid.dx), grid.n_points, out=out)


def whole_wavenumbers(grid: Grid) -> np.ndarray:
    """xi_k = 2*pi*k/L for k = -n/2 ... n/2 - 1, the ascending order of
    ``whole_spectrum``."""
    n = grid.n_points
    return np.arange(-(n // 2), n // 2) * grid.dxi


def whole_spectrum(half: np.ndarray) -> np.ndarray:
    """The ascending whole spectrum, modes k = -n/2 ... n/2 - 1, of the half
    spectra on the last axis: mode -k is the conjugate of mode k, the
    Nyquist mode -n/2 included, so a complex top mode is mirrored too."""
    return np.concatenate([np.conjugate(half[..., :0:-1]), half[..., :-1]], axis=-1)


def hermitian_defect(fld: SpectralField) -> float:
    """Max deviation from coeff(-xi) == conj(coeff(xi)), Nyquist ignored:
    the negative modes are the mirror by construction, so only the zero
    mode, its own mirror, can deviate."""
    return 2.0 * abs(float(fld.coeffs[0].imag))


def hermitize(fld: SpectralField) -> SpectralField:
    """Project onto the Hermitian fields: a real zero mode, a zero Nyquist
    mode."""
    c = fld.coeffs.copy()
    c[0] = c[0].real
    c[-1] = 0.0
    return SpectralField(fld.grid, c)


def half_table(grid: Grid, symbol: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """The multiplier symbol(xi) on the grid's half spectrum, with 0 in the
    Nyquist slot: odd symbols are ill-defined there."""
    table = np.array(symbol(grid.wavenumbers), dtype=complex)
    table[-1] = 0.0
    return table


def check_alpha(alpha: float) -> None:
    """Refuse alpha outside (-1, 0), the weak dispersion the paper treats."""
    if not -1.0 < alpha < 0.0:
        raise ConfigurationError(f"alpha must lie in (-1.0, 0.0), got {alpha}")


def dispersion(alpha: float, xi) -> np.ndarray:
    """a(xi) = sign(xi) |xi|^(1+alpha), the real odd dispersion relation of
    the fractional equation; its linear symbol is i*a(xi)."""
    xi = np.asarray(xi, dtype=float)
    return np.sign(xi) * np.abs(xi) ** (1.0 + alpha)


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
    psi_j(xi) = psi(xi / 2^j).  Telescoping gives the exact partition
    phi + sum_{j>=1} psi_j = 1.
    """

    description = "exp(-1/x)-mollified step, transition on 1<|xi|<2"

    def phi(self, xi) -> np.ndarray:
        return _smooth_step(2.0 - np.abs(np.asarray(xi, dtype=float)))

    def psi(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        return self.phi(xi) - self.phi(2.0 * xi)

    def psi_j(self, xi, j: int) -> np.ndarray:
        return self.psi(np.asarray(xi, dtype=float) / 2.0 ** j)


CUTOFFS = DyadicCutoffs()


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

def norm_l2(fld: SpectralField) -> float:
    u = inverse_transform(fld.grid, fld.coeffs)
    return float(np.sqrt(np.sum(u * u) * fld.grid.dx))


def max_abs(x: np.ndarray) -> float:
    """max|x| of a real array, exact, read from its largest and smallest
    entries with no |x| temporary; NaN when x holds a NaN."""
    return abs(max(float(x.max()), -float(x.min())))


def norm_linf(fld: SpectralField) -> float:
    return max_abs(inverse_transform(fld.grid, fld.coeffs))


def norm_sobolev(fld: SpectralField, s: float) -> float:
    xi = fld.grid.wavenumbers
    density = (1.0 + xi * xi) ** s * np.abs(fld.coeffs) ** 2
    # the modes 0 < k < n/2 stand for +-k
    total = density[0] + 2.0 * np.sum(density[1:-1]) + density[-1]
    return float(np.sqrt(total * fld.grid.dxi))


def z_weight(grid: Grid) -> np.ndarray:
    """The Z-norm weight (1+|xi|)^Z_WEIGHT on the half spectrum; it is even,
    so a max over the half spectrum is the max over the whole."""
    return (1.0 + np.abs(grid.wavenumbers)) ** Z_WEIGHT


def z_sup(grid: Grid, magnitudes: np.ndarray, scale: float) -> float:
    """max z_weight * magnitudes over the half spectrum.

    Magnitudes below ``NOISE_FLOOR`` times ``scale`` (a spectral peak) count
    as zero: they are transform round-off, and the high-frequency weight
    would otherwise amplify round-off into the reported value.
    """
    if scale > 0.0:
        magnitudes = np.where(magnitudes >= NOISE_FLOOR * scale, magnitudes, 0.0)
    return float(np.max(z_weight(grid) * magnitudes))


def norm_z(fld: SpectralField) -> float:
    """The Z norm max (1+|xi|)^Z_WEIGHT |coeff(xi)|, floored at the field's
    own spectral peak."""
    mag = np.abs(fld.coeffs)
    return z_sup(fld.grid, mag, float(np.max(mag)))


def boundary_mass_fraction(fld: SpectralField) -> float:
    """Share of int u^2 dx carried by the outer 10% of the box."""
    u = inverse_transform(fld.grid, fld.coeffs)
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
    grid = fld.grid
    xc = grid.x - grid.x_center
    weighted = np.sqrt(1.0 + xc * xc) * inverse_transform(grid, fld.coeffs)
    return norm_sobolev(SpectralField.from_samples(grid, weighted), 1.0)


def mean_integral(fld: SpectralField) -> float:
    """int u dx over the box (the zero-mode coefficient times sqrt(2*pi))."""
    return float((_SQRT_2PI * fld.coeffs[0]).real)


# ---------------------------------------------------------------------------
# Dealiasing
# ---------------------------------------------------------------------------

def regrid(fld: SpectralField, new_grid: Grid) -> SpectralField:
    """Move a field to a finer or coarser grid on the same box by spectral
    zero-padding or truncation (exact for band-limited content).

    The coarser grid's Nyquist mode -m stands alone; on the finer grid it is
    the pair +-m, each with half its coefficient, so that both grids
    synthesise the same function.
    """
    if abs(new_grid.box_length - fld.grid.box_length) > 1e-12 * fld.grid.box_length:
        raise GridMismatchError("regrid requires the same box length")
    m = min(fld.grid.n_points, new_grid.n_points) // 2
    c = np.zeros(new_grid.n_points // 2 + 1, dtype=complex)
    c[:m + 1] = fld.coeffs[:m + 1]
    if new_grid.n_points > fld.grid.n_points:
        c[m] = 0.5 * c[m].real
    return SpectralField(new_grid, c)


def dealias_keep(n_points: int) -> int:
    """Largest retained mode index for alias-free cubic products."""
    return n_points // 4


def dealias_mask(grid: Grid) -> np.ndarray:
    return (grid.mode_index <= dealias_keep(grid.n_points)).astype(float)


def dealias(fld: SpectralField) -> SpectralField:
    """Zero high modes so grid pointwise cubic products are alias-free
    (one-half rule)."""
    return SpectralField(fld.grid, fld.coeffs * dealias_mask(fld.grid))
