"""The ascending whole spectrum, for reference computations in the tests.

The solver, the norms and the diagnostics hold a real field as its half
spectrum, modes k = 0 ... n/2.  The references the tests compare them with
are written on the whole spectrum instead, every mode k = -n/2 ... n/2 - 1
in ascending order with the Nyquist mode first and the same normalization,
so that a pin against them checks the half layout from outside it.
"""

import numpy as np

SQRT_2PI = np.sqrt(2.0 * np.pi)


def xi(grid):
    """Wavenumbers of the ascending spectrum of grid."""
    n = grid.n_points
    return np.arange(-(n // 2), n // 2) * grid.dxi


def mirror(half):
    """The ascending spectrum of a half spectrum: the negative modes the
    conjugates of the positive ones, the Nyquist mode first."""
    return np.concatenate([half[-1:], np.conjugate(half[-2:0:-1]), half[:-1]])


def half_of(c):
    """Half spectrum of the Hermitian part (c(xi) + conj c(-xi))/2 of
    ascending coefficients, with the real parts of the zero and Nyquist
    modes: the real field they synthesise."""
    n = len(c)
    half = np.empty(n // 2 + 1, dtype=complex)
    half[0] = c[n // 2].real
    half[1:n // 2] = 0.5 * (c[n // 2 + 1:] + np.conjugate(c[n // 2 - 1:0:-1]))
    half[n // 2] = c[0].real
    return half


def transform(grid, samples):
    """Ascending spectrum of real samples."""
    return mirror(np.fft.rfft(samples) * (grid.dx / SQRT_2PI))


def inverse_transform(grid, c):
    """Real synthesis of ascending coefficients (of their Hermitian part)."""
    return np.fft.irfft(half_of(c) * (SQRT_2PI / grid.dx), grid.n_points)


def hermitize(c):
    """Projection onto the Hermitian spectra, the Nyquist mode zeroed."""
    c = c.copy()
    c[0] = 0.0
    c[1:] = 0.5 * (c[1:] + np.conj(c[1:][::-1]))
    return c


def hermitian_defect(c):
    """Max deviation from c(-xi) == conj(c(xi)), Nyquist ignored."""
    tail = c[1:]
    return float(np.max(np.abs(tail - np.conj(tail[::-1]))))


def dealias_mask(grid):
    """The cubic one-half rule on the ascending spectrum: |k| <= n/4."""
    n = grid.n_points
    return (np.abs(np.arange(-(n // 2), n // 2)) <= n // 4).astype(float)
