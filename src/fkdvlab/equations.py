"""Registry of the simulated equations and the pseudospectral nonlinearity.

Every equation is cubic, u_t = L u + c * u^2 * u_x, with a skew Fourier
multiplier L.  The nonlinear term is always evaluated in conservative
(divergence) form c * d/dx(u^3/3): equal to the pointwise form in exact
arithmetic, but it preserves the discrete mean exactly and pairs
skew-symmetrically against the solution, which keeps the discrete L^2
drift at time-integration level only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError
from .spectral import (
    Grid,
    MultiplierSymbol,
    dealias_keep,
    fractional_dispersion_symbol,
    inverse_transform,
    transform,
    whitham_scalar_symbol,
)


@dataclass
class EquationSpec:
    """One evolution equation: linear symbol plus cubic nonlinearity."""

    name: str
    linear_symbol: MultiplierSymbol
    nonlinearity_coefficient: float     # c in  u_t = L u + c u^2 u_x
    alpha: float | None = None
    epsilon: float | None = None
    _linear_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def is_dispersive(self) -> bool:
        return self.linear_symbol is not ZERO_SYMBOL

    def linear_values(self, grid: Grid) -> np.ndarray:
        """Linear symbol evaluated on the grid's half spectrum, 0 in the
        Nyquist slot (cached per grid)."""
        key = grid.key()
        vals = self._linear_cache.get(key)
        if vals is None:
            vals = self.linear_symbol.on_grid(grid)
            self._linear_cache[key] = vals
        return vals

    def linear_exponentials(self, grid: Grid, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """exp(dt*L) and exp(dt*L/2) on the half spectrum, 0 in the Nyquist
        slot so that a step keeps the Nyquist mode zero.  Cached for the most
        recent dt only: dt is constant inside a solver segment but varies
        freely across segments.  Without dispersion they are 1 for every dt,
        so the cached entry is kept."""
        key = ("exponentials", grid.key())
        entry = self._linear_cache.get(key)
        if entry is None or (entry[0] != dt and self.is_dispersive):
            lin = self.linear_values(grid)
            entry = (dt, np.exp(dt * lin), np.exp(0.5 * dt * lin))
            entry[1][-1] = entry[2][-1] = 0.0
            self._linear_cache[key] = entry
        return entry[1], entry[2]

    def band_length(self, grid: Grid) -> int:
        """Modes k = 0 ... m - 1 of the half spectrum that the nonlinearity
        reads and writes: m = dealias_keep(n) + 1."""
        return dealias_keep(grid.n_points) + 1

    def nonlinear_multiplier(self, grid: Grid) -> np.ndarray:
        """Output multiplier c*i*xi/3 of the nonlinearity on the kept band
        k = 0 ... m - 1 (cached per grid)."""
        key = ("nonlinear", grid.key())
        multiplier = self._linear_cache.get(key)
        if multiplier is None:
            scale = self.nonlinearity_coefficient / 3
            xi = grid.wavenumbers[:self.band_length(grid)]
            multiplier = scale * 1j * xi
            self._linear_cache[key] = multiplier
        return multiplier


ZERO_SYMBOL = MultiplierSymbol(lambda xi: np.zeros_like(np.asarray(xi, dtype=complex)))


def _mkdv_symbol(epsilon: float) -> MultiplierSymbol:
    # Linear part of v_t + v_x + (eps/6) v_xxx = 0.  The third-derivative
    # coefficient eps/6 is the one produced by the long-wave expansion
    # (tanh z / z)^{1/2} = 1 - z^2/6 + O(z^4) of the scaled water-wave
    # symbol, so the comparison with the scaled nonlocal equation closes at
    # second order in eps.
    def evaluate(xi):
        xi = np.asarray(xi, dtype=float)
        return -1j * xi + 1j * (epsilon / 6.0) * xi ** 3

    return MultiplierSymbol(evaluate)


#: The equations the studies build, all of them cubic.
EQUATION_KINDS = (
    "modified_fkdv",
    "rescaled_modified_whitham",
    "mkdv",
    "modified_burgers",
)


def make_equation(kind: str, alpha: float | None = None,
                  epsilon: float | None = None) -> EquationSpec:
    """Construct a registry equation by name.

    alpha is required for modified_fkdv, epsilon for the rescaled long-wave
    kinds.
    """
    kind = kind.lower()
    if kind not in EQUATION_KINDS:
        raise ConfigurationError(
            f"unknown equation kind {kind!r}; expected one of {EQUATION_KINDS}")

    if kind == "modified_fkdv":
        if alpha is None:
            raise ConfigurationError(f"{kind} requires parameter alpha")
        return EquationSpec(kind, fractional_dispersion_symbol(alpha), -1.0, alpha=alpha)

    if kind == "modified_burgers":
        return EquationSpec(kind, ZERO_SYMBOL, -1.0)

    if epsilon is None:
        raise ConfigurationError(f"{kind} requires parameter epsilon")
    if not (0 < epsilon < np.inf):
        raise ConfigurationError(f"epsilon must be positive and finite, got {epsilon}")
    if kind == "mkdv":
        return EquationSpec(kind, _mkdv_symbol(epsilon), -epsilon, epsilon=epsilon)

    scalar = whitham_scalar_symbol(epsilon)

    def evaluate(xi, _scalar=scalar.evaluate):
        xi = np.asarray(xi, dtype=float)
        return -1j * xi * _scalar(xi)

    return EquationSpec(kind, MultiplierSymbol(evaluate), -epsilon, epsilon=epsilon)


def linearized(eq: EquationSpec) -> EquationSpec:
    """Copy of the equation with the nonlinearity switched off."""
    return replace(eq, nonlinearity_coefficient=0.0, _linear_cache={})


def nonlinearity(eq: EquationSpec, grid: Grid, half: np.ndarray) -> np.ndarray:
    """Spectral right-hand side c * d/dx(u^3/3), alias-free, of a field
    given by its half spectrum.

    Only the kept band k = 0 ... m - 1 (``EquationSpec.band_length``, the
    cubic dealias rule) enters and leaves: the synthesis reads
    ``half[:m]``, zero-padded to n by the inverse real FFT, and the result
    is the band of length m, every mode above it being zero.  Retained
    modes carry the exact truncated convolution.  The derivative,
    coefficient and 1/3 form one cached band multiplier.
    """
    multiplier = eq.nonlinear_multiplier(grid)
    m = len(multiplier)
    if eq.nonlinearity_coefficient == 0.0:
        return np.zeros(m, dtype=complex)
    v = inverse_transform(grid, half[:m])
    return multiplier * transform(grid, v * v * v, m)
