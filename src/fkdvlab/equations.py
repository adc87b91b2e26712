"""Registry of the simulated equations and the pseudospectral nonlinearity.

Every equation is written as u_t = L u + c * u^p * u_x with a skew Fourier
multiplier L and p in {1, 2}.  The nonlinear term is always evaluated in
conservative (divergence) form c * d/dx(u^{p+1}/(p+1)): equal to the
pointwise form in exact arithmetic, but it preserves the discrete mean
exactly and pairs skew-symmetrically against the solution, which keeps the
discrete L^2 drift at time-integration level only.
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
    half_inverse_transform,
    half_table,
    half_transform,
    whitham_scalar_symbol,
)


@dataclass
class EquationSpec:
    """One evolution equation: linear symbol plus power-law nonlinearity."""

    name: str
    linear_symbol: MultiplierSymbol
    nonlinearity_degree: int            # p: 1 (quadratic term) or 2 (cubic term)
    nonlinearity_coefficient: float     # c in  u_t = L u + c u^p u_x
    alpha: float | None = None
    epsilon: float | None = None
    _linear_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.nonlinearity_degree not in (1, 2):
            raise ConfigurationError(
                f"nonlinearity degree must be 1 or 2, got {self.nonlinearity_degree}")

    @property
    def dealias_degree(self) -> int:
        """Degree of the pointwise product u^{p+1} entering the nonlinearity."""
        return self.nonlinearity_degree + 1

    @property
    def is_dispersive(self) -> bool:
        return self.linear_symbol is not ZERO_SYMBOL

    def linear_values(self, grid: Grid) -> np.ndarray:
        """Linear symbol evaluated on the grid (cached per grid)."""
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
            lin = half_table(grid, self.linear_values(grid))
            entry = (dt, np.exp(dt * lin), np.exp(0.5 * dt * lin))
            entry[1][-1] = entry[2][-1] = 0.0
            self._linear_cache[key] = entry
        return entry[1], entry[2]

    def band_length(self, grid: Grid) -> int:
        """Modes k = 0 ... m - 1 of the half spectrum that the nonlinearity
        reads and writes: m = dealias_keep(n, p + 1) + 1."""
        return dealias_keep(grid.n_points, self.dealias_degree) + 1

    def nonlinear_multiplier(self, grid: Grid) -> np.ndarray:
        """Output multiplier c*i*xi/(p+1) of the nonlinearity on the kept band
        k = 0 ... m - 1 (cached per grid)."""
        key = ("nonlinear", grid.key())
        multiplier = self._linear_cache.get(key)
        if multiplier is None:
            scale = self.nonlinearity_coefficient / (self.nonlinearity_degree + 1)
            xi = half_table(grid, grid.wavenumbers)[:self.band_length(grid)]
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


#: The registry proper: the equations the studies quantify.
REGISTRY_KINDS = (
    "modified_fkdv",
    "fkdv",
    "modified_whitham",
    "rescaled_modified_whitham",
    "mkdv",
    "modified_burgers",
)

#: Extra constructible kinds kept for contrast runs.
EQUATION_KINDS = REGISTRY_KINDS + ("whitham", "burgers")


def make_equation(kind: str, alpha: float | None = None,
                  epsilon: float | None = None) -> EquationSpec:
    """Construct a registry equation by name.

    alpha is required for the fractional kinds, epsilon for the rescaled
    long-wave kinds.
    """
    kind = kind.lower()
    if kind not in EQUATION_KINDS:
        raise ConfigurationError(
            f"unknown equation kind {kind!r}; expected one of {EQUATION_KINDS}")

    if kind in ("modified_fkdv", "fkdv"):
        if alpha is None:
            raise ConfigurationError(f"{kind} requires parameter alpha")
        symbol = fractional_dispersion_symbol(alpha)
        p = 2 if kind == "modified_fkdv" else 1
        return EquationSpec(kind, symbol, p, -1.0, alpha=alpha)

    if kind in ("modified_whitham", "whitham"):
        scalar = whitham_scalar_symbol(None)

        def evaluate(xi, _scalar=scalar.evaluate):
            xi = np.asarray(xi, dtype=float)
            return -1j * xi * _scalar(xi)

        symbol = MultiplierSymbol(evaluate)
        p = 2 if kind == "modified_whitham" else 1
        return EquationSpec(kind, symbol, p, -1.0)

    if kind == "rescaled_modified_whitham":
        if epsilon is None:
            raise ConfigurationError(f"{kind} requires parameter epsilon")
        if not (epsilon > 0):
            raise ConfigurationError(f"epsilon must be positive, got {epsilon}")
        scalar = whitham_scalar_symbol(epsilon)

        def evaluate(xi, _scalar=scalar.evaluate):
            xi = np.asarray(xi, dtype=float)
            return -1j * xi * _scalar(xi)

        symbol = MultiplierSymbol(evaluate)
        return EquationSpec(kind, symbol, 2, -epsilon, epsilon=epsilon)

    if kind == "mkdv":
        if epsilon is None:
            raise ConfigurationError("mkdv requires parameter epsilon")
        if not (epsilon > 0):
            raise ConfigurationError(f"epsilon must be positive, got {epsilon}")
        return EquationSpec(kind, _mkdv_symbol(epsilon), 2, -epsilon, epsilon=epsilon)

    if kind == "modified_burgers":
        return EquationSpec(kind, ZERO_SYMBOL, 2, -1.0)

    # plain (quadratic) Burgers: dispersionless contrast for the p=1 kinds
    return EquationSpec(kind, ZERO_SYMBOL, 1, -1.0)


def linearized(eq: EquationSpec) -> EquationSpec:
    """Copy of the equation with the nonlinearity switched off."""
    return replace(eq, nonlinearity_coefficient=0.0, _linear_cache={})


def nonlinearity(eq: EquationSpec, grid: Grid, half: np.ndarray) -> np.ndarray:
    """Spectral right-hand side c * d/dx(u^{p+1}/(p+1)), alias-free, of a
    field given by its half spectrum (``spectral.half_spectrum``).

    Only the kept band k = 0 ... m - 1 (``EquationSpec.band_length``, the
    dealias rule for degree p+1) enters and leaves: the synthesis reads
    ``half[:m]``, zero-padded to n by the inverse real FFT, and the result
    is the band of length m, every mode above it being zero.  Retained
    modes carry the exact truncated convolution.  The derivative,
    coefficient and 1/(p+1) form one cached band multiplier.
    """
    multiplier = eq.nonlinear_multiplier(grid)
    m = len(multiplier)
    if eq.nonlinearity_coefficient == 0.0:
        return np.zeros(m, dtype=complex)
    v = half_inverse_transform(grid, half[:m])
    power = v * v if eq.nonlinearity_degree == 1 else v * v * v
    return multiplier * half_transform(grid, power, m)
