"""Registry of the simulated equations and the pseudospectral nonlinearity.

Every equation is cubic, u_t = L u + c * u^2 * u_x, with a skew Fourier
multiplier L.  The nonlinear term is always evaluated in conservative
(divergence) form c * d/dx(u^3/3): equal to the pointwise form in exact
arithmetic, but it preserves the discrete mean exactly and pairs
skew-symmetrically against the solution, which keeps the discrete L^2
drift at time-integration level only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError
from .spectral import (Grid, check_alpha, dealias_keep, dispersion, half_table,
                       inverse_transform, transform)


@dataclass(frozen=True)
class EquationSpec:
    """One evolution equation u_t = L u + c u^2 u_x: its kind, the
    coefficient c and the parameter its symbol L reads.  A plain value:
    equal equations compare and hash equal, and share their grid tables.
    The kind must be known and its parameter set; a set alpha or epsilon
    is checked whatever the kind."""

    kind: str
    coefficient: float          # c in  u_t = L u + c u^2 u_x
    alpha: float | None = None
    epsilon: float | None = None

    def __post_init__(self):
        if self.kind not in EQUATION_KINDS:
            raise ConfigurationError(f"kind {self.kind!r}: unknown equation kind; "
                                     f"expected one of {EQUATION_KINDS}")
        if self.kind == "modified_fkdv" and self.alpha is None:
            raise ConfigurationError(f"alpha is required by {self.kind}")
        if self.kind in LONG_WAVE_KINDS and self.epsilon is None:
            raise ConfigurationError(f"epsilon is required by {self.kind}")
        if self.alpha is not None:
            check_alpha(self.alpha)
        if self.epsilon is not None and not 0 < self.epsilon < np.inf:
            raise ConfigurationError(f"epsilon must be positive and finite, got {self.epsilon}")

    @property
    def is_dispersive(self) -> bool:
        return self.kind != "modified_burgers"


#: The rescaled long-wave kinds, whose symbol and coefficient read epsilon.
LONG_WAVE_KINDS = ("rescaled_modified_whitham", "mkdv")

#: The equations the studies build, all of them cubic.
EQUATION_KINDS = ("modified_fkdv", *LONG_WAVE_KINDS, "modified_burgers")


def make_equation(kind: str, alpha: float | None = None,
                  epsilon: float | None = None) -> EquationSpec:
    """Construct a registry equation by name.

    alpha is read by modified_fkdv, epsilon by the rescaled long-wave
    kinds, whose coefficient is -epsilon; the record refuses a missing or
    out-of-range parameter and an unknown kind.
    """
    kind = kind.lower()
    if kind == "modified_fkdv":
        return EquationSpec(kind, -1.0, alpha=alpha)
    if kind in LONG_WAVE_KINDS and epsilon is not None:
        return EquationSpec(kind, -epsilon, epsilon=epsilon)
    return EquationSpec(kind, -1.0)


def linear_symbol(eq: EquationSpec, xi) -> np.ndarray:
    """The symbol L(xi) of the equation's linear part, purely imaginary and
    odd; 0 for the dispersionless kind."""
    xi = np.asarray(xi, dtype=float)
    if eq.kind == "modified_fkdv":
        # |D|^alpha d/dx
        return 1j * dispersion(eq.alpha, xi)
    if eq.kind == "mkdv":
        # Linear part of v_t + v_x + (eps/6) v_xxx = 0.  The third-derivative
        # coefficient eps/6 is the one produced by the long-wave expansion
        # (tanh z / z)^{1/2} = 1 - z^2/6 + O(z^4) of the scaled water-wave
        # symbol, so the comparison with the scaled nonlocal equation closes
        # at second order in eps.
        return -1j * xi + 1j * (eq.epsilon / 6.0) * xi ** 3
    if eq.kind == "rescaled_modified_whitham":
        # -i xi (tanh z / z)^(1/2) with z = sqrt(eps)|xi|; the ratio's value
        # at z = 0 is the limit 1
        z = np.sqrt(eq.epsilon) * np.abs(xi)
        small = z < 1e-8
        zsafe = np.where(small, 1.0, z)
        ratio = np.where(small, 1.0 - z * z / 3.0, np.tanh(zsafe) / zsafe)
        return -1j * xi * np.sqrt(ratio)
    return np.zeros(xi.shape, dtype=complex)


def band_length(grid: Grid) -> int:
    """Modes k = 0 ... m - 1 of the half spectrum that the nonlinearity
    reads and writes: m = dealias_keep(n) + 1."""
    return dealias_keep(grid.n_points) + 1


@dataclass
class GridTables:
    """An equation's tables on one grid's half spectrum, and the workspace
    that its nonlinearity and the IF-RK4 step overwrite on every call: one
    caller at a time per (equation, grid)."""

    linear: np.ndarray          # L, 0 in the Nyquist slot
    multiplier: np.ndarray      # c*i*xi/3 on the kept band k < m
    dispersive: bool            # whether exp(dt*L) moves with dt
    samples: np.ndarray         # n reals: the synthesis of the band
    cube: np.ndarray            # n reals: its cube
    spectrum: np.ndarray        # n/2 + 1 complex: the cube's unscaled FFT
    stages: tuple               # five m complex: a step's k1 ... k4 and stage input
    factors: tuple | None = None    # (dt, step_factors(dt)), latest dt

    def step_factors(self, dt: float) -> tuple:
        """exp(dt*L) and exp(dt*L/2) on the half spectrum, 0 in the Nyquist
        slot so that a step keeps the Nyquist mode zero, then dt*exp(dt*L/2)
        and 2*exp(dt*L/2) on the kept band.  Kept for the most recent dt
        only: dt is constant inside a solver segment but varies freely
        across segments.  Without dispersion the exponentials are 1 for
        every dt, so the first pair is kept and only dt*exp(dt*L/2) follows
        dt."""
        entry = self.factors
        if entry is None or entry[0] != dt:
            m = len(self.multiplier)
            if entry is None or self.dispersive:
                e_full, e_half = np.exp(dt * self.linear), np.exp(0.5 * dt * self.linear)
                e_full[-1] = e_half[-1] = 0.0
                two_e_half = 2.0 * e_half[:m]
            else:
                e_full, e_half, _, two_e_half = entry[1]
            entry = self.factors = (dt, (e_full, e_half, dt * e_half[:m], two_e_half))
        return entry[1]


@lru_cache(maxsize=16)
def grid_tables(eq: EquationSpec, grid: Grid) -> GridTables:
    """The tables of an equation on a grid, kept for the 16 most recent
    (equation, grid) pairs."""
    n, m = grid.n_points, band_length(grid)
    return GridTables(half_table(grid, lambda xi: linear_symbol(eq, xi)),
                      eq.coefficient / 3 * 1j * grid.wavenumbers[:m], eq.is_dispersive,
                      np.empty(n), np.empty(n), np.empty(n // 2 + 1, dtype=complex),
                      tuple(np.empty(m, dtype=complex) for _ in range(5)))


def nonlinearity(eq: EquationSpec, grid: Grid, half: np.ndarray,
                 samples: np.ndarray | None = None, out: np.ndarray | None = None,
                 tables: GridTables | None = None) -> np.ndarray:
    """Spectral right-hand side c * d/dx(u^3/3), alias-free, of a field
    given by its half spectrum.

    Only the kept band k = 0 ... m - 1 (``band_length``, the cubic dealias
    rule) enters and leaves: the synthesis reads ``half[:m]``, zero-padded
    to n by the inverse real FFT, and the result is the band of length m,
    every mode above it being zero.  It is written to ``out`` (m complex)
    when given, and is a new array otherwise.  Retained modes carry the
    exact truncated convolution.  The derivative, coefficient and 1/3 form
    one cached band multiplier.  ``samples``, when given, is that
    synthesis already made and replaces it; ``tables``, when given, is
    ``grid_tables(eq, grid)`` already fetched.  The synthesis, cube and FFT
    run in the grid tables' workspace.
    """
    if tables is None:
        tables = grid_tables(eq, grid)
    m = len(tables.multiplier)
    v = inverse_transform(grid, half[:m], out=tables.samples) if samples is None else samples
    cube = np.multiply(v, v, out=tables.cube)
    np.multiply(cube, v, out=cube)
    return np.multiply(tables.multiplier, transform(grid, cube, m, out=tables.spectrum), out=out)
