"""fkdvlab: pseudospectral lab for weakly dispersive KdV-type equations
with cubic nonlinearity."""

__version__ = "0.1.0"

from .spectral import (  # noqa: F401
    Grid,
    SpectralField,
    MultiplierSymbol,
    DyadicCutoffs,
    make_grid,
    transform,
    inverse_transform,
    hermitize,
    apply_multiplier,
    fractional_dispersion_symbol,
    whitham_scalar_symbol,
    dealias,
)
from .equations import EquationSpec, make_equation, nonlinearity, linearized  # noqa: F401
from .integrator import (  # noqa: F401
    SolverConfig,
    SolverState,
    HaltReason,
    cfl_dt,
    step_ifrk4,
    run_simulation,
    geometric_snapshots,
)
from .diagnostics import (  # noqa: F401
    ProfileSnapshot,
    PhaseAccumulator,
    ScatteringSeries,
    DecaySeries,
    compute_profile,
    accumulate_phase,
    corrected_profile,
    z_distance,
    extract_scattering_limit,
    difference_rate,
    fit_power_law,
)
