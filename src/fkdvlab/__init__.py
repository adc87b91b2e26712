"""fkdvlab: pseudospectral lab for weakly dispersive KdV-type equations
with cubic nonlinearity."""

__version__ = "0.1.0"

from .spectral import (  # noqa: F401
    Grid,
    SpectralField,
    DyadicCutoffs,
    make_grid,
    transform,
    inverse_transform,
    hermitize,
    dispersion,
    dealias,
)
from .equations import EquationSpec, make_equation, nonlinearity  # noqa: F401
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
    PhaseAccumulator,
    compute_profile,
    z_distance,
    difference_rate,
    fit_power_law,
)
