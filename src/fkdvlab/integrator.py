"""Time integration: integrating-factor RK4 with exact linear propagation.

The linear symbol of every registry equation is purely imaginary, so its
stiffness is oscillatory rather than dissipative; conjugating by the exact
multiplier exponential removes it entirely and classical RK4 handles the
slow nonlinear dynamics.  The solver steps the half spectrum c of the
field (``spectral``); a zero-nonlinearity step is exactly
c(t+dt) = exp(dt*L) c(t), unitary to round-off.

Blow-up is a first-class halt reason (the shock study consumes it): a step
that produces non-finite values is rejected and the last finite state is
preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .equations import EquationSpec, band_length, linear_exponentials, nonlinearity
from .errors import ConfigurationError
from .spectral import _SQRT_2PI, Grid, SpectralField, hermitize, inverse_transform

#: Guard against division by zero in the CFL rule for the zero field.
CFL_FLOOR = 1e-12

#: Overflow guard: amplitudes beyond this are treated as blow-up even
#: before they reach inf.
BLOWUP_AMPLITUDE = 1e12

#: Ratio of the geometric snapshot schedule; eight nodes per octave keeps the
#: log-time quadrature of the phase correction second-order accurate.
SNAPSHOT_RATIO = 2.0 ** 0.125


@dataclass(frozen=True)
class SolverConfig:
    dt_max: float = 0.1
    cfl_coefficient: float = 0.5
    t_end: float = 1.0
    snapshot_times: tuple = ()

    def __post_init__(self):
        if not (0 < self.dt_max < np.inf):
            raise ConfigurationError(f"dt_max must be positive and finite, got {self.dt_max}")
        if not (0.0 < self.cfl_coefficient <= 1.0):
            raise ConfigurationError(
                f"cfl_coefficient must lie in (0, 1], got {self.cfl_coefficient}")
        if not (0 <= self.t_end < np.inf):
            raise ConfigurationError(
                f"t_end must be nonnegative and finite, got {self.t_end}")
        times = tuple(float(t) for t in self.snapshot_times)
        if not all(0 <= t <= self.t_end + 1e-12 for t in times):
            raise ConfigurationError("snapshot times must lie within [0, t_end]")
        if list(times) != sorted(times):
            raise ConfigurationError("snapshot times must be sorted")
        object.__setattr__(self, "snapshot_times", times)


class SolverState:
    """Time and field of the solver, the field held as its half spectrum."""

    def __init__(self, t: float, grid: Grid, half: np.ndarray):
        self.t, self.grid, self.half = t, grid, half

    @cached_property
    def field(self) -> SpectralField:
        return SpectralField(self.grid, self.half)

    @cached_property
    def abs_half(self) -> np.ndarray:
        """|c| of the half spectrum, shared by the halt check and the CFL
        speed."""
        return np.abs(self.half)

    @cached_property
    def band_samples(self) -> np.ndarray:
        """Grid samples of the kept band ``half[:m]`` (``band_length``): the
        synthesis that the CFL speed and the first RK4 stage read."""
        return inverse_transform(self.grid, self.half[:band_length(self.grid)])


@dataclass(frozen=True)
class HaltReason:
    kind: str          # "completed" | "blowup" | "nan"
    t: float

    @property
    def completed(self) -> bool:
        return self.kind == "completed"


def geometric_snapshots(t_end: float) -> tuple:
    """SNAPSHOT_RATIO^j (j >= 0) up to t_end, plus the endpoints 0 and t_end."""
    times = [0.0] if t_end > 0 else []
    t = 1.0
    while t < t_end * (1.0 - 1e-12):
        times.append(t)
        t *= SNAPSHOT_RATIO
    times.append(t_end)
    return tuple(sorted(set(times)))


def cfl_dt(state: SolverState, config: SolverConfig) -> float:
    """dt = min(dt_max, cfl * dx / max(floor, U^2)).

    The exactly-propagated linear part contributes no restriction; only the
    transport speed |u|^2 of the cubic term does.  U bounds max|u|:

        U = max|band_samples| + (sqrt(2 pi)/L) (2 sum_{k>=m} |c_k| - |c_(n/2)|),

    the band's synthesis, which the step's first stage reads too, plus the
    l1 norm of the modes above the band.  With nothing above the band U is
    max|u| bit for bit, the inverse FFT zero-padding a short spectrum.  An
    overflowing U^2 gives dt = 0, which run_simulation halts as blowup; a
    NaN U gives dt_max.
    """
    grid = state.grid
    tail = state.abs_half[band_length(grid):]
    above = 2.0 * float(np.sum(tail)) - float(tail[-1])
    bound = float(np.max(np.abs(state.band_samples))) + _SQRT_2PI / grid.box_length * above
    try:
        speed = bound ** 2
    except OverflowError:
        speed = np.inf                  # dt = 0: run_simulation halts as blowup
    return min(config.dt_max, config.cfl_coefficient * grid.dx / max(CFL_FLOOR, speed))


def step_ifrk4(state: SolverState, dt: float, eq: EquationSpec) -> SolverState:
    """One integrating-factor RK4 step of u_t = L u + N(u).

    Stage values live in the original (unconjugated) spectral variable; the
    conjugation enters only through the exact exponentials exp(theta*dt*L).
    The nonlinearity reads and writes only the kept band k < m
    (``equations.band_length``), so the four stages run on that band;
    above it every stage term is zero and the new state is exp(dt*L) v
    exactly.  The exponentials' zero Nyquist slot keeps the Nyquist mode
    zero.  The first stage reads the state's cached ``band_samples``.
    """
    if dt == 0.0:
        return state
    grid = state.grid
    e_full, e_half = linear_exponentials(eq, grid, dt)
    m = band_length(grid)

    new_half = e_full * state.half
    v, ev, e_full, e_half = state.half[:m], new_half[:m], e_full[:m], e_half[:m]
    k1 = nonlinearity(eq, grid, v, samples=state.band_samples)
    k2 = nonlinearity(eq, grid, e_half * (v + 0.5 * dt * k1))
    k3 = nonlinearity(eq, grid, e_half * v + 0.5 * dt * k2)
    k4 = nonlinearity(eq, grid, ev + dt * e_half * k3)

    new_half[:m] = ev + (dt / 6.0) * (
        e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)
    return SolverState(state.t + dt, grid, new_half)


def _state_bad(state: SolverState) -> str | None:
    """Halt reason of a state: "nan", "blowup" or None when it is usable."""
    c = state.half
    m = np.max(state.abs_half)
    if np.isfinite(m) and m <= BLOWUP_AMPLITUDE:
        return None
    # |inf + nan*j| is inf, so a non-finite maximum alone cannot tell the
    # two reasons apart
    return "nan" if np.any(np.isnan(c)) else "blowup"


def _substeps(length: float, allowed: float) -> int | None:
    """Equal substeps of at most ``allowed`` covering ``length``; None if infinite."""
    count = length / allowed if allowed > 0.0 else np.inf
    return max(1, int(np.ceil(count - 1e-12))) if np.isfinite(count) else None


def run_simulation(u0: SpectralField, eq: EquationSpec, config: SolverConfig,
                   observer: Callable[[SolverState], None] | None = None,
                   ) -> tuple[SolverState, HaltReason]:
    """Advance from t=0 to t_end, landing exactly on every snapshot time.

    Each inter-snapshot segment is covered by equal substeps planned from the
    CFL bound (replanned if the bound tightens mid-segment), so the elapsed
    time seen by the exact linear exponentials matches the snapshot label to
    round-off.  The observer is invoked at each scheduled snapshot (including
    t=0 when scheduled).  Returns the final (or last finite) state and a halt
    reason: completed, blowup(t) or nan(t) -- never a silent failure; a
    state whose CFL step is too small to count halts as blowup at its time.
    """
    u0 = hermitize(u0)
    state = SolverState(0.0, u0.grid, u0.coeffs)
    snapshot_set = set(config.snapshot_times)
    events = sorted(snapshot_set | {config.t_end})
    if observer is not None and events and abs(events[0]) < 1e-14:
        observer(state)
    events = [t for t in events if t > 1e-14]

    for target in events:
        seg_start = state.t
        seg_len = target - seg_start
        done = 0
        n_steps = _substeps(seg_len, cfl_dt(state, config))
        if n_steps is None:
            return state, HaltReason("blowup", state.t)
        dt = seg_len / n_steps
        while done < n_steps:
            allowed = cfl_dt(state, config)
            if dt > allowed * (1.0 + 1e-9):
                remaining = seg_len - done * dt
                extra = _substeps(remaining, allowed)
                if extra is None:
                    return state, HaltReason("blowup", state.t)
                seg_start, seg_len, done, n_steps = state.t, remaining, 0, extra
                dt = seg_len / n_steps
            new_state = step_ifrk4(state, dt, eq)
            done += 1
            new_state.t = seg_start + done * dt
            bad = _state_bad(new_state)
            if bad is not None:
                return state, HaltReason(bad, new_state.t)
            state = new_state
        state.t = target
        if observer is not None and target in snapshot_set:
            observer(state)
    return state, HaltReason("completed", state.t)
