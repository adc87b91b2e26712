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

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .equations import EquationSpec, band_length, grid_tables, nonlinearity
from .errors import ConfigurationError
from .spectral import _SQRT_2PI, Grid, SpectralField, band_synthesis, hermitize, max_abs

#: Guard against division by zero in the CFL rule for the zero field.
CFL_FLOOR = 1e-12

#: Fraction of the transport-speed step dx / U^2 that ``cfl_dt`` allows.
CFL_COEFFICIENT = 0.5

#: Overflow guard: amplitudes beyond this are treated as blow-up even
#: before they reach inf.
BLOWUP_AMPLITUDE = 1e12

#: Ratio of the geometric snapshot schedule; eight nodes per octave keeps the
#: log-time quadrature of the phase correction second-order accurate.
SNAPSHOT_RATIO = 2.0 ** 0.125


@dataclass(frozen=True)
class SolverConfig:
    dt_max: float = 0.1
    t_end: float = 1.0
    snapshot_times: tuple = ()

    def __post_init__(self):
        if not (0 < self.dt_max < np.inf):
            raise ConfigurationError(f"dt_max must be positive and finite, got {self.dt_max}")
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
    """Time and field of the solver, the field held as its half spectrum.
    What the solver reads of a state more than once is filled in on first
    use and kept: the field record, |c|, the band synthesis and the CFL
    speed."""

    __slots__ = ("t", "grid", "half", "_field", "_abs_half", "_band_samples", "cfl_speed")

    def __init__(self, t: float, grid: Grid, half: np.ndarray):
        self.t, self.grid, self.half = t, grid, half
        self._field = self._abs_half = self._band_samples = None
        #: U^2 of ``cfl_dt``, None until it first reads this state
        self.cfl_speed: float | None = None

    @property
    def field(self) -> SpectralField:
        if self._field is None:
            self._field = SpectralField(self.grid, self.half)
        return self._field

    @property
    def abs_half(self) -> np.ndarray:
        """|c| of the half spectrum, shared by the halt check and the CFL
        speed."""
        if self._abs_half is None:
            self._abs_half = np.abs(self.half)
        return self._abs_half

    @property
    def band_samples(self) -> np.ndarray:
        """Grid samples of the kept band ``half[:m]`` (``band_length``) in
        the two-phase layout (``spectral.band_synthesis``), even samples then
        odd: the synthesis that the CFL speed and the first RK4 stage read."""
        if self._band_samples is None:
            self._band_samples = band_synthesis(self.grid, self.half[:band_length(self.grid)])
        return self._band_samples


@dataclass(frozen=True)
class HaltReason:
    kind: str          # "completed" | "blowup" | "nan"
    t: float

    @property
    def completed(self) -> bool:
        return self.kind == "completed"


def uniform_snapshots(t_end: float, dt: float) -> tuple:
    """0, dt, 2 dt, ... up to t_end (a round-off of t_end included)."""
    return tuple(np.arange(0.0, t_end + 1e-9, dt).tolist())


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
    """dt = min(dt_max, CFL_COEFFICIENT * dx / max(CFL_FLOOR, U^2)).

    The exactly-propagated linear part contributes no restriction; only the
    transport speed |u|^2 of the cubic term does.  U bounds max|u|:

        U = max|band_samples| + (sqrt(2 pi)/L) (2 sum_{k>=m} |c_k| - |c_(n/2)|),

    the band's two-phase synthesis, which the step's first stage reads too,
    plus the l1 norm of the modes above the band.  With nothing above the
    band U is max|u| to the synthesis's round-off: the two half-length
    inverse FFTs give the samples of the length-n one, not its bits.  An
    overflowing U^2 gives dt = 0, which run_simulation halts as blowup; a
    NaN U gives dt_max.  U^2 is kept on the state as its ``cfl_speed``:
    planning a segment and its first step read one state.
    """
    grid = state.grid
    speed = state.cfl_speed
    if speed is None:
        tail = state.abs_half[band_length(grid):]
        above = 2.0 * float(tail.sum()) - float(tail[-1])
        bound = max_abs(state.band_samples) + float(_SQRT_2PI) / grid.box_length * above
        try:
            speed = bound ** 2
        except OverflowError:
            speed = math.inf            # dt = 0: run_simulation halts as blowup
        state.cfl_speed = speed
    return min(config.dt_max, CFL_COEFFICIENT * grid.dx / max(CFL_FLOOR, speed))


def step_ifrk4(state: SolverState, dt: float, eq: EquationSpec) -> SolverState:
    """One integrating-factor RK4 step of u_t = L u + N(u).

    Stage values live in the original (unconjugated) spectral variable; the
    conjugation enters only through the exact exponentials exp(theta*dt*L).
    The nonlinearity reads and writes only the kept band k < m
    (``equations.band_length``), so the four stages run on that band;
    above it every stage term is zero and the new state is exp(dt*L) v
    exactly.  The exponentials' zero Nyquist slot keeps the Nyquist mode
    zero.  The first stage reads the state's cached ``band_samples``, and
    each stage is one two-row inverse and one two-row forward real FFT of
    length n/2 (``equations.nonlinearity``).

    The stages run in the grid tables' band buffers, in the association
    order of

        k2 = N(e_half (v + (dt/2) k1)),  k3 = N(e_half v + (dt/2) k2),
        k4 = N(e v + (dt e_half) k3),
        e v + (dt/6) ((e k1 + (2 e_half)(k2 + k3)) + k4),

    with dt*e_half and 2*e_half kept per dt (``GridTables.step_factors``).
    Only the new state's half spectrum is a new array.
    """
    if dt == 0.0:
        return state
    grid = state.grid
    tables = grid_tables(eq, grid)
    e_full, e_half, dt_e_half, two_e_half = tables.step_factors(dt)
    k1, k2, k3, k4, s = tables.stages
    m = len(s)
    h = 0.5 * dt

    new_half = e_full * state.half
    v, ev, e_full, e_half = state.half[:m], new_half[:m], e_full[:m], e_half[:m]
    nonlinearity(eq, grid, v, samples=state.band_samples, out=k1, tables=tables)
    np.multiply(h, k1, out=s)
    np.add(v, s, out=s)
    np.multiply(e_half, s, out=s)
    nonlinearity(eq, grid, s, out=k2, tables=tables)
    np.multiply(e_half, v, out=s)
    np.multiply(h, k2, out=k3)
    np.add(s, k3, out=s)
    nonlinearity(eq, grid, s, out=k3, tables=tables)
    np.multiply(dt_e_half, k3, out=s)
    np.add(ev, s, out=s)
    nonlinearity(eq, grid, s, out=k4, tables=tables)

    np.multiply(e_full, k1, out=k1)
    np.add(k2, k3, out=k2)
    np.multiply(two_e_half, k2, out=k2)
    np.add(k1, k2, out=k1)
    np.add(k1, k4, out=k1)
    np.multiply(dt / 6.0, k1, out=k1)
    np.add(ev, k1, out=ev)
    return SolverState(state.t + dt, grid, new_half)


def _state_bad(state: SolverState) -> str | None:
    """Halt reason of a state: "nan", "blowup" or None when it is usable."""
    # a NaN or infinite maximum fails the comparison
    if state.abs_half.max() <= BLOWUP_AMPLITUDE:
        return None
    # |inf + nan*j| is inf, so a non-finite maximum alone cannot tell the
    # two reasons apart
    return "nan" if np.isnan(state.half).any() else "blowup"


def _substeps(length: float, allowed: float) -> int | None:
    """Equal substeps of at most ``allowed`` covering ``length``; None if infinite."""
    count = length / allowed if allowed > 0.0 else math.inf
    return max(1, math.ceil(count - 1e-12)) if math.isfinite(count) else None


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
