from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkdvlab import integrator, spectral
from fkdvlab.equations import (
    EQUATION_KINDS,
    band_length,
    grid_tables,
    linear_symbol,
    make_equation,
)
from fkdvlab.errors import ConfigurationError
from fkdvlab.integrator import (
    BLOWUP_AMPLITUDE,
    CFL_COEFFICIENT,
    CFL_FLOOR,
    SNAPSHOT_RATIO,
    HaltReason,
    SolverConfig,
    SolverState,
    _state_bad,
    cfl_dt,
    geometric_snapshots,
    run_simulation,
    step_ifrk4,
)
from fkdvlab.spectral import (
    SpectralField,
    hermitian_defect,
    hermitize,
    inverse_transform,
    make_grid,
    mean_integral,
    norm_l2,
    regrid,
)

import ascending as asc

TWO_PI = 2.0 * np.pi

REGISTRY_PARAMS = {"modified_fkdv": {"alpha": -0.5},
                   "rescaled_modified_whitham": {"epsilon": 0.1},
                   "mkdv": {"epsilon": 0.1}}


def field_of(grid, samples):
    return SpectralField.from_samples(grid, samples)


def gaussian_field(grid, amplitude=0.1, width=1.0):
    return hermitize(field_of(
        grid, amplitude * np.exp(-((grid.x - grid.x_center) / width) ** 2)))


def state_of(fld, t=0.0):
    return SolverState(t, fld.grid, fld.coeffs)


def linear_exponentials(eq, grid, dt):
    """exp(dt*L) and exp(dt*L/2), the first two step factors."""
    return grid_tables(eq, grid).step_factors(dt)[:2]


def reference_band_synthesis(grid, c):
    """The two-phase synthesis of the kept band of the ascending spectrum c,
    by the solver's own band pair."""
    return spectral.band_synthesis(grid, asc.half_of(c)[:band_length(grid)])


def reference_nonlinearity(eq, grid, c):
    """The nonlinearity on the ascending spectrum c: the band's synthesis,
    power, transform and multiplier, mirrored into the ascending spectrum.
    Its FFTs are the solver's band pair, so a run's bits check the half
    layout and the step around them, not the FFT."""
    if eq.coefficient == 0.0:
        return np.zeros(grid.n_points, dtype=complex)
    m = band_length(grid)
    v = reference_band_synthesis(grid, c)
    rows = (eq.coefficient / 3 * 1j * grid.wavenumbers[:m] * spectral.analysis_weights(grid)
            * spectral.band_analysis(grid, v * v * v))
    half = np.zeros(grid.n_points // 2 + 1, dtype=complex)
    half[:m] = rows[0] + rows[1]
    return asc.mirror(half)


def reference_step(grid, c, dt, eq):
    """IF-RK4 on the ascending spectrum c, measuring the Hermitian defect of
    the raw result and repairing it with hermitize.  Returns (spectrum,
    defect)."""
    lin = linear_symbol(eq, asc.xi(grid))
    lin[0] = 0.0
    e_full, e_half = np.exp(dt * lin), np.exp(0.5 * dt * lin)

    def N(coeffs):
        return reference_nonlinearity(eq, grid, coeffs)

    k1 = N(c)
    k2 = N(e_half * (c + 0.5 * dt * k1))
    k3 = N(e_half * c + 0.5 * dt * k2)
    k4 = N(e_full * c + dt * e_half * k3)
    raw = e_full * c + (dt / 6.0) * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)
    return asc.hermitize(raw), asc.hermitian_defect(raw)


def reference_run(u0, eq, config):
    """run_simulation's segment loop over reference_step on the ascending
    spectrum, with CFL read from the synthesis of the band plus the l1 norm
    of the modes above it, and a three-pass halt check.  Returns (half
    spectrum, halt kind, halt time, largest Hermitian defect)."""
    grid = u0.grid

    def dt_allowed(c):
        tail = np.abs(asc.half_of(c)[band_length(grid):])
        speed = (float(np.max(np.abs(reference_band_synthesis(grid, c))))
                 + asc.SQRT_2PI / grid.box_length
                 * (2.0 * float(np.sum(tail)) - float(tail[-1]))) ** 2
        return min(config.dt_max, CFL_COEFFICIENT * grid.dx / max(CFL_FLOOR, speed))

    def bad(c):
        if np.any(np.isnan(c)):
            return "nan"
        if np.any(np.isinf(c)) or np.max(np.abs(c)) > BLOWUP_AMPLITUDE:
            return "blowup"
        return None

    fld, t, defect_max = asc.hermitize(asc.mirror(u0.coeffs)), 0.0, 0.0
    for target in sorted(set(config.snapshot_times) | {config.t_end}):
        if target <= 1e-14:
            continue
        seg_start, seg_len, done = t, target - t, 0
        n_steps = max(1, int(np.ceil(seg_len / dt_allowed(fld) - 1e-12)))
        dt = seg_len / n_steps
        while done < n_steps:
            allowed = dt_allowed(fld)
            if dt > allowed * (1.0 + 1e-9):
                remaining = seg_len - done * dt
                extra = max(1, int(np.ceil(remaining / allowed - 1e-12)))
                seg_start, seg_len, done, n_steps = t, remaining, 0, extra
                dt = seg_len / n_steps
            new, defect = reference_step(grid, fld, dt, eq)
            done += 1
            t_new = seg_start + done * dt
            reason = bad(new)
            if reason is not None:
                return asc.half_of(fld), reason, t_new, defect_max
            fld, t, defect_max = new, t_new, max(defect_max, defect)
        t = target
    return asc.half_of(fld), "completed", t, defect_max


class TestCfl:
    def test_zero_field_returns_dt_max(self):
        g = make_grid(32, TWO_PI)
        state = SolverState(0.0, g, np.zeros(17, complex))
        cfg = SolverConfig(dt_max=0.7, t_end=1.0)
        assert cfl_dt(state, cfg) == 0.7

    def test_transport_speed_restriction(self):
        # max|u| = 2, dx = 0.1, c = 0.5: dt = 0.5*0.1/2^2
        g = make_grid(32, 3.2)
        u = np.zeros(32)
        u[5] = 2.0
        state = state_of(field_of(g, u))
        cfg = SolverConfig(dt_max=1.0, t_end=1.0)
        assert cfl_dt(state, cfg) == pytest.approx(0.0125, rel=1e-10)

    @pytest.mark.parametrize("coefficient", [0.25, 1.0])
    def test_reads_the_module_coefficient(self, monkeypatch, coefficient):
        # max|u| = 2, dx = 0.1: dt = c*0.1/2^2 for the constant c, which no
        # config can set
        monkeypatch.setattr(integrator, "CFL_COEFFICIENT", coefficient)
        g = make_grid(32, 3.2)
        u = np.zeros(32)
        u[5] = 2.0
        cfg = SolverConfig(dt_max=1.0, t_end=1.0)
        assert cfl_dt(state_of(field_of(g, u)), cfg) == pytest.approx(
            coefficient * 0.025, rel=1e-10)

    def test_dt_max_cap(self):
        g = make_grid(32, 3.2)
        u = np.zeros(32)
        u[5] = 1.0
        state = state_of(field_of(g, u))
        cfg = SolverConfig(dt_max=0.01, t_end=1.0)
        # max|u| = 1 gives 0.5*0.1/1^2 = 0.05 > dt_max
        assert cfl_dt(state, cfg) == 0.01


@st.composite
def broadband_spectra(draw):
    """A random half spectrum: broadband or a few modes, decaying at a
    random rate, complex or real, any scale."""
    n = draw(st.sampled_from([2 ** j for j in range(3, 13)]))
    grid = make_grid(n, draw(st.sampled_from([TWO_PI, 16.0, 256.0 * np.pi])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = n // 2 + 1
    half = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * np.exp(
        -draw(st.floats(0.0, 50.0)) * np.arange(m) / m)
    modes = draw(st.one_of(st.none(), st.integers(1, 4)))
    if modes is not None:
        keep = np.zeros(m, bool)
        keep[rng.choice(m, size=min(modes, m), replace=False)] = True
        half[~keep] = 0.0
    if draw(st.booleans()):
        # real coefficients peak together at x = 0: U is tight for one mode
        half = half.real.astype(complex)
    half *= 10.0 ** draw(st.floats(-8.0, 3.0))
    return grid, half


@st.composite
def cfl_cases(draw):
    """A half spectrum of ``broadband_spectra`` or ``tailed_spectra`` and
    dt_max placed at the exact CFL edge, at the edge of U, one ulp past
    either, or anywhere near them."""
    grid, half = draw(st.one_of(broadband_spectra(), tailed_spectra()))
    where = draw(st.sampled_from(["exact", "bound", "near"]))
    return grid, half, where, draw(st.sampled_from([0, 1])), \
        10.0 ** draw(st.floats(-2.0, 2.0))


@st.composite
def tailed_spectra(draw):
    """A random half spectrum on the kept band and, above it, exact zeros,
    zeros of either sign, nonzero entries of any size, or one NaN or
    infinite entry."""
    n = draw(st.sampled_from([2 ** j for j in range(3, 12)]))
    grid = make_grid(n, draw(st.sampled_from([TWO_PI, 16.0])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = band_length(grid)
    half = np.zeros(n // 2 + 1, dtype=complex)
    half[:m] = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) \
        * 10.0 ** draw(st.floats(-8.0, 3.0))
    tail = half[m:]
    tail_kind = draw(st.sampled_from(["zero", "signed zero", "nonzero", "nan", "inf"]))
    if tail_kind == "signed zero":
        tail.real = np.where(rng.random(len(tail)) < 0.5, -0.0, 0.0)
        tail.imag = np.where(rng.random(len(tail)) < 0.5, -0.0, 0.0)
    elif tail_kind == "nonzero":
        size = 10.0 ** draw(st.floats(-20.0, 0.0))
        hit = rng.random(len(tail)) < 0.5
        hit[rng.integers(len(tail))] = True
        tail[hit] = size * (rng.standard_normal(hit.sum()) + 1j * rng.standard_normal(hit.sum()))
    elif tail_kind != "zero":
        tail[rng.integers(len(tail))] = complex(np.nan if tail_kind == "nan" else np.inf, 0.0)
    return grid, half


#: Largest relative distance of max|u| read from the band's two-phase
#: synthesis to max|u| read from the natural-order one: round-off.
SYNTHESIS_MAX_RTOL = 1e-14


def speed_bound(grid, half):
    """U = max|u_band| + (sqrt(2 pi)/L)(2 sum_{k>=m} |c_k| - |c_(n/2)|), the
    band synthesised in the two-phase layout."""
    m = band_length(grid)
    tail = np.abs(half[m:])
    return (float(np.max(np.abs(spectral.band_synthesis(grid, half[:m]))))
            + asc.SQRT_2PI / grid.box_length * (2.0 * float(np.sum(tail)) - float(tail[-1])))


class TestCflSpeed:
    @settings(max_examples=600, deadline=None)
    @given(cfl_cases())
    def test_speed_is_band_max_plus_tail_l1(self, case):
        # cfl_dt reads U, bit for bit; U is max|u| to the two-phase
        # synthesis's round-off with nothing above the band, and at least
        # max|u|, to the synthesis's round-off, otherwise
        grid, half, where, ulps, factor = case
        reach = CFL_COEFFICIENT * grid.dx
        with np.errstate(over="ignore", invalid="ignore"):
            max_u = float(np.max(np.abs(inverse_transform(grid, half))))
            bound = speed_bound(grid, half)
        edges = {"exact": reach / max(CFL_FLOOR, max_u ** 2),
                 "bound": reach / max(CFL_FLOOR, bound ** 2)}
        dt_max = edges["exact"] * factor if where == "near" else edges[where]
        if not 0.0 < dt_max < np.inf:
            # a NaN or infinite entry leaves no edge
            dt_max = factor
        for _ in range(ulps):
            dt_max = np.nextafter(dt_max, np.inf)
        config = SolverConfig(dt_max=float(dt_max))
        with np.errstate(over="ignore", invalid="ignore"):
            got = cfl_dt(SolverState(0.0, grid, half), config)
        assert got == min(config.dt_max, reach / max(CFL_FLOOR, bound ** 2))
        tail = half[band_length(grid):]
        if not np.any(tail):
            assert abs(bound - max_u) <= SYNTHESIS_MAX_RTOL * max_u
        elif np.all(np.isfinite(tail)):
            mag = np.abs(half)
            l1 = asc.SQRT_2PI / grid.box_length * (
                2.0 * np.sum(mag) - mag[0] - mag[-1])
            assert bound >= max_u - 1e-12 * l1


class TestStep:
    def test_exact_linear_phase(self):
        g = make_grid(32, TWO_PI)
        c = np.zeros(17, complex)
        c[1] = 1.0
        eq = replace(make_equation("modified_fkdv", alpha=-0.5), coefficient=0.0)
        out = step_ifrk4(SolverState(0.0, g, c), 0.3, eq)
        assert abs(out.half[1] - np.exp(0.3j)) < 1e-14
        assert abs(abs(out.half[1]) - 1.0) < 1e-14

    def test_one_step_order_five(self):
        # Richardson: local error of a single step scales like dt^5
        g = make_grid(128, 16.0 * np.pi)
        eq = make_equation("modified_fkdv", alpha=-0.5)
        u0 = gaussian_field(g, amplitude=0.8, width=2.0)
        dt0 = 0.4

        def one_step_error(dt):
            coarse = step_ifrk4(state_of(u0), dt, eq)
            fine = state_of(u0)
            for _ in range(16):
                fine = step_ifrk4(fine, dt / 16.0, eq)
            return np.max(np.abs(coarse.half - fine.half))

        errs = [one_step_error(dt0 / 2 ** j) for j in range(3)]
        orders = [np.log2(errs[j] / errs[j + 1]) for j in range(2)]
        assert min(orders) >= 4.7

    def test_one_step_matches_characteristics(self):
        # dispersionless cubic flow vs the implicit ray solution
        g = make_grid(64, TWO_PI)
        eq = make_equation("modified_burgers")
        a0 = 0.01
        u0 = field_of(g, a0 * np.sin(g.x))
        out = step_ifrk4(state_of(u0), 0.01, eq)
        u_num = inverse_transform(g, out.half)

        u_exact = a0 * np.sin(g.x)
        for _ in range(60):
            u_exact = a0 * np.sin(g.x - 0.01 * u_exact ** 2)
        assert np.max(np.abs(u_num - u_exact)) < 1e-8

    def test_global_order_at_least_four(self):
        g = make_grid(128, 16.0 * np.pi)
        eq = make_equation("modified_fkdv", alpha=-0.5)
        u0 = gaussian_field(g, amplitude=0.8, width=2.0)

        def advance(dt, t_end=1.0):
            state = state_of(u0)
            steps = int(round(t_end / dt))
            for _ in range(steps):
                state = step_ifrk4(state, dt, eq)
            return state.half

        ref = advance(1.0 / 64)
        errs = [np.max(np.abs(advance(dt) - ref)) for dt in (0.25, 0.125)]
        assert np.log2(errs[0] / errs[1]) >= 3.9


class TestBandLimitedStep:
    """Above the kept band the step is the exact linear flow, and each step
    costs the four stages' transforms and nothing more."""

    @pytest.mark.parametrize("kind", EQUATION_KINDS)
    def test_above_band_is_linear_flow(self, kind):
        eq = make_equation(kind, **REGISTRY_PARAMS.get(kind, {}))
        g = make_grid(256, 16.0 * np.pi)
        rng = np.random.default_rng(len(kind))
        c = rng.normal(size=129) + 1j * rng.normal(size=129)
        state = SolverState(0.0, g, 0.05 * c)
        dt = 0.03
        out = step_ifrk4(state, dt, eq)
        m = band_length(g)
        e_full, _ = linear_exponentials(eq, g, dt)
        assert np.array_equal(out.half[m:], e_full[m:] * state.half[m:])
        assert out.half[-1] == 0.0

    @pytest.mark.parametrize("kind", ["modified_fkdv", "modified_burgers"])
    def test_four_real_transform_pairs_per_step(self, kind, monkeypatch):
        eq = make_equation(kind, **REGISTRY_PARAMS.get(kind, {}))
        g = make_grid(512, 16.0 * np.pi)
        state = state_of(gaussian_field(g, amplitude=0.5))
        shapes = {"_rfft": [], "_irfft": []}

        # the band pair calls the FFT kernels it binds in spectral, each on
        # the two rows of the two-phase layout, of length n/2
        def counted(name, kernel):
            def wrapper(a, fct, out):
                result = kernel(a, fct, out=out)
                shapes[name].append(result.shape if name == "_irfft" else a.shape)
                return result
            return wrapper

        for name in shapes:
            monkeypatch.setattr(spectral, name, counted(name, getattr(spectral, name)))
        step_ifrk4(state, 0.05, eq)
        assert shapes == {"_rfft": [(2, 256)] * 4, "_irfft": [(2, 256)] * 4}


class TestExponentialCache:
    """The grid tables are one bounded cache shared by equal equations; a
    step from cached tables is the step from tables built afresh."""

    @pytest.mark.parametrize("kind,params", [
        ("modified_fkdv", {"alpha": -0.5}), ("modified_burgers", {})])
    def test_steps_match_fresh_tables(self, kind, params):
        # alternating dt across two grids on one equation must give exactly
        # the steps of a fresh equation whose tables are all rebuilt
        eq = make_equation(kind, **params)
        fields = [gaussian_field(make_grid(n, 16.0 * np.pi), amplitude=0.5)
                  for n in (64, 128)]
        schedule = [(dt, u0) for dt in (0.05, 0.02, 0.05) for u0 in fields]
        cached = [step_ifrk4(state_of(u0), dt, eq).half for dt, u0 in schedule]
        for (dt, u0), half in zip(schedule, cached):
            grid_tables.cache_clear()
            fresh = step_ifrk4(state_of(u0), dt, make_equation(kind, **params))
            assert np.array_equal(half, fresh.half)
            # half-length tables, 0 in the Nyquist slot
            lin = linear_symbol(eq, u0.grid.wavenumbers[:-1])
            e_full, e_half = linear_exponentials(eq, u0.grid, dt)
            assert np.array_equal(e_full, np.append(np.exp(dt * lin), 0.0))
            assert np.array_equal(e_half, np.append(np.exp(0.5 * dt * lin), 0.0))

    def test_equal_equations_share_tables(self):
        g = make_grid(64, TWO_PI)
        eq = make_equation("modified_fkdv", alpha=-0.5)
        twin = make_equation("modified_fkdv", alpha=-0.5)
        assert eq == twin and hash(eq) == hash(twin)
        assert grid_tables(eq, g) is grid_tables(twin, g)
        # a changed coefficient is another equation, with its own tables
        linear = replace(eq, coefficient=0.0)
        assert linear != eq
        assert grid_tables(linear, g) is not grid_tables(eq, g)
        assert np.array_equal(grid_tables(linear, g).linear, grid_tables(eq, g).linear)
        assert not np.any(grid_tables(linear, g).multiplier)

    def test_dispersionless_pair_kept_across_dt(self):
        # exp(dt*0) is 1 for every dt: the first pair serves every later
        # step, and only the band factor dt*exp(dt*L/2) follows dt
        eq = make_equation("modified_burgers")
        g = make_grid(32, TWO_PI)
        first = linear_exponentials(eq, g, 0.05)
        ones = np.append(np.ones(16), 0.0)
        m = band_length(g)
        for dt in (0.02, 1e-3, 0.05):
            e_full, e_half, dt_e_half, two_e_half = grid_tables(eq, g).step_factors(dt)
            assert e_full is first[0] and e_half is first[1]
            assert np.array_equal(e_full, ones) and np.array_equal(e_half, ones)
            assert np.array_equal(dt_e_half, np.full(m, dt, dtype=complex))
            assert np.array_equal(two_e_half, np.full(m, 2.0, dtype=complex))

    def test_dispersive_pair_follows_dt(self):
        eq = make_equation("modified_fkdv", alpha=-0.5)
        g = make_grid(32, TWO_PI)
        first = linear_exponentials(eq, g, 0.05)
        assert linear_exponentials(eq, g, 0.05)[0] is first[0]
        lin = grid_tables(eq, g).linear
        for dt in (0.02, 0.05):
            e_full, e_half = linear_exponentials(eq, g, dt)
            assert np.array_equal(e_full[:-1], np.exp(dt * lin[:-1]))
            assert np.array_equal(e_half[:-1], np.exp(0.5 * dt * lin[:-1]))

    def test_cache_stays_bounded(self):
        grids = [make_grid(n, TWO_PI) for n in (8, 16, 32)]
        for alpha in np.linspace(-0.9, -0.1, 30):
            eq = make_equation("modified_fkdv", alpha=float(alpha))
            for g in grids:
                step_ifrk4(state_of(field_of(g, 0.01 * np.sin(g.x))), 1e-3, eq)
        info = grid_tables.cache_info()
        assert info.maxsize is not None
        assert info.currsize <= info.maxsize < 30 * len(grids)


class TestRunSimulation:
    def test_zero_t_end_calls_observer_once(self):
        g = make_grid(32, TWO_PI)
        cfg = SolverConfig(t_end=0.0, snapshot_times=(0.0,))
        seen = []
        run_simulation(gaussian_field(g), make_equation("modified_burgers"),
                       cfg, lambda s: seen.append(s.t))
        assert seen == [0.0]

    def test_linear_run_unitary(self):
        g = make_grid(256, 32.0 * np.pi)
        eq = replace(make_equation("modified_fkdv", alpha=-0.5), coefficient=0.0)
        u0 = gaussian_field(g)
        cfg = SolverConfig(dt_max=0.1, t_end=10.0, snapshot_times=(10.0,))
        final, halt = run_simulation(u0, eq, cfg)
        assert halt.completed
        assert norm_l2(final.field) == pytest.approx(norm_l2(u0), rel=1e-12)

    def test_exact_linear_limit_many_steps(self):
        # n-step evolution equals one exact multiplier application
        g = make_grid(256, 32.0 * np.pi)
        eq = replace(make_equation("modified_fkdv", alpha=-0.5), coefficient=0.0)
        u0 = gaussian_field(g)
        cfg = SolverConfig(dt_max=0.037, t_end=10.0,
                           snapshot_times=tuple(np.arange(0.0, 10.5, 1.0)))
        final, halt = run_simulation(u0, eq, cfg)
        exact = np.exp(10.0 * grid_tables(eq, g).linear) * u0.coeffs
        err = np.max(np.abs(final.half - exact))
        assert err <= 1e-12 * np.max(np.abs(u0.coeffs))

    def test_conservation_short_run(self):
        g = make_grid(1024, 64.0 * np.pi)
        eq = make_equation("modified_fkdv", alpha=-0.5)
        u0 = gaussian_field(g)
        cfg = SolverConfig(dt_max=0.1, t_end=10.0, snapshot_times=(10.0,))
        final, halt = run_simulation(u0, eq, cfg)
        assert halt.completed
        assert abs(norm_l2(final.field) - norm_l2(u0)) <= 1e-8 * norm_l2(u0)
        assert mean_integral(final.field) == mean_integral(u0)
        assert hermitian_defect(final.field) == 0.0

    def test_time_reversibility(self):
        g = make_grid(256, 32.0 * np.pi)
        eq = make_equation("modified_fkdv", alpha=-0.5)
        u0 = gaussian_field(g, amplitude=0.2)
        state = state_of(u0)
        n_steps, dt = 100, 0.01
        for _ in range(n_steps):
            state = step_ifrk4(state, dt, eq)
        for _ in range(n_steps):
            state = step_ifrk4(state, -dt, eq)
        err = np.max(np.abs(state.half - u0.coeffs))
        assert err < 1e-8 * max(1.0, np.max(np.abs(u0.coeffs)))

    def test_blowup_halt_preserves_last_finite_state(self):
        # amplitudes beyond the overflow guard raise the typed halt on the
        # first step while the last finite state is kept (the CFL rule makes
        # in-range dynamics stable, so only pathological inputs trip this)
        g = make_grid(64, TWO_PI)
        eq = make_equation("modified_burgers")
        u0 = field_of(g, 3e12 * np.sin(g.x))
        cfg = SolverConfig(dt_max=0.05, t_end=5.0, snapshot_times=(5.0,))
        final, halt = run_simulation(u0, eq, cfg)
        assert halt.kind in ("blowup", "nan")
        assert np.all(np.isfinite(final.half))
        assert halt.t > final.t

    @pytest.mark.parametrize("amplitude,reason", [
        (1e120, "nan"), (1e154, "blowup"), (1e160, "blowup"), (1e300, "blowup")])
    def test_huge_data_halts_typed(self, amplitude, reason):
        # max|u|^2 overflows, or leaves a CFL step too small to count
        # substeps in, so the initial state itself halts; below that, u^3
        # overflows in the first step and the transform makes it NaN
        g = make_grid(64, TWO_PI)
        u0 = field_of(g, amplitude * np.sin(g.x))
        cfg = SolverConfig(dt_max=0.01, t_end=0.1)
        with np.errstate(over="ignore", invalid="ignore"):
            final, halt = run_simulation(u0, make_equation("modified_burgers"), cfg)
        assert halt.kind == reason
        assert final.t == 0.0 and np.all(np.isfinite(final.half))

    @pytest.mark.parametrize("kind", EQUATION_KINDS)
    def test_cubic_overflow_halts_nan_for_every_kind(self, kind):
        # u^3 overflows in the first stage whatever the linear part, and the
        # halt keeps the last finite state
        g = make_grid(64, TWO_PI)
        u0 = field_of(g, 1e120 * np.sin(g.x))
        cfg = SolverConfig(dt_max=0.01, t_end=0.1)
        eq = make_equation(kind, **REGISTRY_PARAMS.get(kind, {}))
        with np.errstate(over="ignore", invalid="ignore"):
            final, halt = run_simulation(u0, eq, cfg)
        assert (halt.kind, final.t) == ("nan", 0.0)
        assert halt.t > 0.0 and np.all(np.isfinite(final.half))

    def test_snapshots_land_exactly(self):
        g = make_grid(64, TWO_PI)
        eq = make_equation("modified_burgers")
        u0 = field_of(g, 0.01 * np.sin(g.x))
        times = (0.3, 1.0, 1.7)
        seen = []
        cfg = SolverConfig(dt_max=0.13, t_end=2.0, snapshot_times=times)
        run_simulation(u0, eq, cfg, lambda s: seen.append(s.t))
        assert seen == list(times)

    @staticmethod
    def count_calls(monkeypatch):
        # "transform" counts the syntheses made while cfl_dt runs, of the
        # whole field or of the band that the next step's first stage reads
        from fkdvlab import integrator
        counts = {"transform": 0, "cfl": 0, "step": 0}
        cfl, step, synth = integrator.cfl_dt, integrator.step_ifrk4, integrator.band_synthesis
        in_cfl = [False]

        def counted_cfl(*args):
            counts["cfl"] += 1
            in_cfl[0] = True
            try:
                return cfl(*args)
            finally:
                in_cfl[0] = False

        def counted_step(*args):
            counts["step"] += 1
            return step(*args)

        def counted_synth(*args):
            counts["transform"] += in_cfl[0]
            return synth(*args)

        monkeypatch.setattr(integrator, "cfl_dt", counted_cfl)
        monkeypatch.setattr(integrator, "step_ifrk4", counted_step)
        monkeypatch.setattr(integrator, "band_synthesis", counted_synth)
        return counts

    def test_capped_steps_one_transform_per_step(self, monkeypatch):
        # small dispersive data: dt = dt_max on every call, read from the
        # band synthesis that the step's first stage then reuses, and
        # planning a segment and its first step share it: one per state the
        # steps start from
        counts = self.count_calls(monkeypatch)
        g = make_grid(256, 32.0 * np.pi)
        cfg = SolverConfig(dt_max=0.1, t_end=2.0, snapshot_times=(0.5, 1.0, 1.5))
        _, halt = run_simulation(gaussian_field(g, amplitude=0.5),
                                 make_equation("modified_fkdv", alpha=-0.5), cfg)
        assert halt.completed
        assert counts["step"] == 20
        assert counts["cfl"] == counts["step"] + 4
        assert counts["transform"] == counts["step"]

    def test_binding_cfl_one_transform_per_step(self, monkeypatch):
        # on a fine grid the transport speed binds, and planning a segment
        # and its first step share one synthesis: one per state the steps
        # start from
        counts = self.count_calls(monkeypatch)
        g = make_grid(512, TWO_PI)
        cfg = SolverConfig(dt_max=0.1, t_end=0.2, snapshot_times=(0.05, 0.1, 0.15))
        _, halt = run_simulation(field_of(g, 0.5 * np.sin(g.x)),
                                 make_equation("modified_burgers"), cfg)
        assert halt.completed
        assert counts["step"] >= 8
        assert counts["cfl"] == counts["step"] + 4
        assert counts["transform"] == counts["step"]

    def test_config_validation(self):
        with pytest.raises(Exception):
            SolverConfig(dt_max=-1.0, t_end=1.0)
        with pytest.raises(Exception):
            SolverConfig(t_end=1.0, snapshot_times=(2.0,))

    @pytest.mark.parametrize("field", ["dt_max", "t_end"])
    def test_nan_config_refused(self, field):
        with pytest.raises(ConfigurationError, match=field):
            SolverConfig(**{field: float("nan")})

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["dt_max", "t_end"])
    def test_infinite_config_refused(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            SolverConfig(**{field: value})

    def test_nan_snapshot_time_refused(self):
        with pytest.raises(ConfigurationError, match="snapshot times"):
            SolverConfig(t_end=1.0, snapshot_times=(0.5, float("nan")))


class TestFullSpectrumReference:
    """The half-spectrum solver against the same step on the ascending
    whole spectrum: equal bits, equal halt reasons, and a reference that
    never finds a Hermitian defect to repair."""

    @pytest.mark.parametrize("snapshots, dt_changes", [
        ((0.05, 0.1, 0.15, 0.2), 0),
        # irregular segments: dt changes at each segment's start, so every
        # kind rebuilds its per-dt stage factors along the run
        ((0.03, 0.1, 0.13, 0.17, 0.2), 4),
    ], ids=["even", "irregular"])
    @pytest.mark.parametrize("n", [16, 512, 8192])
    @pytest.mark.parametrize("kind", EQUATION_KINDS)
    def test_runs_bit_identical(self, kind, n, snapshots, dt_changes, monkeypatch):
        from fkdvlab import integrator
        eq = make_equation(kind, **REGISTRY_PARAMS.get(kind, {}))
        g = make_grid(n, 16.0 * np.pi)
        u0 = field_of(g, 0.8 * np.exp(-((g.x - g.x_center) / 2.0) ** 2)
                      + 0.1 * np.sin(6.0 * TWO_PI * g.x / g.box_length))
        cfg = SolverConfig(dt_max=0.05, t_end=0.2, snapshot_times=snapshots)
        dts = []

        def recorded_step(state, dt, eq):
            dts.append(dt)
            return step_ifrk4(state, dt, eq)

        monkeypatch.setattr(integrator, "step_ifrk4", recorded_step)
        final, halt = run_simulation(u0, eq, cfg)
        ref, kind_ref, t_ref, defect_max = reference_run(u0, eq, cfg)
        assert (halt.kind, halt.t) == (kind_ref, t_ref) == ("completed", 0.2)
        assert np.array_equal(final.half, ref)
        assert defect_max == 0.0
        assert sum(a != b for a, b in zip(dts, dts[1:])) >= dt_changes

    @pytest.mark.parametrize("sampled_on", [256, 512])
    def test_band_limited_run_reuses_band_synthesis(self, tracing, pair_calls, sampled_on):
        # a sine regridded from 256 points has exact zeros above the band
        # on 512, and the dispersionless step keeps them there; sampled on
        # 512 it keeps round-off there, as rung 512 of the shock ladder
        # does.  Either way each binding CFL speed is read from the band
        # synthesis that the step's first stage then uses: 4 + 4 calls of
        # the band pair a step, no more, and no natural-order transform
        coarse, g = make_grid(sampled_on, TWO_PI), make_grid(512, TWO_PI)
        u0 = regrid(field_of(coarse, 0.5 * np.sin(coarse.x)), g)
        eq = make_equation("modified_burgers")
        cfg = SolverConfig(dt_max=0.1, t_end=0.2, snapshot_times=(0.05, 0.1, 0.15))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            final, halt = run_simulation(u0, eq, cfg)
        finally:
            tracer.remove()
        summary = tracer.summary()
        steps = summary["calls"]["integrator.step_ifrk4"]
        assert steps >= 8 and summary["calls"]["integrator.cfl_dt"] == steps + 4
        assert summary["step_transforms"] == 0
        assert pair_calls == {"band_synthesis": 4 * steps, "band_analysis": 4 * steps}
        assert np.any(final.half[band_length(g):]) == (sampled_on == 512)
        ref, kind_ref, t_ref, _ = reference_run(u0, eq, cfg)
        assert (halt.kind, halt.t) == (kind_ref, t_ref) == ("completed", 0.2)
        assert np.array_equal(final.half, ref)

    def test_blowup_halt_matches(self):
        g = make_grid(64, TWO_PI)
        eq = make_equation("modified_burgers")
        u0 = field_of(g, 3e12 * np.sin(g.x))
        cfg = SolverConfig(dt_max=0.05, t_end=5.0, snapshot_times=(5.0,))
        final, halt = run_simulation(u0, eq, cfg)
        ref, kind_ref, t_ref, _ = reference_run(u0, eq, cfg)
        assert (halt.kind, halt.t) == (kind_ref, t_ref)
        assert np.array_equal(final.half, ref)


class TestHaltClassification:
    @staticmethod
    def state_with(value):
        half = np.full(9, 0.5 + 0.25j)
        half[3] = value
        return SolverState(1.0, make_grid(16, TWO_PI), half)

    @pytest.mark.parametrize("value, reason", [
        (0.1 - 0.2j, None),
        (complex(np.nan, 0.0), "nan"),
        (complex(np.inf, np.nan), "nan"),
        (complex(np.inf, 0.0), "blowup"),
        (2e12, "blowup"),
    ])
    def test_reason(self, value, reason):
        assert _state_bad(self.state_with(value)) == reason


class TestSnapshots:
    def test_geometric_schedule(self):
        times = geometric_snapshots(4.0)
        assert times[0] == 0.0
        assert times[-1] == 4.0
        # SNAPSHOT_RATIO^j for j = 0 ... 15 lie below t_end; 2^(16/8) is t_end
        assert times[1:-1] == pytest.approx([SNAPSHOT_RATIO ** j for j in range(16)],
                                            rel=1e-14)
        assert geometric_snapshots(0.5) == (0.0, 0.5)
        assert geometric_snapshots(0.0) == (0.0,)

    def test_halt_reason_dataclass(self):
        h = HaltReason("completed", 3.0)
        assert h.completed
        assert not HaltReason("blowup", 1.0).completed
