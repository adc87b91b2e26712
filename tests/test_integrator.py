import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkdvlab.equations import EQUATION_KINDS, linearized, make_equation
from fkdvlab.errors import ConfigurationError
from fkdvlab.integrator import (
    BLOWUP_AMPLITUDE,
    CFL_BOUND_SLACK,
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
    dealias_mask,
    half_inverse_transform,
    half_sup_bound,
    hermitian_defect,
    hermitize,
    inverse_transform,
    make_grid,
    mean_integral,
    norm_l2,
    norm_linf,
    transform,
)

TWO_PI = 2.0 * np.pi

REGISTRY_PARAMS = {"modified_fkdv": {"alpha": -0.5},
                   "rescaled_modified_whitham": {"epsilon": 0.1},
                   "mkdv": {"epsilon": 0.1}}


def gaussian_field(grid, amplitude=0.1, width=1.0):
    return hermitize(transform(
        grid, amplitude * np.exp(-((grid.x - grid.x_center) / width) ** 2)))


def reference_nonlinearity(eq, u_hat):
    """The nonlinearity on the full ascending spectrum: mask, real
    synthesis, power, transform, multiplier."""
    grid = u_hat.grid
    if eq.nonlinearity_coefficient == 0.0:
        return np.zeros(grid.n_points, dtype=complex)
    mask = dealias_mask(grid)
    multiplier = eq.nonlinearity_coefficient / 3 * 1j * grid.wavenumbers * mask
    v = inverse_transform(SpectralField(grid, u_hat.coeffs * mask))
    return multiplier * transform(grid, v * v * v).coeffs


def reference_step(u_hat, dt, eq):
    """IF-RK4 on the full spectrum, measuring the Hermitian defect of the
    raw result and repairing it with hermitize.  Returns (field, defect)."""
    grid = u_hat.grid
    lin = eq.linear_values(grid)
    e_full, e_half = np.exp(dt * lin), np.exp(0.5 * dt * lin)
    v = u_hat.coeffs

    def N(coeffs):
        return reference_nonlinearity(eq, SpectralField(grid, coeffs))

    k1 = N(v)
    k2 = N(e_half * (v + 0.5 * dt * k1))
    k3 = N(e_half * v + 0.5 * dt * k2)
    k4 = N(e_full * v + dt * e_half * k3)
    raw = SpectralField(grid, e_full * v + (dt / 6.0) * (
        e_full * k1 + 2.0 * e_half * (k2 + k3) + k4))
    return hermitize(raw), hermitian_defect(raw)


def reference_run(u0, eq, config):
    """run_simulation's segment loop over reference_step, with CFL read from
    the full spectrum and a three-pass halt check.  Returns (field, halt
    kind, halt time, largest Hermitian defect)."""
    def dt_allowed(fld):
        speed = float(np.max(np.abs(inverse_transform(fld)))) ** 2
        return min(config.dt_max,
                   config.cfl_coefficient * fld.grid.dx / max(CFL_FLOOR, speed))

    def bad(c):
        if np.any(np.isnan(c)):
            return "nan"
        if np.any(np.isinf(c)) or np.max(np.abs(c)) > BLOWUP_AMPLITUDE:
            return "blowup"
        return None

    fld, t, defect_max = hermitize(u0), 0.0, 0.0
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
            new, defect = reference_step(fld, dt, eq)
            done += 1
            t_new = seg_start + done * dt
            reason = bad(new.coeffs)
            if reason is not None:
                return fld, reason, t_new, defect_max
            fld, t, defect_max = new, t_new, max(defect_max, defect)
        t = target
    return fld, "completed", t, defect_max


class TestCfl:
    def test_zero_field_returns_dt_max(self):
        g = make_grid(32, TWO_PI)
        state = SolverState(0.0, SpectralField(g, np.zeros(32, complex)))
        cfg = SolverConfig(dt_max=0.7, t_end=1.0)
        assert cfl_dt(state, cfg) == 0.7

    def test_transport_speed_restriction(self):
        # max|u| = 2, dx = 0.1, c = 0.5: dt = 0.5*0.1/2^2
        g = make_grid(32, 3.2)
        u = np.zeros(32)
        u[5] = 2.0
        state = SolverState(0.0, transform(g, u))
        cfg = SolverConfig(dt_max=1.0, cfl_coefficient=0.5, t_end=1.0)
        assert cfl_dt(state, cfg) == pytest.approx(0.0125, rel=1e-10)

    def test_dt_max_cap(self):
        g = make_grid(32, 3.2)
        u = np.zeros(32)
        u[5] = 1.0
        state = SolverState(0.0, transform(g, u))
        cfg = SolverConfig(dt_max=0.01, cfl_coefficient=0.5, t_end=1.0)
        # max|u| = 1 gives 0.5*0.1/1^2 = 0.05 > dt_max
        assert cfl_dt(state, cfg) == 0.01


@st.composite
def cfl_cases(draw):
    """A random half spectrum (broadband or a few modes, decaying at a
    random rate, complex or real, any scale), the CFL coefficient, and
    dt_max placed at the exact CFL edge, at the certificate's edge, one ulp
    past either, or anywhere near them."""
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
        # real coefficients peak together at x = 0: B is tight for one mode
        half = half.real.astype(complex)
    half *= 10.0 ** draw(st.floats(-8.0, 3.0))
    cfl = draw(st.floats(0.01, 1.0))
    where = draw(st.sampled_from(["exact", "certificate", "near"]))
    return grid, half, cfl, where, draw(st.sampled_from([0, 1])), \
        10.0 ** draw(st.floats(-2.0, 2.0))


class TestCflCertificate:
    @settings(max_examples=300, deadline=None)
    @given(cfl_cases())
    def test_certificate_matches_exact_formula(self, case):
        grid, half, cfl, where, ulps, factor = case
        reach = cfl * grid.dx
        max_u = float(np.max(np.abs(half_inverse_transform(grid, half))))
        bound = half_sup_bound(grid, np.abs(half)) * (1.0 + CFL_BOUND_SLACK)
        assert bound >= max_u
        exact_edge = reach / max(CFL_FLOOR, max_u ** 2)
        dt_max = {"exact": exact_edge, "near": exact_edge * factor,
                  "certificate": reach / max(CFL_FLOOR, bound ** 2)}[where]
        for _ in range(ulps):
            dt_max = np.nextafter(dt_max, np.inf)
        config = SolverConfig(dt_max=float(dt_max), cfl_coefficient=cfl)
        got = cfl_dt(SolverState.from_half(0.0, grid, half), config)
        assert got == min(config.dt_max, reach / max(CFL_FLOOR, max_u ** 2))


class TestStep:
    def test_exact_linear_phase(self):
        g = make_grid(32, TWO_PI)
        c = np.zeros(32, complex)
        i = np.argmin(np.abs(g.wavenumbers - 1.0))
        j = np.argmin(np.abs(g.wavenumbers + 1.0))
        c[i] = 1.0
        c[j] = 1.0
        eq = linearized(make_equation("modified_fkdv", alpha=-0.5))
        state = SolverState(0.0, SpectralField(g, c))
        out = step_ifrk4(state, 0.3, eq)
        assert abs(out.u_hat.coeffs[i] - np.exp(0.3j)) < 1e-14
        assert abs(abs(out.u_hat.coeffs[i]) - 1.0) < 1e-14

    def test_one_step_order_five(self):
        # Richardson: local error of a single step scales like dt^5
        g = make_grid(128, 16.0 * np.pi)
        eq = make_equation("modified_fkdv", alpha=-0.5)
        u0 = gaussian_field(g, amplitude=0.8, width=2.0)
        dt0 = 0.4

        def one_step_error(dt):
            coarse = step_ifrk4(SolverState(0.0, u0), dt, eq)
            fine = SolverState(0.0, u0)
            for _ in range(16):
                fine = step_ifrk4(fine, dt / 16.0, eq)
            return np.max(np.abs(coarse.u_hat.coeffs - fine.u_hat.coeffs))

        errs = [one_step_error(dt0 / 2 ** j) for j in range(3)]
        orders = [np.log2(errs[j] / errs[j + 1]) for j in range(2)]
        assert min(orders) >= 4.7

    def test_one_step_matches_characteristics(self):
        # dispersionless cubic flow vs the implicit ray solution
        g = make_grid(64, TWO_PI)
        eq = make_equation("modified_burgers")
        a0 = 0.01
        u0 = transform(g, a0 * np.sin(g.x))
        out = step_ifrk4(SolverState(0.0, u0), 0.01, eq)
        u_num = inverse_transform(out.u_hat)

        u_exact = a0 * np.sin(g.x)
        for _ in range(60):
            u_exact = a0 * np.sin(g.x - 0.01 * u_exact ** 2)
        assert np.max(np.abs(u_num - u_exact)) < 1e-8

    def test_global_order_at_least_four(self):
        g = make_grid(128, 16.0 * np.pi)
        eq = make_equation("modified_fkdv", alpha=-0.5)
        u0 = gaussian_field(g, amplitude=0.8, width=2.0)

        def advance(dt, t_end=1.0):
            state = SolverState(0.0, u0)
            steps = int(round(t_end / dt))
            for _ in range(steps):
                state = step_ifrk4(state, dt, eq)
            return state.u_hat.coeffs

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
        c = rng.normal(size=256) + 1j * rng.normal(size=256)
        state = SolverState(0.0, SpectralField(g, 0.05 * c))
        dt = 0.03
        out = step_ifrk4(state, dt, eq)
        m = eq.band_length(g)
        e_full, _ = eq.linear_exponentials(g, dt)
        assert np.array_equal(out.half[m:], e_full[m:] * state.half[m:])
        assert out.half[-1] == 0.0

    @pytest.mark.parametrize("kind", ["modified_fkdv", "modified_burgers"])
    def test_four_real_transform_pairs_per_step(self, kind, monkeypatch):
        eq = make_equation(kind, **REGISTRY_PARAMS.get(kind, {}))
        g = make_grid(512, 16.0 * np.pi)
        state = SolverState(0.0, gaussian_field(g, amplitude=0.5))
        lengths = {"rfft": [], "irfft": []}

        def counted(name, func):
            def wrapper(a, n=None, *args, **kwargs):
                result = func(a, n, *args, **kwargs)
                lengths[name].append(len(result) if name == "irfft" else len(a))
                return result
            return wrapper

        for name in lengths:
            monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
        step_ifrk4(state, 0.05, eq)
        assert lengths == {"rfft": [512] * 4, "irfft": [512] * 4}


class TestExponentialCache:
    @staticmethod
    def cached_exponentials(eq):
        return [k for k in eq._linear_cache if k[0] == "exponentials"]

    @pytest.mark.parametrize("kind,params", [
        ("modified_fkdv", {"alpha": -0.5}), ("modified_burgers", {})])
    def test_steps_match_fresh_exponentials(self, kind, params):
        # alternating dt and two grids on one equation must give exactly the
        # steps of an equation that evaluates exp(dt*L) afresh every time
        eq = make_equation(kind, **params)
        fields = [gaussian_field(make_grid(n, 16.0 * np.pi), amplitude=0.5)
                  for n in (64, 128)]
        for dt in (0.05, 0.02, 0.05):
            for u0 in fields:
                state = SolverState(0.0, u0)
                cached = step_ifrk4(state, dt, eq)
                fresh = step_ifrk4(state, dt, make_equation(kind, **params))
                assert np.array_equal(cached.u_hat.coeffs, fresh.u_hat.coeffs)
                # half-length tables, 0 in the Nyquist slot
                n = u0.grid.n_points
                lin = eq.linear_values(u0.grid)[n // 2:]
                e_full, e_half = eq.linear_exponentials(u0.grid, dt)
                assert e_full.shape == e_half.shape == (n // 2 + 1,)
                assert np.array_equal(e_full, np.append(np.exp(dt * lin), 0.0))
                assert np.array_equal(e_half, np.append(np.exp(0.5 * dt * lin), 0.0))

    def test_linearized_has_own_cache(self):
        eq = make_equation("modified_fkdv", alpha=-0.5)
        u0 = gaussian_field(make_grid(64, 16.0 * np.pi))
        step_ifrk4(SolverState(0.0, u0), 0.05, eq)
        lin_eq = linearized(eq)
        assert lin_eq._linear_cache is not eq._linear_cache
        before = dict(eq._linear_cache)
        step_ifrk4(SolverState(0.0, u0), 0.03, lin_eq)
        assert eq._linear_cache.keys() == before.keys()
        assert all(eq._linear_cache[k] is v for k, v in before.items())

    def test_dispersionless_pair_kept_across_dt(self):
        # exp(dt*0) is 1 for every dt: the first pair serves every later step
        eq = make_equation("modified_burgers")
        g = make_grid(32, TWO_PI)
        first = eq.linear_exponentials(g, 0.05)
        ones = np.append(np.ones(16), 0.0)
        for dt in (0.02, 1e-3, 0.05):
            pair = eq.linear_exponentials(g, dt)
            assert pair[0] is first[0] and pair[1] is first[1]
            assert np.array_equal(pair[0], ones) and np.array_equal(pair[1], ones)

    def test_at_most_one_pair_per_grid(self):
        eq = make_equation("modified_fkdv", alpha=-0.5)
        grids = [make_grid(n, TWO_PI) for n in (32, 64)]
        for dt in np.linspace(1e-3, 2e-3, 100):
            for g in grids:
                step_ifrk4(SolverState(0.0, transform(g, 0.01 * np.sin(g.x))), dt, eq)
        keys = self.cached_exponentials(eq)
        assert len(keys) == len(grids)
        assert all(eq._linear_cache[k][0] == dt for k in keys)


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
        eq = linearized(make_equation("modified_fkdv", alpha=-0.5))
        u0 = gaussian_field(g)
        cfg = SolverConfig(dt_max=0.1, t_end=10.0, snapshot_times=(10.0,))
        final, halt = run_simulation(u0, eq, cfg)
        assert halt.completed
        assert norm_l2(final.u_hat) == pytest.approx(norm_l2(u0), rel=1e-12)

    def test_exact_linear_limit_many_steps(self):
        # n-step evolution equals one exact multiplier application
        g = make_grid(256, 32.0 * np.pi)
        eq = linearized(make_equation("modified_fkdv", alpha=-0.5))
        u0 = gaussian_field(g)
        cfg = SolverConfig(dt_max=0.037, t_end=10.0,
                           snapshot_times=tuple(np.arange(0.0, 10.5, 1.0)))
        final, halt = run_simulation(u0, eq, cfg)
        exact = np.exp(10.0 * eq.linear_values(g)) * u0.coeffs
        err = np.max(np.abs(final.u_hat.coeffs - exact))
        assert err <= 1e-12 * np.max(np.abs(u0.coeffs))

    def test_conservation_short_run(self):
        g = make_grid(1024, 64.0 * np.pi)
        eq = make_equation("modified_fkdv", alpha=-0.5)
        u0 = gaussian_field(g)
        cfg = SolverConfig(dt_max=0.1, t_end=10.0, snapshot_times=(10.0,))
        final, halt = run_simulation(u0, eq, cfg)
        assert halt.completed
        assert abs(norm_l2(final.u_hat) - norm_l2(u0)) <= 1e-8 * norm_l2(u0)
        assert mean_integral(final.u_hat) == mean_integral(u0)
        assert hermitian_defect(final.u_hat) == 0.0

    def test_time_reversibility(self):
        g = make_grid(256, 32.0 * np.pi)
        eq = make_equation("modified_fkdv", alpha=-0.5)
        u0 = gaussian_field(g, amplitude=0.2)
        state = SolverState(0.0, u0)
        n_steps, dt = 100, 0.01
        for _ in range(n_steps):
            state = step_ifrk4(state, dt, eq)
        for _ in range(n_steps):
            state = step_ifrk4(state, -dt, eq)
        err = np.max(np.abs(state.u_hat.coeffs - u0.coeffs))
        assert err < 1e-8 * max(1.0, np.max(np.abs(u0.coeffs)))

    def test_blowup_halt_preserves_last_finite_state(self):
        # amplitudes beyond the overflow guard raise the typed halt on the
        # first step while the last finite state is kept (the CFL rule makes
        # in-range dynamics stable, so only pathological inputs trip this)
        g = make_grid(64, TWO_PI)
        eq = make_equation("modified_burgers")
        u0 = transform(g, 3e12 * np.sin(g.x))
        cfg = SolverConfig(dt_max=0.05, cfl_coefficient=1.0, t_end=5.0,
                           snapshot_times=(5.0,))
        final, halt = run_simulation(u0, eq, cfg)
        assert halt.kind in ("blowup", "nan")
        assert np.all(np.isfinite(final.u_hat.coeffs))
        assert halt.t > final.t

    @pytest.mark.parametrize("amplitude,reason", [
        (1e120, "nan"), (1e154, "blowup"), (1e160, "blowup"), (1e300, "blowup")])
    def test_huge_data_halts_typed(self, amplitude, reason):
        # max|u|^2 overflows, or leaves a CFL step too small to count
        # substeps in, so the initial state itself halts; below that, u^3
        # overflows in the first step and the transform makes it NaN
        g = make_grid(64, TWO_PI)
        u0 = transform(g, amplitude * np.sin(g.x))
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
        u0 = transform(g, 1e120 * np.sin(g.x))
        cfg = SolverConfig(dt_max=0.01, t_end=0.1)
        eq = make_equation(kind, **REGISTRY_PARAMS.get(kind, {}))
        with np.errstate(over="ignore", invalid="ignore"):
            final, halt = run_simulation(u0, eq, cfg)
        assert (halt.kind, final.t) == ("nan", 0.0)
        assert halt.t > 0.0 and np.all(np.isfinite(final.half))

    def test_snapshots_land_exactly(self):
        g = make_grid(64, TWO_PI)
        eq = make_equation("modified_burgers")
        u0 = transform(g, 0.01 * np.sin(g.x))
        times = (0.3, 1.0, 1.7)
        seen = []
        cfg = SolverConfig(dt_max=0.13, t_end=2.0, snapshot_times=times)
        run_simulation(u0, eq, cfg, lambda s: seen.append(s.t))
        assert seen == list(times)

    @staticmethod
    def count_calls(monkeypatch):
        # half_inverse_transform is called in integrator only by max_abs_u
        from fkdvlab import integrator
        counts = {"transform": 0, "cfl": 0, "step": 0}

        def counted(name, func):
            def wrapper(*args):
                counts[name] += 1
                return func(*args)
            return wrapper

        for name, attr in (("transform", "half_inverse_transform"),
                           ("cfl", "cfl_dt"), ("step", "step_ifrk4")):
            monkeypatch.setattr(integrator, attr,
                                counted(name, getattr(integrator, attr)))
        return counts

    def test_certified_steps_make_no_cfl_transform(self, monkeypatch):
        # small dispersive data: the l1 bound settles dt = dt_max on every
        # call, so CFL control never synthesises the field
        counts = self.count_calls(monkeypatch)
        g = make_grid(256, 32.0 * np.pi)
        cfg = SolverConfig(dt_max=0.1, t_end=2.0, snapshot_times=(0.5, 1.0, 1.5))
        _, halt = run_simulation(gaussian_field(g, amplitude=0.5),
                                 make_equation("modified_fkdv", alpha=-0.5), cfg)
        assert halt.completed
        assert counts["step"] == 20
        assert counts["cfl"] == counts["step"] + 4
        assert counts["transform"] == 0

    def test_binding_cfl_one_transform_per_step(self, monkeypatch):
        # on a fine grid the transport speed binds, the bound cannot settle
        # dt, and planning a segment and its first step share one synthesis
        counts = self.count_calls(monkeypatch)
        g = make_grid(512, TWO_PI)
        cfg = SolverConfig(dt_max=0.1, t_end=0.2, snapshot_times=(0.05, 0.1, 0.15))
        _, halt = run_simulation(transform(g, 0.5 * np.sin(g.x)),
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
        with pytest.raises(Exception):
            SolverConfig(t_end=1.0, cfl_coefficient=1.5)

    @pytest.mark.parametrize("field", ["dt_max", "t_end", "cfl_coefficient"])
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
    """The half-spectrum solver against the full-spectrum step it replaced:
    equal bits, equal halt reasons, and a reference that never finds a
    Hermitian defect to repair."""

    @pytest.mark.parametrize("n", [16, 512, 8192])
    @pytest.mark.parametrize("kind", EQUATION_KINDS)
    def test_runs_bit_identical(self, kind, n):
        eq = make_equation(kind, **REGISTRY_PARAMS.get(kind, {}))
        g = make_grid(n, 16.0 * np.pi)
        u0 = transform(g, 0.8 * np.exp(-((g.x - g.x_center) / 2.0) ** 2)
                       + 0.1 * np.sin(6.0 * TWO_PI * g.x / g.box_length))
        cfg = SolverConfig(dt_max=0.05, t_end=0.2,
                           snapshot_times=(0.05, 0.1, 0.15, 0.2))
        final, halt = run_simulation(u0, eq, cfg)
        ref, kind_ref, t_ref, defect_max = reference_run(u0, eq, cfg)
        assert (halt.kind, halt.t) == (kind_ref, t_ref) == ("completed", 0.2)
        assert np.array_equal(final.u_hat.coeffs, ref.coeffs)
        assert defect_max == 0.0

    def test_blowup_halt_matches(self):
        g = make_grid(64, TWO_PI)
        eq = make_equation("modified_burgers")
        u0 = transform(g, 3e12 * np.sin(g.x))
        cfg = SolverConfig(dt_max=0.05, cfl_coefficient=1.0, t_end=5.0,
                           snapshot_times=(5.0,))
        final, halt = run_simulation(u0, eq, cfg)
        ref, kind_ref, t_ref, _ = reference_run(u0, eq, cfg)
        assert (halt.kind, halt.t) == (kind_ref, t_ref)
        assert np.array_equal(final.u_hat.coeffs, ref.coeffs)


class TestHaltClassification:
    @staticmethod
    def state_with(value):
        half = np.full(9, 0.5 + 0.25j)
        half[3] = value
        return SolverState.from_half(1.0, make_grid(16, TWO_PI), half)

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
