from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from fkdvlab.equations import (
    EQUATION_KINDS,
    EquationSpec,
    band_length,
    grid_tables,
    linear_symbol,
    make_equation,
    nonlinearity,
)
from fkdvlab.errors import ConfigurationError
from fkdvlab.integrator import SolverConfig, SolverState, cfl_dt, step_ifrk4
from fkdvlab.spectral import dealias_keep, inverse_transform, make_grid, transform

import ascending as asc

TWO_PI = 2.0 * np.pi
SQRT_2PI = np.sqrt(TWO_PI)

ALPHA_RANGE = r"alpha must lie in \(-1.0, 0.0\)"
EPSILON_RANGE = "epsilon must be positive and finite"

REGISTRY_PARAMS = {"modified_fkdv": {"alpha": -0.5},
                   "rescaled_modified_whitham": {"epsilon": 0.1},
                   "mkdv": {"epsilon": 0.1}}


def reference_nonlinearity(eq, grid, c):
    """The kernel written out step by step with complex FFTs on the
    ascending spectrum c: dealias, inverse transform, cube, transform,
    i*xi, dealias."""
    mask = asc.dealias_mask(grid)
    v = (np.fft.ifft(np.fft.ifftshift(c * mask)) * (SQRT_2PI / grid.dx)).real
    w_hat = np.fft.fftshift(np.fft.fft(v ** 3 / 3)) * (grid.dx / SQRT_2PI)
    out = (1j * asc.xi(grid)) * w_hat
    out[0] = 0.0
    return eq.coefficient * out * mask


def zero_padded(grid, band):
    """A band k = 0 ... m - 1 as a half spectrum, zero above the band."""
    half = np.zeros(grid.n_points // 2 + 1, dtype=complex)
    half[:len(band)] = band
    return half


def full_nonlinearity(eq, grid, c):
    """The solver's band-limited nonlinearity of an ascending spectrum,
    zero-padded and mirrored back into the ascending spectrum."""
    band = nonlinearity(eq, grid, asc.half_of(c))
    return asc.mirror(zero_padded(grid, band))


def is_skew(eq, xi, tol=1e-12):
    """True if L(-xi) == conj(L(xi)) and L is purely imaginary on ``xi``."""
    m = linear_symbol(eq, xi)
    m_neg = linear_symbol(eq, -xi)
    scale = max(1.0, float(np.max(np.abs(m))))
    return (np.max(np.abs(m.real)) <= tol * scale
            and np.max(np.abs(m_neg - np.conj(m))) <= tol * scale)


def random_band_limited(grid, band, rng, amplitude=0.5):
    """Ascending Hermitian spectrum with random coefficients on 0 < |k| <= band."""
    n = grid.n_points
    c = np.zeros(n, complex)
    k = np.arange(1, band + 1)
    c[n // 2 + k] = rng.normal(size=band) + 1j * rng.normal(size=band)
    c[n // 2 - k] = np.conj(c[n // 2 + k])
    return amplitude * c / np.sqrt(band)


class TestRegistry:
    def test_modified_fkdv(self):
        # i*xi*|xi|^(-1/2): 2i at xi = 4 and -i at xi = -1; the table on the
        # half spectrum is 0 in the Nyquist slot
        eq = make_equation("modified_fkdv", alpha=-0.5)
        assert eq.coefficient == -1.0
        assert abs(linear_symbol(eq, np.array([4.0]))[0] - 2j) < 1e-14
        assert abs(linear_symbol(eq, np.array([-1.0]))[0] + 1j) < 1e-14
        lin = grid_tables(eq, make_grid(32, TWO_PI)).linear
        assert abs(lin[4] - 2j) < 1e-14 and lin[0] == 0 and lin[-1] == 0

    def test_mkdv_symbol_zero_crossing(self):
        # -i xi + i (eps/6) xi^3 vanishes where xi^2 = 6/eps
        eq = make_equation("mkdv", epsilon=1.0)
        xi0 = np.sqrt(6.0)
        assert abs(linear_symbol(eq, np.array([xi0]))[0]) < 1e-12
        val = linear_symbol(eq, np.array([1.0]))[0]
        assert abs(val - (-1j + 1j / 6.0)) < 1e-14

    def test_modified_burgers(self):
        eq = make_equation("modified_burgers")
        assert not eq.is_dispersive
        assert eq.coefficient == -1.0
        assert np.all(linear_symbol(eq, np.linspace(-3, 3, 7)) == 0)

    # every equation is cubic: the quadratic and unscaled kinds are unknown
    @pytest.mark.parametrize("kind", ["kdv5", "fkdv", "whitham", "modified_whitham",
                                      "burgers"])
    def test_unknown_kind(self, kind):
        with pytest.raises(ConfigurationError, match="unknown equation kind"):
            make_equation(kind, alpha=-0.5)

    # the alpha range is weak dispersion; the symbol is always the scaled
    # one, so no epsilon means no symbol
    @pytest.mark.parametrize("kind,params,match", [
        ("modified_fkdv", {"alpha": 0.7}, ALPHA_RANGE),
        ("modified_fkdv", {"alpha": 0.0}, ALPHA_RANGE),
        ("modified_fkdv", {"alpha": -1.0}, ALPHA_RANGE),
        ("modified_fkdv", {"alpha": -1.5}, ALPHA_RANGE),
        ("modified_fkdv", {"alpha": float("nan")}, ALPHA_RANGE),
        ("mkdv", {"epsilon": 0.0}, EPSILON_RANGE),
        ("mkdv", {"epsilon": -1.0}, EPSILON_RANGE),
        ("mkdv", {"epsilon": float("inf")}, EPSILON_RANGE),
        ("mkdv", {"epsilon": float("nan")}, EPSILON_RANGE),
        ("rescaled_modified_whitham", {"epsilon": 0.0}, EPSILON_RANGE),
        ("rescaled_modified_whitham", {"epsilon": -1.0}, EPSILON_RANGE),
        ("rescaled_modified_whitham", {"epsilon": float("inf")}, EPSILON_RANGE),
        ("rescaled_modified_whitham", {"epsilon": float("nan")}, EPSILON_RANGE),
    ])
    def test_parameters_out_of_range(self, kind, params, match):
        with pytest.raises(ConfigurationError, match=match):
            make_equation(kind, **params)

    def test_missing_parameters(self):
        with pytest.raises(ConfigurationError):
            make_equation("modified_fkdv")
        with pytest.raises(ConfigurationError):
            make_equation("mkdv")
        with pytest.raises(ConfigurationError):
            make_equation("rescaled_modified_whitham")

    # a record built directly checks itself as make_equation's does: the
    # first gave L(4) = 8i, the second an all-zero symbol on a dispersive kind
    @pytest.mark.parametrize("args,kwargs,match", [
        (("modified_fkdv", -1.0), {"alpha": 0.5}, ALPHA_RANGE),
        (("bogus", -1.0), {}, "unknown equation kind"),
        (("modified_fkdv", -1.0), {}, "alpha is required"),
        (("mkdv", -0.1), {}, "epsilon is required"),
        (("modified_burgers", -1.0), {"alpha": 0.5}, ALPHA_RANGE),
        (("modified_fkdv", -1.0), {"alpha": -0.5, "epsilon": -1.0}, EPSILON_RANGE),
    ])
    def test_direct_record_checks_itself(self, args, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            EquationSpec(*args, **kwargs)

    def test_whole_registry_constructible_and_skew(self):
        assert len(EQUATION_KINDS) == 4
        xi = np.linspace(-20, 20, 401)
        for kind in EQUATION_KINDS:
            eq = make_equation(kind, **REGISTRY_PARAMS.get(kind, {}))
            assert is_skew(eq, xi) or not eq.is_dispersive

    def test_rescaled_whitham_scaling(self):
        eq = make_equation("rescaled_modified_whitham", epsilon=4.0)
        # -i xi l(sqrt(4) xi) at xi = 50: l(100) = 0.1
        val = linear_symbol(eq, np.array([50.0]))[0]
        assert abs(val - (-1j * 50.0 * 0.1)) < 1e-10
        assert eq.coefficient == -4.0
        # l(z) = (tanh z / z)^(1/2) takes its limit 1 at z = 0
        xi = np.array([1e-9, 0.0])
        assert np.array_equal(linear_symbol(eq, xi), -1j * xi)

    def test_equal_equations_compare_equal(self):
        eq = make_equation("modified_fkdv", alpha=-0.5)
        assert eq == make_equation("modified_fkdv", alpha=-0.5)
        assert hash(eq) == hash(make_equation("modified_fkdv", alpha=-0.5))
        assert eq != make_equation("modified_fkdv", alpha=-0.4)
        with pytest.raises(FrozenInstanceError):
            eq.coefficient = 0.0
        linear = replace(eq, coefficient=0.0)
        assert linear.coefficient == 0.0 and linear.alpha == eq.alpha



class TestNonlinearity:
    @pytest.mark.parametrize("n", [16, 512, 8192])
    @pytest.mark.parametrize("kind", EQUATION_KINDS)
    def test_matches_reference_kernel(self, kind, n):
        eq = make_equation(kind, **REGISTRY_PARAMS.get(kind, {}))
        g = make_grid(n, 16.0 * np.pi)
        rng = np.random.default_rng(n + len(kind))
        # one band inside every dealias mask, one past both edges
        for band in (n // 4 - 1, 3 * n // 8):
            c = random_band_limited(g, band, rng)
            ref = reference_nonlinearity(eq, g, c)
            out = full_nonlinearity(eq, g, c)
            assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_constant_field_gives_zero(self):
        g = make_grid(32, TWO_PI)
        eq = make_equation("modified_fkdv", alpha=-0.5)
        out = nonlinearity(eq, g, transform(g, np.full(32, 0.7)))
        assert np.max(np.abs(out)) < 1e-15

    def test_cubic_on_sine(self):
        # c = -1: -d/dx(sin^3 x / 3) = -sin^2 x cos x
        g = make_grid(64, TWO_PI)
        eq = make_equation("modified_fkdv", alpha=-0.5)
        out = inverse_transform(g, nonlinearity(eq, g, transform(g, np.sin(g.x))))
        assert np.max(np.abs(out + np.sin(g.x) ** 2 * np.cos(g.x))) < 1e-12

    def test_cubic_matches_truncated_convolution(self):
        # retained modes must carry the exact double convolution
        rng = np.random.default_rng(21)
        n = 16
        g = make_grid(n, TWO_PI)
        keep = dealias_keep(n)
        c = np.zeros(n, complex)
        for k in range(1, keep):
            c[n // 2 + k] = rng.normal() + 1j * rng.normal()
        F = asc.hermitize(0.3 * c)
        eq = make_equation("modified_fkdv", alpha=-0.5)
        out = full_nonlinearity(eq, g, F)

        # oracle: triple convolution with the transform normalization
        dxi = g.dxi
        oracle = np.zeros(n, complex)
        for o in range(n):
            tot = 0.0j
            for e in range(n):
                for s in range(n):
                    r = o - e - s + n
                    if 0 <= r < n:
                        tot += F[r] * F[e] * F[s]
            xi_o = asc.xi(g)[o]
            oracle[o] = -1j * xi_o / 3.0 / TWO_PI * tot * dxi ** 2
        mask = asc.dealias_mask(g) == 1.0
        scale = np.max(np.abs(oracle[mask]))
        assert np.max(np.abs(out[mask] - oracle[mask])) <= 1e-10 * scale

    def test_mean_exactly_preserved(self):
        rng = np.random.default_rng(1)
        g = make_grid(64, 7.0)
        eq = make_equation("modified_fkdv", alpha=-0.5)
        out = nonlinearity(eq, g, transform(g, rng.normal(size=64)))
        assert out[0] == 0.0

    def test_skew_pairing_vanishes(self):
        # cubic conservation structure against the masked field; the single
        # mode exactly at the mask edge is excluded (a triple of edge modes
        # aliases back onto the opposite edge, the one corner the inclusive
        # one-half rule does not cover -- irrelevant for decaying spectra)
        rng = np.random.default_rng(6)
        n = 64
        g = make_grid(n, TWO_PI)
        eq = make_equation("modified_fkdv", alpha=-0.5)
        keep = dealias_keep(n)
        c = np.zeros(n, complex)
        for k in range(1, keep):
            c[n // 2 + k] = rng.normal() + 1j * rng.normal()
        c = asc.hermitize(0.5 * c)
        out = full_nonlinearity(eq, g, c)
        masked = c * asc.dealias_mask(g)
        pairing = np.sum(out * np.conj(masked)).real * g.dxi
        scale = np.sum(np.abs(masked) ** 2) * g.dxi
        assert abs(pairing) <= 1e-10 * max(scale, 1.0)

    def test_zero_coefficient_gives_a_zero_band(self):
        # the band multiplier c/3 * i*xi is zero, and so is every mode of the band
        g = make_grid(32, TWO_PI)
        eq = replace(make_equation("modified_fkdv", alpha=-0.5), coefficient=0.0)
        out = nonlinearity(eq, g, transform(g, np.sin(g.x)))
        assert out.shape == (band_length(g),)
        assert np.all(out == 0)


class TestBandContract:
    """The nonlinearity reads and writes only the kept band k < m."""

    @pytest.mark.parametrize("n", [8, 16, 64, 1024, 8192])
    @pytest.mark.parametrize("kind", EQUATION_KINDS)
    def test_band_length(self, kind, n):
        eq = make_equation(kind, **REGISTRY_PARAMS.get(kind, {}))
        g = make_grid(n, TWO_PI)
        expected = n // 4 + 1
        assert band_length(g) == expected
        assert grid_tables(eq, g).multiplier.shape == (expected,)
        out = nonlinearity(eq, g, transform(g, 0.1 * np.sin(g.x)))
        assert out.shape == (expected,)

    @pytest.mark.parametrize("kind", EQUATION_KINDS)
    def test_modes_above_band_are_not_read(self, kind):
        eq = make_equation(kind, **REGISTRY_PARAMS.get(kind, {}))
        g = make_grid(256, 16.0 * np.pi)
        rng = np.random.default_rng(len(kind))
        half = asc.half_of(random_band_limited(g, g.n_points // 2 - 1, rng))
        m = band_length(g)
        changed = half.copy()
        changed[m:] = 1e3 * (rng.normal(size=len(half) - m)
                             + 1j * rng.normal(size=len(half) - m))
        assert np.array_equal(nonlinearity(eq, g, half), nonlinearity(eq, g, changed))
        assert np.array_equal(nonlinearity(eq, g, half), nonlinearity(eq, g, half[:m]))


def table_buffers(tables):
    """Every array the grid tables hold: the nonlinearity's workspace, the
    step's stage buffers and its per-dt factors."""
    factors = tables.factors[1] if tables.factors is not None else ()
    return (tables.samples, tables.cube, tables.spectrum, *tables.stages, *factors)


class TestWorkspace:
    """The nonlinearity and the step run in their grid tables' buffers,
    and what they return is their own."""

    @pytest.mark.parametrize("kind", EQUATION_KINDS)
    def test_given_samples_are_the_synthesis(self, kind):
        eq = make_equation(kind, **REGISTRY_PARAMS.get(kind, {}))
        g = make_grid(256, 16.0 * np.pi)
        half = asc.half_of(random_band_limited(g, 100, np.random.default_rng(3)))
        samples = inverse_transform(g, half[:band_length(g)])
        assert np.array_equal(nonlinearity(eq, g, half, samples=samples),
                              nonlinearity(eq, g, half))

    @pytest.mark.parametrize("kind", EQUATION_KINDS)
    def test_out_receives_the_result(self, kind):
        eq = make_equation(kind, **REGISTRY_PARAMS.get(kind, {}))
        g = make_grid(256, 16.0 * np.pi)
        half = asc.half_of(random_band_limited(g, 100, np.random.default_rng(5)))
        out = np.full(band_length(g), np.nan, dtype=complex)
        assert nonlinearity(eq, g, half, out=out) is out
        assert np.array_equal(out, nonlinearity(eq, g, half))

    def test_results_share_no_memory(self):
        eq = make_equation("modified_fkdv", alpha=-0.5)
        g = make_grid(64, TWO_PI)
        tables = grid_tables(eq, g)
        first = nonlinearity(eq, g, transform(g, 0.3 * np.sin(g.x)))
        second = nonlinearity(eq, g, transform(g, 0.2 * np.cos(g.x)))
        stepped = step_ifrk4(SolverState(0.0, g, transform(g, 0.3 * np.sin(g.x))), 0.01, eq)
        assert not np.shares_memory(first, second)
        assert len(table_buffers(tables)) == 3 + 5 + 4
        for out in (first, second, stepped.half):
            for buffer in table_buffers(tables):
                assert not np.shares_memory(out, buffer)

    @pytest.mark.parametrize("runs", [
        (("modified_fkdv", 0.01), ("modified_burgers", 0.01)),
        (("modified_fkdv", 0.01), ("modified_fkdv", 0.013)),
        (("modified_burgers", 0.01), ("modified_burgers", 0.013)),
    ], ids=["two-equations", "fkdv-two-dt", "burgers-two-dt"])
    def test_two_runs_on_one_grid_interleave(self, runs):
        # equal equations share their tables, so two step sizes on one
        # grid swap the per-dt factors on every step
        g = make_grid(256, 16.0 * np.pi)
        half = asc.half_of(random_band_limited(g, 60, np.random.default_rng(4)))
        runs = [(make_equation(kind, **REGISTRY_PARAMS.get(kind, {})), dt)
                for kind, dt in runs]
        apart = []
        for eq, dt in runs:
            state = SolverState(0.0, g, half)
            for _ in range(5):
                state = step_ifrk4(state, dt, eq)
            apart.append(state.half)
        together = [SolverState(0.0, g, half) for _ in runs]
        for _ in range(5):
            together = [step_ifrk4(state, dt, eq)
                        for state, (eq, dt) in zip(together, runs)]
        for state, half_apart in zip(together, apart):
            assert np.array_equal(state.half, half_apart)

    def test_cached_cfl_speed_serves_every_config(self):
        # the state keeps the speed, not the step: each config reads it anew
        eq = make_equation("modified_burgers")
        g = make_grid(256, 16.0 * np.pi)
        half = asc.half_of(random_band_limited(g, 60, np.random.default_rng(6)))
        state = step_ifrk4(SolverState(0.0, g, half), 0.01, eq)
        configs = (SolverConfig(dt_max=10.0), SolverConfig(dt_max=1e-4))
        assert state.cfl_speed is None
        cached = [cfl_dt(state, cfg) for cfg in configs + configs]
        assert state.cfl_speed is not None
        fresh = [cfl_dt(SolverState(state.t, g, state.half), cfg) for cfg in configs]
        assert cached == fresh + fresh
        assert 1e-4 < cached[0] < 10.0 and cached[1] == 1e-4
