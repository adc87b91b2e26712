import numpy as np
import pytest

from fkdvlab.equations import (
    EQUATION_KINDS,
    linearized,
    make_equation,
    nonlinearity,
)
from fkdvlab.errors import ConfigurationError
from fkdvlab.spectral import (
    SpectralField,
    dealias,
    dealias_keep,
    full_spectrum,
    half_inverse_transform,
    half_spectrum,
    half_transform,
    hermitize,
    make_grid,
)

TWO_PI = 2.0 * np.pi
SQRT_2PI = np.sqrt(TWO_PI)

REGISTRY_PARAMS = {"modified_fkdv": {"alpha": -0.5},
                   "rescaled_modified_whitham": {"epsilon": 0.1},
                   "mkdv": {"epsilon": 0.1}}


def reference_nonlinearity(eq, u_hat):
    """The kernel written out step by step with complex FFTs: dealias,
    inverse transform, cube, transform, i*xi, dealias."""
    grid = u_hat.grid
    v_hat = dealias(u_hat).coeffs
    v = (np.fft.ifft(np.fft.ifftshift(v_hat)) * (SQRT_2PI / grid.dx)).real
    w_hat = np.fft.fftshift(np.fft.fft(v ** 3 / 3)) * (grid.dx / SQRT_2PI)
    out = (1j * grid.wavenumbers) * w_hat
    out[0] = 0.0
    return dealias(SpectralField(grid, eq.nonlinearity_coefficient * out)).coeffs


def zero_padded(grid, band):
    """A band k = 0 ... m - 1 as a half spectrum, zero above the band."""
    half = np.zeros(grid.n_points // 2 + 1, dtype=complex)
    half[:len(band)] = band
    return half


def full_nonlinearity(eq, u_hat):
    """The solver's band-limited nonlinearity of a full-spectrum field,
    zero-padded and mirrored back into the full spectrum."""
    grid = u_hat.grid
    band = nonlinearity(eq, grid, half_spectrum(u_hat))
    return full_spectrum(grid, zero_padded(grid, band))


def is_skew(symbol, xi, tol=1e-12):
    """True if m(-xi) == conj(m(xi)) and m is purely imaginary on ``xi``."""
    m = np.asarray(symbol.evaluate(xi), dtype=complex)
    m_neg = np.asarray(symbol.evaluate(-xi), dtype=complex)
    scale = max(1.0, float(np.max(np.abs(m))))
    return (np.max(np.abs(m.real)) <= tol * scale
            and np.max(np.abs(m_neg - np.conj(m))) <= tol * scale)


def random_band_limited(grid, band, rng, amplitude=0.5):
    """Hermitian field with random coefficients on 0 < |k| <= band."""
    n = grid.n_points
    c = np.zeros(n, complex)
    k = np.arange(1, band + 1)
    c[n // 2 + k] = rng.normal(size=band) + 1j * rng.normal(size=band)
    c[n // 2 - k] = np.conj(c[n // 2 + k])
    return SpectralField(grid, amplitude * c / np.sqrt(band))


class TestRegistry:
    def test_modified_fkdv(self):
        eq = make_equation("modified_fkdv", alpha=-0.5)
        assert eq.nonlinearity_coefficient == -1.0
        assert abs(eq.linear_symbol.evaluate(np.array([4.0]))[0] - 2j) < 1e-14

    def test_mkdv_symbol_zero_crossing(self):
        # -i xi + i (eps/6) xi^3 vanishes where xi^2 = 6/eps
        eq = make_equation("mkdv", epsilon=1.0)
        xi0 = np.sqrt(6.0)
        assert abs(eq.linear_symbol.evaluate(np.array([xi0]))[0]) < 1e-12
        val = eq.linear_symbol.evaluate(np.array([1.0]))[0]
        assert abs(val - (-1j + 1j / 6.0)) < 1e-14

    def test_modified_burgers(self):
        eq = make_equation("modified_burgers")
        assert not eq.is_dispersive
        assert eq.nonlinearity_coefficient == -1.0
        assert np.all(eq.linear_symbol.evaluate(np.linspace(-3, 3, 7)) == 0)

    # every equation is cubic: the quadratic and unscaled kinds are unknown
    @pytest.mark.parametrize("kind", ["kdv5", "fkdv", "whitham", "modified_whitham",
                                      "burgers"])
    def test_unknown_kind(self, kind):
        with pytest.raises(ConfigurationError, match="unknown equation kind"):
            make_equation(kind, alpha=-0.5)

    @pytest.mark.parametrize("kind,params,match", [
        ("modified_fkdv", {"alpha": 0.7}, "alpha"),
        ("mkdv", {"epsilon": 0.0}, "epsilon"),
        ("rescaled_modified_whitham", {"epsilon": -1.0}, "epsilon"),
        ("modified_fkdv", {"alpha": 0.0}, "alpha"),
        ("modified_fkdv", {"alpha": -1.0}, "alpha"),
        ("modified_fkdv", {"alpha": float("nan")}, "alpha"),
        ("mkdv", {"epsilon": float("inf")}, "epsilon"),
        ("mkdv", {"epsilon": float("nan")}, "epsilon"),
        ("rescaled_modified_whitham", {"epsilon": float("inf")}, "epsilon"),
        ("rescaled_modified_whitham", {"epsilon": float("nan")}, "epsilon"),
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

    def test_whole_registry_constructible_and_skew(self):
        assert len(EQUATION_KINDS) == 4
        xi = np.linspace(-20, 20, 401)
        for kind in EQUATION_KINDS:
            eq = make_equation(kind, **REGISTRY_PARAMS.get(kind, {}))
            assert is_skew(eq.linear_symbol, xi) or not eq.is_dispersive

    def test_rescaled_whitham_scaling(self):
        eq = make_equation("rescaled_modified_whitham", epsilon=4.0)
        # -i xi l(sqrt(4) xi) at xi = 50: l(100) = 0.1
        val = eq.linear_symbol.evaluate(np.array([50.0]))[0]
        assert abs(val - (-1j * 50.0 * 0.1)) < 1e-10
        assert eq.nonlinearity_coefficient == -4.0

    def test_linearized(self):
        eq = linearized(make_equation("modified_fkdv", alpha=-0.5))
        assert eq.nonlinearity_coefficient == 0.0


class TestNonlinearity:
    @pytest.mark.parametrize("n", [16, 512, 8192])
    @pytest.mark.parametrize("kind", EQUATION_KINDS)
    def test_matches_reference_kernel(self, kind, n):
        eq = make_equation(kind, **REGISTRY_PARAMS.get(kind, {}))
        g = make_grid(n, 16.0 * np.pi)
        rng = np.random.default_rng(n + len(kind))
        # one band inside every dealias mask, one past both edges
        for band in (n // 4 - 1, 3 * n // 8):
            u_hat = random_band_limited(g, band, rng)
            ref = reference_nonlinearity(eq, u_hat)
            out = full_nonlinearity(eq, u_hat).coeffs
            assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_constant_field_gives_zero(self):
        g = make_grid(32, TWO_PI)
        eq = make_equation("modified_fkdv", alpha=-0.5)
        out = nonlinearity(eq, g, half_transform(g, np.full(32, 0.7)))
        assert np.max(np.abs(out)) < 1e-15

    def test_cubic_on_sine(self):
        # c = -1: -d/dx(sin^3 x / 3) = -sin^2 x cos x
        g = make_grid(64, TWO_PI)
        eq = make_equation("modified_fkdv", alpha=-0.5)
        out = half_inverse_transform(g, nonlinearity(eq, g, half_transform(g, np.sin(g.x))))
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
        u_hat = hermitize(SpectralField(g, 0.3 * c))
        eq = make_equation("modified_fkdv", alpha=-0.5)
        out = full_nonlinearity(eq, u_hat)

        # oracle: triple convolution with the transform normalization
        F = u_hat.coeffs
        dxi = g.dxi
        oracle = np.zeros(n, complex)
        for o in range(n):
            tot = 0.0j
            for e in range(n):
                for s in range(n):
                    r = o - e - s + n
                    if 0 <= r < n:
                        tot += F[r] * F[e] * F[s]
            xi_o = g.wavenumbers[o]
            oracle[o] = -1j * xi_o / 3.0 / TWO_PI * tot * dxi ** 2
        mask = np.abs(g.mode_index) <= keep
        scale = np.max(np.abs(oracle[mask]))
        assert np.max(np.abs(out.coeffs[mask] - oracle[mask])) <= 1e-10 * scale

    def test_mean_exactly_preserved(self):
        rng = np.random.default_rng(1)
        g = make_grid(64, 7.0)
        eq = make_equation("modified_fkdv", alpha=-0.5)
        out = nonlinearity(eq, g, half_transform(g, rng.normal(size=64)))
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
        u_hat = hermitize(SpectralField(g, 0.5 * c))
        out = full_nonlinearity(eq, u_hat)
        masked = dealias(u_hat)
        pairing = np.sum(out.coeffs * np.conj(masked.coeffs)).real * g.dxi
        scale = np.sum(np.abs(masked.coeffs) ** 2) * g.dxi
        assert abs(pairing) <= 1e-10 * max(scale, 1.0)

    def test_zero_coefficient_shortcut(self):
        g = make_grid(32, TWO_PI)
        eq = linearized(make_equation("modified_fkdv", alpha=-0.5))
        out = nonlinearity(eq, g, half_transform(g, np.sin(g.x)))
        assert out.shape == (eq.band_length(g),)
        assert np.all(out == 0)


class TestBandContract:
    """The nonlinearity reads and writes only the kept band k < m."""

    @pytest.mark.parametrize("n", [8, 16, 64, 1024, 8192])
    @pytest.mark.parametrize("kind", EQUATION_KINDS)
    def test_band_length(self, kind, n):
        eq = make_equation(kind, **REGISTRY_PARAMS.get(kind, {}))
        g = make_grid(n, TWO_PI)
        expected = n // 4 + 1
        assert eq.band_length(g) == expected
        assert eq.nonlinear_multiplier(g).shape == (expected,)
        out = nonlinearity(eq, g, half_transform(g, 0.1 * np.sin(g.x)))
        assert out.shape == (expected,)

    @pytest.mark.parametrize("kind", EQUATION_KINDS)
    def test_modes_above_band_are_not_read(self, kind):
        eq = make_equation(kind, **REGISTRY_PARAMS.get(kind, {}))
        g = make_grid(256, 16.0 * np.pi)
        rng = np.random.default_rng(len(kind))
        half = half_spectrum(random_band_limited(g, g.n_points // 2 - 1, rng))
        m = eq.band_length(g)
        changed = half.copy()
        changed[m:] = 1e3 * (rng.normal(size=len(half) - m)
                             + 1j * rng.normal(size=len(half) - m))
        assert np.array_equal(nonlinearity(eq, g, half), nonlinearity(eq, g, changed))
        assert np.array_equal(nonlinearity(eq, g, half), nonlinearity(eq, g, half[:m]))
