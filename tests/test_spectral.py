import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fkdvlab.errors import ConfigurationError, ShapeError
from fkdvlab.spectral import (
    BOUNDARY_MASS_THRESHOLD,
    CUTOFFS,
    SpectralField,
    analysis_weights,
    band_analysis,
    band_synthesis,
    boundary_mass_fraction,
    dealias,
    dealias_keep,
    dealias_mask,
    dispersion,
    half_table,
    hermitian_defect,
    hermitize,
    inverse_transform,
    make_grid,
    mean_integral,
    norm_h11,
    norm_l2,
    norm_sobolev,
    norm_z,
    regrid,
    transform,
    whole_spectrum,
    whole_wavenumbers,
)

import ascending as asc

TWO_PI = 2.0 * np.pi


def samples(fld):
    return inverse_transform(fld.grid, fld.coeffs)


def half_energy(grid, half):
    """dxi * sum over the whole spectrum of |c|^2, read off the half spectrum."""
    weights = np.full(half.size, 2.0)
    weights[0] = weights[-1] = 1.0
    return grid.dxi * float(np.sum(weights * np.abs(half) ** 2))


class TestGrid:
    def test_wavenumbers_unit_box(self):
        g = make_grid(8, TWO_PI)
        assert np.allclose(g.wavenumbers, [0, 1, 2, 3, 4])

    def test_spacing(self):
        g = make_grid(8, 4.0 * np.pi)
        assert np.isclose(g.dxi, 0.5)
        assert np.allclose(np.diff(g.wavenumbers), 0.5)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigurationError):
            make_grid(6, TWO_PI)

    def test_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            make_grid(4, TWO_PI)

    @pytest.mark.parametrize("length", [-1.0, 0.0, float("nan"), float("inf")])
    def test_nonpositive_or_nonfinite_length_rejected(self, length):
        with pytest.raises(ConfigurationError, match="box_length must be positive and finite"):
            make_grid(16, length)

    # make_grid once truncated a non-integral size: 16.7 gave 16 points
    @pytest.mark.parametrize("n", [16.7, 16.5, 8.000001, float("nan"), float("inf")])
    def test_non_integral_size_refused(self, n):
        with pytest.raises(ConfigurationError, match="n_points must be a power of two"):
            make_grid(n, 1.0)

    def test_grid_is_its_own_key(self):
        g = make_grid(16, TWO_PI)
        assert g == make_grid(16.0, TWO_PI) and hash(g) == hash(make_grid(16, TWO_PI))
        assert g != make_grid(32, TWO_PI) and g != make_grid(16, 2.0 * TWO_PI)

    def test_dx_times_n_is_box_length(self):
        g = make_grid(64, 17.3)
        assert g.dx * g.n_points == pytest.approx(g.box_length, rel=1e-15)

    def test_half_spectrum_ends_at_nyquist(self):
        g = make_grid(16, TWO_PI)
        assert g.wavenumbers.shape == (9,)
        assert g.wavenumbers[0] == 0.0 and g.wavenumbers[-1] == 8.0


class TestTransform:
    def test_cosine_coefficients(self):
        g = make_grid(32, TWO_PI)
        f = SpectralField.from_samples(g, np.cos(g.x))
        expected = np.sqrt(np.pi / 2.0)
        assert abs(f.coeffs[1] - expected) < 1e-12
        assert np.max(np.abs(np.delete(f.coeffs, 1))) < 1e-12

    def test_zero_samples(self):
        g = make_grid(16, TWO_PI)
        assert np.all(transform(g, np.zeros(16)) == 0)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(3)
        g = make_grid(64, 5.0)
        u = rng.normal(size=64)
        back = inverse_transform(g, transform(g, u))
        assert np.max(np.abs(back - u)) <= 1e-12 * np.max(np.abs(u))

    def test_against_double_loop_dft(self):
        # independent oracle: direct O(n^2) sum with the stated normalization
        rng = np.random.default_rng(11)
        g = make_grid(16, 3.0)
        u = rng.normal(size=16)
        f = transform(g, u)
        for i, xi in enumerate(g.wavenumbers):
            direct = g.dx / np.sqrt(TWO_PI) * np.sum(u * np.exp(-1j * g.x * xi))
            assert abs(f[i] - direct) < 1e-13

    def test_shape_mismatch(self):
        g = make_grid(16, TWO_PI)
        with pytest.raises(ShapeError):
            SpectralField.from_samples(g, np.zeros(8))
        # a whole-spectrum array is not a half spectrum
        with pytest.raises(ShapeError):
            SpectralField(g, np.zeros(16, complex))

    @pytest.mark.parametrize("n", [8, 16, 512, 8192])
    def test_matches_complex_fft_formulas(self, n):
        # the real-FFT half spectrum is the non-negative half of the complex
        # FFT, and the real synthesis of any half spectrum is Re ifft of its
        # Hermitian extension with real zero and Nyquist modes
        rng = np.random.default_rng(n)
        g = make_grid(n, 7.3)
        scale = g.dx / np.sqrt(TWO_PI)
        u = rng.normal(size=n)
        ref = np.fft.fft(u)[:n // 2 + 1] * scale
        out = transform(g, u)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

        c = rng.normal(size=n // 2 + 1) + 1j * rng.normal(size=n // 2 + 1)
        whole = np.concatenate([[c[0].real], c[1:-1], [c[-1].real],
                                np.conj(c[-2:0:-1])])
        synth = np.fft.ifft(whole) / scale
        back = inverse_transform(g, c)
        assert back.dtype == np.float64
        assert np.max(np.abs(back - synth.real)) <= 1e-13 * np.max(np.abs(synth.real))
        assert np.max(np.abs(synth.imag)) <= 1e-13 * np.max(np.abs(synth.real))

    @pytest.mark.parametrize("n", [8, 16, 512, 8192])
    def test_kernels_match_numpy_fft(self, n):
        # the pair calls numpy's FFT kernels itself: each output is
        # numpy.fft's, bit for bit, on rows as on one field, NaN, infinities
        # and signed zeros included; modes cut each row, not the rows
        rng = np.random.default_rng(n)
        g = make_grid(n, 7.3)
        scale = g.dx / np.sqrt(TWO_PI)

        def same_bits(got, want):
            assert got.dtype == want.dtype and got.shape == want.shape
            for part in (np.real, np.imag):
                assert np.array_equal(part(got), part(want), equal_nan=True)
                assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))

        u = rng.normal(size=(3, n))
        u[0, 1] = -0.0
        u[1, :4] = [np.nan, np.inf, -np.inf, -0.0]
        u[2] = -0.0
        c = rng.normal(size=(3, n // 2 + 1)) + 1j * rng.normal(size=(3, n // 2 + 1))
        c[0, 1] = complex(-0.0, -0.0)
        c[1, :4] = [np.nan, complex(np.inf, 1.0), complex(0.0, -np.inf), -0.0]
        c[2] = complex(-0.0, -0.0)
        m = n // 4 + 1
        cases = [(u[i], modes) for i in range(3) for modes in (None, m)] + [(u, None), (u, m)]
        # both sides warn alike on the NaN and infinite entries
        with np.errstate(invalid="ignore"):
            for x, modes in cases:
                same_bits(transform(g, x, modes), np.fft.rfft(x)[..., :modes] * scale)
            for h in [*c, c, *c[:, :m], c[:, :m]]:
                same_bits(inverse_transform(g, h), np.fft.irfft(h * (np.sqrt(TWO_PI) / g.dx), n))

    @pytest.mark.parametrize("imag", [0.0, 1.0])
    def test_complex_samples_refused(self, imag):
        # a complex array is refused even with a zero imaginary part, which
        # older numpy real FFTs would drop with only a warning
        g = make_grid(16, TWO_PI)
        with pytest.raises(TypeError, match="real samples"):
            SpectralField.from_samples(g, np.cos(g.x) + 1j * imag * np.sin(g.x))


class TestBandPair:
    """The kept band's transform pair, in the two-phase layout (even
    samples, then odd), against numpy.fft's natural-order transforms."""

    @pytest.mark.parametrize("n", [8, 16, 512, 8192])
    def test_band_kernels_match_numpy_fft(self, n):
        # random bands fill the boundary mode n/4, the half-length grid's
        # Nyquist slot, and a complex zero mode; each side of the pair is
        # the natural-order transform to round-off
        rng = np.random.default_rng(n)
        g = make_grid(n, 7.3)
        m = dealias_keep(n) + 1
        scale = g.dx / np.sqrt(TWO_PI)
        band = rng.normal(size=m) + 1j * rng.normal(size=m)
        padded = np.zeros(n // 2 + 1, dtype=complex)
        padded[:m] = band
        want = np.fft.irfft(padded / scale, n).reshape(-1, 2).T
        out = np.empty((2, n // 2))
        assert band_synthesis(g, band, out=out) is out
        assert np.array_equal(band_synthesis(g, band), out)
        assert np.max(np.abs(out - want)) <= 1e-15 * np.max(np.abs(want))

        u = rng.normal(size=n)
        want = np.fft.rfft(u)[:m] * scale
        out = np.empty((2, m), dtype=complex)
        assert band_analysis(g, u.reshape(-1, 2).T, out=out) is out
        assert np.array_equal(band_analysis(g, u.reshape(-1, 2).T), out)
        got = (analysis_weights(g) * out).sum(axis=0)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


class TestWholeSpectrum:
    @pytest.mark.parametrize("n", [8, 16, 1024])
    def test_is_the_ascending_reference(self, n):
        # a real Nyquist mode: the reference puts it on the first row as is
        rng = np.random.default_rng(n)
        g = make_grid(n, 7.3)
        half = rng.normal(size=n // 2 + 1) + 1j * rng.normal(size=n // 2 + 1)
        half[-1] = half[-1].real
        assert np.array_equal(whole_wavenumbers(g), asc.xi(g))
        assert np.array_equal(whole_spectrum(half), asc.mirror(half))

    @pytest.mark.parametrize("n", [8, 16, 1024])
    def test_rows_are_mirrored_one_by_one(self, n):
        rng = np.random.default_rng(n + 1)
        rows = rng.normal(size=(3, n // 2 + 1)) + 1j * rng.normal(size=(3, n // 2 + 1))
        rows[:, -1] = rows[:, -1].real
        whole = whole_spectrum(rows)
        assert whole.shape == (3, n)
        for row, half in zip(whole, rows):
            assert np.array_equal(row, asc.mirror(half))
        # real rows stay real
        mag = whole_spectrum(np.abs(rows))
        assert mag.dtype == np.float64
        assert np.array_equal(mag, np.abs(whole))

    def test_complex_nyquist_mode_is_mirrored(self):
        # mode -n/2 is the conjugate of mode +n/2, as for every other pair
        rows = np.outer([1.0, -3.0], np.arange(9) * (1.0 + 2.0j))
        whole = whole_spectrum(rows)
        assert whole[:, 0].tolist() == [8.0 - 16.0j, -24.0 + 48.0j]
        for row, half in zip(whole, rows):
            assert np.array_equal(row[1:], asc.mirror(half)[1:])


class TestMultipliers:
    def test_derivative_on_sine(self):
        g = make_grid(32, TWO_PI)
        f = SpectralField.from_samples(g, np.sin(g.x))
        out = inverse_transform(g, f.coeffs * half_table(g, lambda xi: 1j * xi))
        assert np.max(np.abs(out - np.cos(g.x))) < 1e-12

    def test_half_table_zeroes_nyquist(self):
        g = make_grid(32, TWO_PI)
        values = np.ones(17)
        table = half_table(g, lambda xi: values)
        assert table.dtype == complex
        assert table[-1] == 0.0 and np.all(table[:-1] == 1.0)
        assert values[-1] == 1.0    # the symbol's own array is left alone

    def test_dispersion_values(self):
        # a(xi) = sign(xi)|xi|^(1/2) at alpha = -1/2: real and odd
        assert np.array_equal(dispersion(-0.5, [4.0, 0.0, -1.0, -9.0]),
                              [2.0, 0.0, -1.0, -3.0])
        xi = np.linspace(-20.0, 20.0, 41)
        for alpha in (-0.9, -0.5, -0.1):
            assert np.array_equal(dispersion(alpha, -xi), -dispersion(alpha, xi))


class TestDyadicCutoffs:
    def test_plateau_and_support(self):
        assert CUTOFFS.phi(np.array([0.3, 1.0]))[0] == 1.0
        assert CUTOFFS.phi(np.array([1.0]))[0] == 1.0
        assert CUTOFFS.phi(np.array([2.0]))[0] == 0.0
        assert CUTOFFS.phi(np.array([2.5]))[0] == 0.0

    def test_partition_of_unity(self):
        xi = np.linspace(-40.0, 40.0, 1001)
        total = CUTOFFS.phi(xi)
        for j in range(1, 8):
            total = total + CUTOFFS.psi_j(xi, j)
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_band_support(self):
        xi = np.linspace(-10, 10, 2001)
        for j in (-1, 0, 2):
            band = CUTOFFS.psi_j(xi, j)
            outside = (np.abs(xi) < 2.0 ** (j - 1) - 1e-9) | (np.abs(xi) > 2.0 ** (j + 1) + 1e-9)
            assert np.max(np.abs(band[outside])) == 0.0

    def test_disjoint_band_product_is_exactly_zero(self):
        g = make_grid(256, TWO_PI)
        xi = g.wavenumbers
        for j in (0, 1):
            overlap = CUTOFFS.psi_j(xi, j) * CUTOFFS.psi_j(xi, j + 2)
            assert np.max(np.abs(overlap)) == 0.0


class TestNorms:
    def test_sine_l2(self):
        g = make_grid(64, TWO_PI)
        f = SpectralField.from_samples(g, np.sin(g.x))
        assert norm_l2(f) == pytest.approx(np.sqrt(np.pi), rel=1e-12)

    def test_sine_h1(self):
        g = make_grid(64, TWO_PI)
        f = SpectralField.from_samples(g, np.sin(g.x))
        assert norm_sobolev(f, 1.0) == pytest.approx(np.sqrt(TWO_PI), rel=1e-12)

    def test_z_single_coefficient(self):
        g = make_grid(32, TWO_PI)
        c = np.zeros(17, complex)
        c[1] = 1.0
        assert norm_z(SpectralField(g, c)) == pytest.approx(1024.0)

    def test_parseval(self):
        rng = np.random.default_rng(2)
        g = make_grid(128, 11.0)
        f = SpectralField.from_samples(g, rng.normal(size=128))
        assert norm_l2(f) == pytest.approx(np.sqrt(half_energy(g, f.coeffs)), rel=1e-10)
        assert norm_sobolev(f, 0.0) == pytest.approx(norm_l2(f), rel=1e-12)

    def test_z_dilation_covariance(self):
        # same coefficients read at doubled wavenumbers: recompute directly
        rng = np.random.default_rng(4)
        g1 = make_grid(64, TWO_PI)
        g2 = make_grid(64, np.pi)          # wavenumbers doubled
        c = rng.normal(size=33) + 1j * rng.normal(size=33)
        z2 = norm_z(SpectralField(g2, c))
        direct = np.max((1.0 + np.abs(2.0 * g1.wavenumbers)) ** 10 * np.abs(c))
        assert z2 == pytest.approx(direct, rel=1e-12)

    def test_h11_localized_no_warning(self):
        import warnings
        g = make_grid(256, 64.0 * np.pi)
        f = SpectralField.from_samples(g, 0.1 * np.exp(-((g.x - g.x_center)) ** 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = norm_h11(f)
        assert value > 0

    def test_boundary_mass_fraction(self):
        g = make_grid(128, TWO_PI)
        spread = SpectralField.from_samples(g, np.sin(g.x))   # mass everywhere
        assert boundary_mass_fraction(spread) > BOUNDARY_MASS_THRESHOLD
        g = make_grid(256, 64.0 * np.pi)
        local = SpectralField.from_samples(g, 0.1 * np.exp(-((g.x - g.x_center)) ** 2))
        assert boundary_mass_fraction(local) <= BOUNDARY_MASS_THRESHOLD

    def test_mean_integral(self):
        g = make_grid(64, TWO_PI)
        f = SpectralField.from_samples(g, 2.0 + np.cos(g.x))
        assert mean_integral(f) == pytest.approx(4.0 * np.pi, rel=1e-12)


class TestDealias:
    def test_cubic_rule(self):
        g = make_grid(32, TWO_PI)
        f = SpectralField(g, np.ones(17, complex))
        out = dealias(f)
        zeroed = g.mode_index > 8
        assert np.all(out.coeffs[zeroed] == 0)
        assert np.all(out.coeffs[~zeroed] == 1)

    def test_band_limited_unchanged(self):
        g = make_grid(32, TWO_PI)
        c = np.zeros(17, complex)
        c[3] = 1.0
        f = SpectralField(g, c)
        assert np.all(dealias(f).coeffs == c)


class TestHermitianAndUnitarity:
    def test_hermitize_enforces_symmetry(self):
        rng = np.random.default_rng(7)
        g = make_grid(32, TWO_PI)
        f = SpectralField(g, rng.normal(size=17) + 1j * rng.normal(size=17))
        assert hermitian_defect(f) == 2.0 * abs(f.coeffs[0].imag) > 0.0
        h = hermitize(f)
        assert hermitian_defect(h) == 0.0
        assert h.coeffs[-1] == 0.0
        assert np.array_equal(h.coeffs[:-1], np.append(f.coeffs[0].real, f.coeffs[1:-1]))

    def test_skew_exponential_preserves_l2(self):
        rng = np.random.default_rng(8)
        g = make_grid(128, 16.0)
        f = hermitize(SpectralField.from_samples(g, rng.normal(size=128)))
        symbol = half_table(g, lambda xi: 1j * dispersion(-0.5, xi))
        for t in (0.5, 3.0, 17.0):
            evolved = SpectralField(g, np.exp(t * symbol) * f.coeffs)
            assert norm_l2(evolved) == pytest.approx(norm_l2(f), rel=1e-12)


SIZES = st.sampled_from([8, 16, 32, 64, 128])
BOXES = st.sampled_from([TWO_PI, 16.0, 64.0 * np.pi])
VALUES = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def real_samples(draw):
    n = draw(SIZES)
    return make_grid(n, draw(BOXES)), draw(arrays(float, n, elements=VALUES))


@st.composite
def band_limited(draw, keep):
    """A grid and the half spectrum of a real field whose modes satisfy
    |k| <= keep(n): the zero mode real, every mode above keep zero."""
    n = draw(SIZES)
    m = keep(n) + 1
    re = draw(arrays(float, m, elements=VALUES))
    im = draw(arrays(float, m, elements=VALUES))
    half = np.zeros(n // 2 + 1, dtype=complex)
    half[:m] = re + 1j * im
    half[0] = half[0].real
    return make_grid(n, draw(BOXES)), half


class TestTransformProperties:
    @settings(max_examples=100, deadline=None)
    @given(real_samples())
    def test_half_round_trip(self, case):
        grid, u = case
        back = inverse_transform(grid, transform(grid, u))
        assert np.allclose(back, u, rtol=0.0, atol=1e-12 * (1.0 + np.max(np.abs(u))))

    @settings(max_examples=100, deadline=None)
    @given(real_samples())
    def test_half_parseval(self, case):
        grid, u = case
        physical = grid.dx * float(np.sum(u * u))
        assert half_energy(grid, transform(grid, u)) == pytest.approx(
            physical, rel=1e-12, abs=1e-300)

    @settings(max_examples=100, deadline=None)
    @given(band_limited(lambda n: n // 2 - 1))
    def test_regrid_up_then_down_is_identity(self, case):
        grid, half = case
        fld = SpectralField(grid, half)
        fine = make_grid(4 * grid.n_points, grid.box_length)
        up = regrid(fld, fine)
        assert np.array_equal(regrid(up, grid).coeffs, fld.coeffs)
        # the finer grid carries the same function: it agrees at shared points
        scale = 1.0 + np.max(np.abs(half)) / grid.dx
        assert np.allclose(samples(up)[::4], samples(fld), rtol=0.0, atol=1e-11 * scale)

    @settings(max_examples=100, deadline=None)
    @given(band_limited(lambda n: n // 2))
    def test_regrid_splits_the_nyquist_mode(self, case):
        # the coarse Nyquist mode n/2 is the pair +-n/2 on the finer grid,
        # half of it each: padding keeps the function only with the split
        grid, half = case
        half[-1] = half[-1].real
        fine = make_grid(2 * grid.n_points, grid.box_length)
        up = regrid(SpectralField(grid, half), fine)
        assert up.coeffs[grid.n_points // 2] == 0.5 * half[-1]
        scale = 1.0 + np.max(np.abs(half)) / grid.dx
        assert np.allclose(inverse_transform(fine, up.coeffs)[::2],
                           inverse_transform(grid, half), rtol=0.0, atol=1e-11 * scale)


def cube_on_grid(grid, half):
    """Half spectrum of the pointwise cube on this grid."""
    return transform(grid, inverse_transform(grid, half) ** 3)


def exact_cube(grid, half):
    """Half spectrum of the exact cube, computed on a grid four times finer
    (where no mode of the cube aliases) and cut back to this grid."""
    fine = make_grid(4 * grid.n_points, grid.box_length)
    padded = np.zeros(fine.n_points // 2 + 1, dtype=complex)
    padded[:half.size - 1] = half[:-1]
    return cube_on_grid(fine, padded)[:half.size]


class TestCubicDealias:
    @settings(max_examples=100, deadline=None)
    @given(band_limited(lambda n: dealias_keep(n) - 1))
    def test_products_inside_the_band_are_alias_free(self, case):
        # input modes strictly inside the kept band: every kept output mode
        # of the grid product is the exact truncated convolution
        grid, half = case
        mask = dealias_mask(grid)
        got, want = cube_on_grid(grid, half) * mask, exact_cube(grid, half) * mask
        scale = 1.0 + np.max(np.abs(half)) ** 3 * (grid.n_points / grid.dx) ** 2
        assert np.allclose(got, want, rtol=0.0, atol=1e-10 * scale)

    @settings(max_examples=100, deadline=None)
    @given(band_limited(lambda n: dealias_keep(n)))
    def test_interior_modes_of_masked_products_are_alias_free(self, case):
        grid, half = case
        interior = np.arange(half.size) < dealias_keep(grid.n_points)
        got, want = cube_on_grid(grid, half), exact_cube(grid, half)
        scale = 1.0 + np.max(np.abs(half)) ** 3 * (grid.n_points / grid.dx) ** 2
        assert np.allclose(got[interior], want[interior], rtol=0.0, atol=1e-10 * scale)

    @pytest.mark.xfail(strict=True, reason=(
        "dealias_keep(n) = n // 4 keeps the modes |k| = n/4, and three of "
        "them make mode 3n/4, which the n-point grid folds back onto -n/4: "
        "cos(4x)^3 on 16 points puts 1 instead of 3/4 into mode 4.  Keeping "
        "n // 4 - 1 would cure it but moves every cubic study's output"))
    def test_boundary_mode_is_alias_free(self):
        grid = make_grid(16, TWO_PI)
        half = transform(grid, np.cos(4.0 * grid.x))
        mask = dealias_mask(grid)
        assert np.allclose(cube_on_grid(grid, half * mask) * mask,
                           exact_cube(grid, half) * mask, atol=1e-12)
