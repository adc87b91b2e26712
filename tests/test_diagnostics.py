import numpy as np
import pytest

from fkdvlab.diagnostics import (
    STATIONARY_RATE,
    PhaseAccumulator,
    compute_profile,
    difference_rate,
    fit_power_law,
    phase_prefactor,
    z_distance,
)
from fkdvlab.equations import linear_symbol, make_equation
from fkdvlab.errors import (
    ConfigurationError,
    GridMismatchError,
    InsufficientDataError,
    SequencingError,
)
from fkdvlab.spectral import (
    SpectralField,
    hermitian_defect,
    hermitize,
    make_grid,
    norm_z,
    z_weight,
)

TWO_PI = 2.0 * np.pi


def random_field(grid, rng):
    return hermitize(SpectralField.from_samples(grid, rng.normal(size=grid.n_points)))


def single_mode(grid, xi0=1.0, value=1.0):
    c = np.zeros(grid.n_points // 2 + 1, complex)
    c[np.argmin(np.abs(grid.wavenumbers - xi0))] = value
    return SpectralField(grid, c)


class TestProfile:
    def test_identity_at_t0(self):
        g = make_grid(32, TWO_PI)
        eq = make_equation("modified_fkdv", alpha=-0.5)
        f = single_mode(g)
        assert np.allclose(compute_profile(f, 0.0, eq).coeffs, f.coeffs)

    def test_single_mode_phase(self):
        g = make_grid(32, TWO_PI)
        eq = make_equation("modified_fkdv", alpha=-0.5)
        f_hat = compute_profile(single_mode(g), 1.0, eq)
        i = np.argmin(np.abs(g.wavenumbers - 1.0))
        assert abs(f_hat.coeffs[i] - np.exp(-1j)) < 1e-14

    def test_modulus_invariance(self):
        rng = np.random.default_rng(3)
        g = make_grid(64, TWO_PI)
        eq = make_equation("modified_fkdv", alpha=-0.7)
        f = random_field(g, rng)
        f_hat = compute_profile(f, 13.7, eq)
        assert np.allclose(np.abs(f_hat.coeffs), np.abs(f.coeffs))

    def test_requires_dispersive_equation(self):
        g = make_grid(32, TWO_PI)
        with pytest.raises(ConfigurationError):
            compute_profile(single_mode(g), 1.0, make_equation("modified_burgers"))


class TestPhaseAccumulator:
    def test_constant_weight_analytic(self):
        # constant |f_hat|^2 = c from t=1 to t=e gives H = prefactor * c;
        # at alpha=-1/2, xi=1 the prefactor is -1/(alpha(alpha+1)) = +4
        g = make_grid(32, TWO_PI)
        acc = PhaseAccumulator(g, -0.5)
        c_val = 0.3
        i = np.argmin(np.abs(g.wavenumbers - 1.0))
        for t in (1.0, np.sqrt(np.e), np.e):
            acc.correct(t, single_mode(g, 1.0, np.sqrt(c_val)))
        assert acc.H[i] == pytest.approx(4.0 * c_val, rel=1e-12)
        assert phase_prefactor(np.array([1.0]), -0.5)[0] == pytest.approx(4.0)

    def test_zero_mode_stays_zero(self):
        g = make_grid(32, TWO_PI)
        acc = PhaseAccumulator(g, -0.5)
        for t in (1.0, 2.0, 4.0):
            acc.correct(t, single_mode(g, 0.0, 1.0))
        assert acc.H[0] == 0.0

    def test_oddness(self):
        # H(-xi) = -H(xi): the prefactor is odd and |f_hat|^2 even, so the
        # half spectrum's H determines the whole
        rng = np.random.default_rng(4)
        g = make_grid(64, TWO_PI)
        eq = make_equation("modified_fkdv", alpha=-0.5)
        u = random_field(g, rng)
        acc = PhaseAccumulator(g, -0.5)
        for t in (1.0, 2.0, 3.0):
            acc.correct(t, compute_profile(u, t, eq))
        assert np.array_equal(phase_prefactor(-g.wavenumbers, -0.5) * acc.integral, -acc.H)

    def test_log_weight_quadrature_exact_for_linear(self):
        # |f_hat(s)|^2 = ln s is linear in tau = ln s, so the trapezoid
        # panels reproduce the analytic (ln t)^2 / 2 exactly
        g = make_grid(32, TWO_PI)
        i = np.argmin(np.abs(g.wavenumbers - 1.0))
        t_final = np.e ** 2
        analytic = phase_prefactor(np.array([1.0]), -0.5)[0] * (np.log(t_final)) ** 2 / 2
        acc = PhaseAccumulator(g, -0.5)
        for t in np.exp(np.linspace(0.0, 2.0, 3)):
            acc.correct(t, single_mode(g, 1.0, np.sqrt(max(np.log(t), 0.0))))
        assert acc.H[i] == pytest.approx(analytic, rel=1e-12)

    def test_quadrature_second_order_for_curved_weight(self):
        # |f_hat(s)|^2 = s is convex in tau; node refinement converges at
        # second order to the analytic integral t - 1
        g = make_grid(32, TWO_PI)
        i = np.argmin(np.abs(g.wavenumbers - 1.0))
        t_final = np.e
        analytic = phase_prefactor(np.array([1.0]), -0.5)[0] * (t_final - 1.0)

        def run(nodes):
            acc = PhaseAccumulator(g, -0.5)
            for t in np.exp(np.linspace(0.0, 1.0, nodes)):
                acc.correct(t, single_mode(g, 1.0, np.sqrt(t)))
            return acc.H[i]

        errs = [abs(run(nodes) - analytic) for nodes in (5, 9, 17)]
        orders = [np.log2(errs[j] / errs[j + 1]) for j in range(2)]
        assert min(orders) > 1.8

    def test_pre_unit_time_snapshots_ignored(self):
        # the phase integral starts at t = 1: an earlier profile is its own
        # corrected profile and leaves the accumulator as it was
        rng = np.random.default_rng(6)
        g = make_grid(32, TWO_PI)
        acc = PhaseAccumulator(g, -0.5)
        f = random_field(g, rng)
        assert np.array_equal(acc.correct(0.5, f).coeffs, f.coeffs)
        assert acc.last_t is None
        assert np.all(acc.H == 0.0)

    def test_out_of_order_rejected(self):
        g = make_grid(32, TWO_PI)
        acc = PhaseAccumulator(g, -0.5)
        acc.correct(2.0, single_mode(g))
        with pytest.raises(SequencingError):
            acc.correct(1.5, single_mode(g))

    def test_grid_mismatch_rejected(self):
        acc = PhaseAccumulator(make_grid(32, TWO_PI), -0.5)
        with pytest.raises(GridMismatchError):
            acc.correct(1.0, single_mode(make_grid(64, TWO_PI)))


class TestCorrectedProfile:
    def test_zero_phase_identity(self):
        g = make_grid(32, TWO_PI)
        acc = PhaseAccumulator(g, -0.5)
        f = single_mode(g)
        assert np.allclose(acc.correct(1.0, f).coeffs, f.coeffs)

    def test_modulus_preserved_and_hermitian(self):
        rng = np.random.default_rng(5)
        g = make_grid(64, TWO_PI)
        eq = make_equation("modified_fkdv", alpha=-0.5)
        u = random_field(g, rng)
        acc = PhaseAccumulator(g, -0.5)
        for t in (1.0, 2.0):
            f_hat = compute_profile(u, t, eq)
            gfld = acc.correct(t, f_hat)
        assert np.allclose(np.abs(gfld.coeffs), np.abs(f_hat.coeffs))
        assert hermitian_defect(gfld) == 0.0
        # g at the negative modes, from exp(i H(-xi)) f_hat(-xi), is the
        # conjugate of g at the positive ones
        lin = linear_symbol(eq, -g.wavenumbers)
        lin[-1] = 0.0
        f_neg = np.exp(-2.0 * lin) * np.conj(u.coeffs)
        g_neg = np.exp(1j * phase_prefactor(-g.wavenumbers, -0.5) * acc.integral) * f_neg
        assert np.allclose(g_neg, np.conj(gfld.coeffs), rtol=0.0, atol=1e-15)

    def test_pi_phase_flips_sign(self):
        # the first profile at t >= 1 adds no panel, so H is the one set here
        g = make_grid(32, TWO_PI)
        acc = PhaseAccumulator(g, -0.5)
        f = single_mode(g)
        i = np.argmin(np.abs(g.wavenumbers - 1.0))
        acc.integral[i] = np.pi / acc.prefactor[i]
        out = acc.correct(2.0, f)
        assert abs(out.coeffs[i] + f.coeffs[i]) < 1e-14


class TestZDistance:
    def test_equal_fields(self):
        g = make_grid(32, TWO_PI)
        f = single_mode(g)
        assert z_distance(f, f) == 0.0

    def test_single_mode_difference(self):
        g = make_grid(32, TWO_PI)
        f1 = single_mode(g, 1.0, 1.0)
        f2 = single_mode(g, 1.0, 1.01)
        assert z_distance(f1, f2) == pytest.approx(10.24, rel=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_distance_from_zero_is_the_z_norm(self, seed):
        # one weight and one noise floor: the distance from the zero field
        # is the Z norm, bit for bit
        rng = np.random.default_rng(seed)
        g = make_grid(64, TWO_PI)
        c = rng.normal(size=33) + 1j * rng.normal(size=33)
        c[rng.random(33) < 0.3] *= 1e-15        # entries under the noise floor
        f = SpectralField(g, c)
        zero = SpectralField(g, np.zeros(33, complex))
        assert z_distance(zero, f) == norm_z(f)

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            z_distance(single_mode(make_grid(32, TWO_PI)),
                       single_mode(make_grid(64, TWO_PI)))


class TestScatteringLimit:
    @staticmethod
    def _differences(deltas):
        """(t_m, d_m) of the Z distances between consecutive fields
        e_1 + delta e_2, one per (t, delta), as the scattering study takes
        them from its checkpoints."""
        g = make_grid(32, TWO_PI)
        base = single_mode(g, 1.0, 1.0)
        h = single_mode(g, 2.0, 1.0)
        fields = [SpectralField(g, base.coeffs + d * h.coeffs) for _, d in deltas]
        t = np.array([t for t, _ in deltas[:-1]])
        return t, np.array([z_distance(a, b) for a, b in zip(fields, fields[1:])])

    def test_stationary_sentinel(self):
        t, d = self._differences([(2.0, 0.0), (4.0, 0.0), (8.0, 0.0), (16.0, 0.0)])
        assert d.tolist() == [0.0, 0.0, 0.0]
        assert difference_rate(t, d) == STATIONARY_RATE

    def test_raw_and_corrected_differences(self):
        # a checkpoint pair whose corrected profile stands still while the
        # raw one moves
        g = make_grid(32, TWO_PI)
        assert z_distance(single_mode(g, 1.0, 1.0), single_mode(g, 1.0, 1.0)) == 0.0
        assert z_distance(single_mode(g, 1.0, 2.0), single_mode(g, 1.0, 3.0)) > 0.0

    def test_synthetic_power_rate(self):
        times = [2.0 ** m for m in range(1, 8)]
        rate = difference_rate(*self._differences([(t, t ** -0.3) for t in times]))
        assert rate == pytest.approx(-0.3, abs=0.02)
        # the scattering limit is z_weight * g: 2^10 at xi = 1
        g = make_grid(32, TWO_PI)
        w_inf = z_weight(g) * single_mode(g, 1.0, 1.0).coeffs
        i = np.argmin(np.abs(g.wavenumbers - 1.0))
        assert abs(w_inf[i]) == pytest.approx(2.0 ** 10, rel=1e-12)


class TestPowerLawFit:
    def test_exact_half_power(self):
        t = list(np.linspace(1.0, 50.0, 60))
        exponent, r2 = fit_power_law(t, [ti ** -0.5 for ti in t], 2.0, 50.0)
        assert exponent == pytest.approx(-0.5, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_series(self):
        t = list(np.linspace(1.0, 30.0, 40))
        exponent, r2 = fit_power_law(t, [2.5] * len(t), 1.0, 30.0)
        assert exponent == pytest.approx(0.0, abs=1e-14)
        assert r2 == 1.0

    def test_perturbed_power(self):
        t = list(np.geomspace(1.0, 200.0, 120))
        values = [ti ** -0.5 * (1.0 + 0.05 * np.sin(np.log(ti))) for ti in t]
        exponent, _ = fit_power_law(t, values, 1.0, 200.0)
        assert exponent == pytest.approx(-0.5, abs=0.05)

    def test_window_too_small(self):
        with pytest.raises(InsufficientDataError, match="need >= 5 points"):
            fit_power_law([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], 0.5, 4.0)

    @pytest.mark.parametrize("bad", [-2.0, 0.0, np.inf, np.nan])
    def test_nonpositive_or_nonfinite_in_window_refused(self, bad):
        t = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        values = [1.0, 0.5, 0.3, 0.25, 0.2, 0.15]
        with pytest.raises(InsufficientDataError, match="got 1 nonpositive or nonfinite"):
            fit_power_law(t, values[:2] + [bad] + values[3:], 1.0, 6.0)
        # a value outside the window is not read
        assert (fit_power_law(t + [7.0], values + [bad], 1.0, 6.0)
                == fit_power_law(t, values, 1.0, 6.0))
