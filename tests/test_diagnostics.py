import numpy as np
import pytest

from fkdvlab.diagnostics import (
    STATIONARY_RATE,
    DecaySeries,
    PhaseAccumulator,
    ProfileSnapshot,
    ScatteringSeries,
    accumulate_phase,
    compute_profile,
    corrected_profile,
    difference_rate,
    extract_scattering_limit,
    fit_power_law,
    phase_prefactor,
    z_distance,
)
from fkdvlab.equations import make_equation
from fkdvlab.errors import (
    ConfigurationError,
    GridMismatchError,
    InsufficientDataError,
    SequencingError,
)
from fkdvlab.spectral import SpectralField, hermitian_defect, hermitize, make_grid, transform

TWO_PI = 2.0 * np.pi


def single_mode(grid, xi0=1.0, value=1.0):
    c = np.zeros(grid.n_points, complex)
    c[np.argmin(np.abs(grid.wavenumbers - xi0))] = value
    return SpectralField(grid, c)


class TestProfile:
    def test_identity_at_t0(self):
        g = make_grid(32, TWO_PI)
        eq = make_equation("modified_fkdv", alpha=-0.5)
        f = single_mode(g)
        snap = compute_profile(f, 0.0, eq)
        assert np.allclose(snap.f_hat.coeffs, f.coeffs)

    def test_single_mode_phase(self):
        g = make_grid(32, TWO_PI)
        eq = make_equation("modified_fkdv", alpha=-0.5)
        snap = compute_profile(single_mode(g), 1.0, eq)
        i = np.argmin(np.abs(g.wavenumbers - 1.0))
        assert abs(snap.f_hat.coeffs[i] - np.exp(-1j)) < 1e-14

    def test_modulus_invariance(self):
        rng = np.random.default_rng(3)
        g = make_grid(64, TWO_PI)
        eq = make_equation("modified_fkdv", alpha=-0.7)
        f = hermitize(transform(g, rng.normal(size=64)))
        snap = compute_profile(f, 13.7, eq)
        assert np.allclose(np.abs(snap.f_hat.coeffs), np.abs(f.coeffs))

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
            acc = accumulate_phase(acc, ProfileSnapshot(t, single_mode(g, 1.0, np.sqrt(c_val))))
        assert acc.H[i] == pytest.approx(4.0 * c_val, rel=1e-12)
        assert phase_prefactor(np.array([1.0]), -0.5)[0] == pytest.approx(4.0)

    def test_zero_mode_stays_zero(self):
        g = make_grid(32, TWO_PI)
        acc = PhaseAccumulator(g, -0.5)
        for t in (1.0, 2.0, 4.0):
            acc = accumulate_phase(acc, ProfileSnapshot(t, single_mode(g, 0.0, 1.0)))
        assert acc.H[g.n_points // 2] == 0.0

    def test_oddness(self):
        rng = np.random.default_rng(4)
        g = make_grid(64, TWO_PI)
        eq = make_equation("modified_fkdv", alpha=-0.5)
        u = hermitize(transform(g, rng.normal(size=64)))
        acc = PhaseAccumulator(g, -0.5)
        for t in (1.0, 2.0, 3.0):
            acc = accumulate_phase(acc, compute_profile(u, t, eq))
        H = acc.H
        assert np.max(np.abs(H[1:] + H[1:][::-1])) < 1e-12 * max(1.0, np.max(np.abs(H)))

    def test_log_weight_quadrature_exact_for_linear(self):
        # |f_hat(s)|^2 = ln s is linear in tau = ln s, so the trapezoid
        # panels reproduce the analytic (ln t)^2 / 2 exactly
        g = make_grid(32, TWO_PI)
        i = np.argmin(np.abs(g.wavenumbers - 1.0))
        t_final = np.e ** 2
        analytic = phase_prefactor(np.array([1.0]), -0.5)[0] * (np.log(t_final)) ** 2 / 2
        acc = PhaseAccumulator(g, -0.5)
        for t in np.exp(np.linspace(0.0, 2.0, 3)):
            weight = np.sqrt(max(np.log(t), 0.0))
            acc = accumulate_phase(acc, ProfileSnapshot(t, single_mode(g, 1.0, weight)))
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
                acc = accumulate_phase(acc, ProfileSnapshot(t, single_mode(g, 1.0, np.sqrt(t))))
            return acc.H[i]

        errs = [abs(run(nodes) - analytic) for nodes in (5, 9, 17)]
        orders = [np.log2(errs[j] / errs[j + 1]) for j in range(2)]
        assert min(orders) > 1.8

    def test_pre_unit_time_snapshots_ignored(self):
        g = make_grid(32, TWO_PI)
        acc = PhaseAccumulator(g, -0.5)
        acc = accumulate_phase(acc, ProfileSnapshot(0.5, single_mode(g)))
        assert acc.last_t is None
        assert np.all(acc.H == 0.0)

    def test_out_of_order_rejected(self):
        g = make_grid(32, TWO_PI)
        acc = PhaseAccumulator(g, -0.5)
        accumulate_phase(acc, ProfileSnapshot(2.0, single_mode(g)))
        with pytest.raises(SequencingError):
            accumulate_phase(acc, ProfileSnapshot(1.5, single_mode(g)))


class TestCorrectedProfile:
    def test_zero_phase_identity(self):
        g = make_grid(32, TWO_PI)
        acc = PhaseAccumulator(g, -0.5)
        snap = ProfileSnapshot(1.0, single_mode(g))
        acc = accumulate_phase(acc, snap)
        assert np.allclose(corrected_profile(snap, acc).coeffs, snap.f_hat.coeffs)

    def test_modulus_preserved_and_hermitian(self):
        rng = np.random.default_rng(5)
        g = make_grid(64, TWO_PI)
        eq = make_equation("modified_fkdv", alpha=-0.5)
        u = hermitize(transform(g, rng.normal(size=64)))
        acc = PhaseAccumulator(g, -0.5)
        snap = None
        for t in (1.0, 2.0):
            snap = compute_profile(u, t, eq)
            acc = accumulate_phase(acc, snap)
        gfld = corrected_profile(snap, acc)
        assert np.allclose(np.abs(gfld.coeffs), np.abs(snap.f_hat.coeffs))
        assert hermitian_defect(gfld) < 1e-12

    def test_pi_phase_flips_sign(self):
        g = make_grid(32, TWO_PI)
        acc = PhaseAccumulator(g, -0.5)
        snap = ProfileSnapshot(2.0, single_mode(g))
        acc = accumulate_phase(acc, snap)
        i = np.argmin(np.abs(g.wavenumbers - 1.0))
        acc.integral[:] = 0.0
        acc.integral[i] = np.pi / acc.prefactor[i]
        out = corrected_profile(snap, acc)
        assert abs(out.coeffs[i] + snap.f_hat.coeffs[i]) < 1e-14

    def test_time_mismatch_rejected(self):
        g = make_grid(32, TWO_PI)
        acc = PhaseAccumulator(g, -0.5)
        accumulate_phase(acc, ProfileSnapshot(2.0, single_mode(g)))
        with pytest.raises(SequencingError):
            corrected_profile(ProfileSnapshot(3.0, single_mode(g)), acc)


class TestZDistance:
    def test_equal_fields(self):
        g = make_grid(32, TWO_PI)
        f = single_mode(g)
        assert z_distance(f, f) == 0.0

    def test_single_mode_difference(self):
        g = make_grid(32, TWO_PI)
        f1 = single_mode(g, 1.0, 1.0)
        f2 = single_mode(g, 1.0, 1.01)
        assert z_distance(f1, f2, 10.0) == pytest.approx(10.24, rel=1e-10)

    def test_weight_zero_is_sup(self):
        g = make_grid(32, TWO_PI)
        f1 = single_mode(g, 3.0, 1.0)
        f2 = single_mode(g, 3.0, 1.5)
        assert z_distance(f1, f2, 0.0) == pytest.approx(0.5)

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            z_distance(single_mode(make_grid(32, TWO_PI)),
                       single_mode(make_grid(64, TWO_PI)))


class TestScatteringLimit:
    def _series(self, deltas):
        g = make_grid(32, TWO_PI)
        base = single_mode(g, 1.0, 1.0)
        h = single_mode(g, 2.0, 1.0)
        series = ScatteringSeries()
        for t, d in deltas:
            fld = SpectralField(g, base.coeffs + d * h.coeffs)
            series.add(t, fld, fld)
        return series

    def test_stationary_sentinel(self):
        series = self._series([(2.0, 0.0), (4.0, 0.0), (8.0, 0.0), (16.0, 0.0)])
        assert difference_rate(*series.dyadic_differences()) == STATIONARY_RATE

    def test_synthetic_power_rate(self):
        times = [2.0 ** m for m in range(1, 8)]
        series = self._series([(t, t ** -0.3) for t in times])
        w_inf = extract_scattering_limit(series)
        rate = difference_rate(*series.dyadic_differences())
        assert rate == pytest.approx(-0.3, abs=0.02)
        xi = w_inf.grid.wavenumbers
        i = np.argmin(np.abs(xi - 1.0))
        assert abs(w_inf.coeffs[i]) == pytest.approx(2.0 ** 10, rel=1e-6)

    def test_insufficient_checkpoints(self):
        series = self._series([(2.0, 0.1), (4.0, 0.05), (8.0, 0.02)])
        with pytest.raises(InsufficientDataError):
            extract_scattering_limit(series)

    def test_checkpoint_ordering_enforced(self):
        series = self._series([(2.0, 0.1)])
        with pytest.raises(SequencingError):
            series.add(2.0, single_mode(make_grid(32, TWO_PI)),
                       single_mode(make_grid(32, TWO_PI)))


class TestPowerLawFit:
    def test_exact_half_power(self):
        t = np.linspace(1.0, 50.0, 60)
        series = DecaySeries("v")
        for ti in t:
            series.add(ti, ti ** -0.5)
        exponent, r2 = fit_power_law(series, 2.0, 50.0)
        assert exponent == pytest.approx(-0.5, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_series(self):
        series = DecaySeries("v")
        for ti in np.linspace(1.0, 30.0, 40):
            series.add(ti, 2.5)
        exponent, r2 = fit_power_law(series, 1.0, 30.0)
        assert exponent == pytest.approx(0.0, abs=1e-14)
        assert r2 == 1.0

    def test_perturbed_power(self):
        series = DecaySeries("v")
        for ti in np.geomspace(1.0, 200.0, 120):
            series.add(ti, ti ** -0.5 * (1.0 + 0.05 * np.sin(np.log(ti))))
        exponent, _ = fit_power_law(series, 1.0, 200.0)
        assert exponent == pytest.approx(-0.5, abs=0.05)

    def test_window_too_small(self):
        series = DecaySeries("v")
        for ti in (1.0, 2.0, 3.0):
            series.add(ti, 1.0)
        with pytest.raises(InsufficientDataError):
            fit_power_law(series, 0.5, 4.0)

    def test_nonpositive_rejected(self):
        series = DecaySeries("v")
        with pytest.raises(ValueError):
            series.add(1.0, -2.0)
