import tracemalloc

import numpy as np
import pytest

from fkdvlab import lemma_checks
from fkdvlab.errors import ConfigurationError, DomainError
from fkdvlab.lemma_checks import (
    CUTOFF_RATE_MAX,
    DISPERSIVE_DILATION_DEFECT_MAX,
    FACTORED_DEFECT_MAX,
    GAUSSIAN_CLOSED_FORM_ATOL,
    HALVING_RATIO_BAND,
    INTERPOLATION_CONSTANT_SLACK,
    INTERPOLATION_DILATION_DEFECT_MAX,
    LEMMA_CHECKS,
    PSEUDO_PRODUCT_RATIO_MAX,
    TRILINEAR_RTOL,
    _GAUSSIAN_X_NODES,
    _GAUSSIAN_Y_NODES,
    _PHI_V_NODES,
    _PHI_V_VALUES,
    _PHI_V_WEIGHTS,
    _Z_POINTS,
    _cutoff_deviation,
    _even_trapezoid,
    _gaussian_double_integral,
    _uniform_cosine_sums,
    check_dispersive_estimate,
    check_interpolation_inequality,
    check_oscillatory_gaussian,
    check_phase_expansion,
    check_pseudo_product,
    check_trilinear_identity,
    cutoff_check_bound,
    dispersive_rhs,
    dispersive_verdicts,
    interpolation_verdicts,
    oscillatory_verdicts,
    phase_expansion_verdicts,
    pseudo_product_verdicts,
    trilinear_verdicts,
    oscillatory_gaussian_closed_form,
    profile_rhs_double_sum,
    profile_rhs_pseudospectral,
    resonance_function,
    _S_NODES,
    _bump,
    _bump_ds,
    _cutoff_profile_transform,
    _dispersion,
    _evolved_band_sup,
    _field_l1,
    _packet_grid,
    _profile_norms,
)
from fkdvlab.spectral import CUTOFFS, SpectralField, inverse_transform, make_grid

TWO_PI = 2.0 * np.pi


class TestTrilinearIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_band_limited(self, seed):
        result = check_trilinear_identity(16, seed)
        assert result["relative_sup_difference"] <= TRILINEAR_RTOL

    def test_larger_grid(self):
        result = check_trilinear_identity(32, 0, t=1.3)
        assert result["relative_sup_difference"] <= TRILINEAR_RTOL

    def test_zero_profile(self):
        g = make_grid(16, TWO_PI)
        fhat = SpectralField(g, np.zeros(16, complex))
        assert np.max(np.abs(profile_rhs_double_sum(fhat, 0.7, -0.5))) == 0.0
        assert np.max(np.abs(profile_rhs_pseudospectral(fhat, 0.7, -0.5))) < 1e-300

    def test_single_mode_pair(self):
        # one Hermitian mode pair: both sides live on reachable triple sums
        g = make_grid(16, TWO_PI)
        c = np.zeros(16, complex)
        c[8 + 1] = 0.2 + 0.1j
        c[8 - 1] = np.conj(c[8 + 1])
        fhat = SpectralField(g, c)
        oracle = profile_rhs_double_sum(fhat, 0.7, -0.5)
        target = profile_rhs_pseudospectral(fhat, 0.7, -0.5)
        assert np.max(np.abs(oracle - target)) <= 1e-12 * np.max(np.abs(target))

    def test_size_guard(self):
        with pytest.raises(ConfigurationError):
            check_trilinear_identity(128, 0)


class TestPhaseExpansion:
    def test_diagonal_cancellation(self):
        # eta = sigma = xi makes the resonance function vanish identically
        assert resonance_function(-0.5, 1.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_quadratic_limit(self):
        result = check_phase_expansion(-0.5, 1.0)
        d = result["deltas"][-1]
        phi = resonance_function(-0.5, 1.0, 1.0 - d, 1.0 - d)
        assert phi / d ** 2 == pytest.approx(-0.25, rel=1e-3)
        assert result["quadratic_coefficient"] == pytest.approx(-0.25)

    @pytest.mark.parametrize("alpha,xi", [(-0.5, 1.0), (-0.8, 2.0), (-0.2, 0.5)])
    def test_cubic_remainder_ratios(self, alpha, xi):
        result = check_phase_expansion(alpha, xi)
        lo, hi = HALVING_RATIO_BAND
        assert all(lo <= r <= hi for r in result["halving_ratios"])

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            check_phase_expansion(-0.5, 0.0)
        with pytest.raises(DomainError):
            check_phase_expansion(-0.5, 1.0, delta_range=(0.25,))

    @pytest.mark.parametrize("xi", [1.0, -2.0, 0.3])
    def test_offsets_at_domain_edge_accepted(self, xi):
        # the largest offset may equal |xi|/32 exactly
        result = check_phase_expansion(-0.5, xi, delta_range=(1.0 / 32.0, 1.0 / 64.0))
        assert max(result["deltas"]) == abs(xi) / 32.0


class TestInterpolation:
    def test_chain_constants_and_dilation(self):
        result = check_interpolation_inequality(num_trials=12, seed=0)
        sharp1 = result["sharp_constants"]["bandsup_vs_l1"]
        sharp2 = result["sharp_constants"]["l1_vs_weighted_l2"]
        slack = 1 + INTERPOLATION_CONSTANT_SLACK
        assert result["bandsup_vs_l1"]["ratio_stats"]["max"] <= sharp1 * slack
        assert result["l1_vs_weighted_l2"]["ratio_stats"]["max"] <= sharp2 * slack
        assert result["max_dilation_defect"] <= INTERPOLATION_DILATION_DEFECT_MAX

    def test_amplitude_quadratic_invariance(self):
        from fkdvlab.lemma_checks import _random_band_field, interpolation_members
        rng = np.random.default_rng(0)
        grid, fld = _random_band_field(rng, 0)
        s1, l1, r1 = interpolation_members(grid, fld, 0)
        doubled = SpectralField(grid, 2.0 * fld.coeffs)
        s2, l2, r2 = interpolation_members(grid, doubled, 0)
        assert s2 == pytest.approx(4.0 * s1, rel=1e-12)
        assert l2 == pytest.approx(4.0 * l1, rel=1e-12)
        assert r2 == pytest.approx(4.0 * r1, rel=1e-12)


class TestPseudoProduct:
    def test_kernel_l1_matches_closed_form(self):
        result = check_pseudo_product(seed=0, num_trials=3)
        assert result["kernel_l1"] == pytest.approx(4.0 * np.pi ** 2, rel=1e-12)

    def test_factorization_oracle(self):
        result = check_pseudo_product(seed=0, num_trials=1)
        assert result["factored_defect"] <= FACTORED_DEFECT_MAX

    def test_bound_holds_and_is_seed_stable(self):
        r0 = check_pseudo_product(seed=0, num_trials=20)
        r1 = check_pseudo_product(seed=1, num_trials=20)
        assert r0["max_ratio"] < PSEUDO_PRODUCT_RATIO_MAX   # far below the analytic bound
        assert abs(r1["max_ratio"] - r0["max_ratio"]) <= 0.2 * r0["max_ratio"]


class TestOscillatoryGaussian:
    def test_closed_form_values(self):
        assert oscillatory_gaussian_closed_form(1.0) == pytest.approx(TWO_PI / np.sqrt(5.0))
        assert oscillatory_gaussian_closed_form(10.0) == pytest.approx(
            TWO_PI * 10.0 / np.sqrt(0.04 + 100.0))

    def test_quadrature_matches_closed_form(self):
        result = check_oscillatory_gaussian(N_list=(1.0, 10.0),
                                            cutoff_N_list=(3.0, 4.0),
                                            cutoff_N_check=6.0)
        for entry in result["gaussian"]:
            assert entry["abs_error"] <= GAUSSIAN_CLOSED_FORM_ATOL

    @pytest.mark.parametrize("N", [0.5, 1.0, 2.0, 5.0, 10.0, 20.0])
    def test_trapezoid_rule_reaches_round_off(self, N):
        # the node counts hold for every N, not only the two the check uses
        assert _gaussian_double_integral(N) == pytest.approx(
            oscillatory_gaussian_closed_form(N), rel=1e-12)

    def test_cutoff_variant_rate(self):
        result = check_oscillatory_gaussian()
        # decays at least as fast as the inverse square root upper bound
        assert result["cutoff_rate"] <= CUTOFF_RATE_MAX
        check = result["cutoff_check"]
        assert check["error"] <= cutoff_check_bound(check["fit_prediction"])
        # the fitted rate of the direct outer-product transform
        assert result["cutoff_rate"] == pytest.approx(-10.347969626776898, rel=1e-9)

    def test_cutoff_error_is_the_deviation(self):
        # the error is the deviation itself, not |value - 2 pi| quantised to
        # the ulps of 2 pi (8.9e-16, 1.2e-8 of the error at N = 8)
        result = check_oscillatory_gaussian(cutoff_N_list=(3.0, 4.0), cutoff_N_check=8.0)
        for entry in result["cutoff"]:
            deviation = _cutoff_deviation(entry["N"])
            assert entry["error"] == abs(deviation)
            assert entry["value"] == TWO_PI - deviation
        # the same trapezoid sums in long double give 3.8500382890e-08; the
        # double-precision round-off of the deviation has a standard
        # deviation of about 2.3e-9 of it at N = 8
        assert result["cutoff_check"]["error"] == pytest.approx(3.850038289021687e-08,
                                                                rel=5e-9)

    def test_peak_traced_allocation(self):
        # no dense cosine tables: the chirp-z sums allocate O(nodes + points)
        tracemalloc.start()
        try:
            check_oscillatory_gaussian()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


def outer_product_transform(z):
    """The direct trapezoid sum 2 * sum_j w_j phi(v_j) cos(z v_j) on the
    outer product of z and the v nodes, in 512-row blocks."""
    dv = _PHI_V_NODES[1] - _PHI_V_NODES[0]
    out = np.empty_like(z, dtype=float)
    for lo in range(0, len(z), 512):
        block = z[lo: lo + 512]
        c = np.cos(np.outer(block, _PHI_V_NODES)) * _PHI_V_VALUES
        out[lo: lo + 512] = 2.0 * (np.sum(c, axis=1) - 0.5 * c[:, 0] - 0.5 * c[:, -1]) * dv
    return out


class TestCutoffProfileTransform:
    @pytest.mark.parametrize("z_lo,z_hi,count", [
        *((N * N, 2.0 * N * N, _Z_POINTS) for N in (3.0, 4.0, 6.0, 8.0)),
        (0.0, 5.0, 131),
        (1.5, 2.0, 10),
    ])
    def test_matches_outer_product_sum(self, z_lo, z_hi, count):
        # the sum's terms are O(1); the chirp-z form only reorders round-off
        chirp = _cutoff_profile_transform(z_lo, z_hi, count)
        direct = outer_product_transform(np.linspace(z_lo, z_hi, count))
        assert chirp.shape == (count,)
        assert np.max(np.abs(chirp - direct)) <= 1e-13


def gaussian_inner_sums(N):
    """Arguments of the helper for the inner integral of the oscillatory
    gaussian quadrature at N: weighted x integrand, h_x, z_lo, h_y, count."""
    x, w_x = _even_trapezoid(8.0 * N, _GAUSSIAN_X_NODES)
    y, _ = _even_trapezoid(min(8.0 * N, 80.0 / N), _GAUSSIAN_Y_NODES)
    return w_x * np.exp(-(x / N) ** 2), x[1], 0.0, y[1], len(y)


class TestUniformCosineSums:
    @pytest.mark.parametrize("a,h,z_lo,dz,count", [
        *((_PHI_V_WEIGHTS * _PHI_V_VALUES, _PHI_V_NODES[1], N * N, N * N / 4000, 4001)
          for N in (3.0, 4.0, 6.0, 8.0)),
        (_PHI_V_WEIGHTS * _PHI_V_VALUES, _PHI_V_NODES[1], 7.5, 0.1, 1),
        (np.linspace(1.0, -0.5, 7), 0.3, -2.0, 0.7, 20),      # count > len(a)
        gaussian_inner_sums(20.0),          # the chirp phase reaches 640 rad
    ])
    def test_matches_outer_product_sum(self, a, h, z_lo, dz, count):
        z = z_lo + np.arange(count) * dz
        direct = np.cos(np.outer(z, np.arange(len(a)) * h)) @ a
        sums = _uniform_cosine_sums(a, h, z_lo, dz, count)
        assert sums.shape == (count,)
        assert np.max(np.abs(sums - direct)) <= 1e-13


def full_layout_band_sup(alpha, k, t):
    """``_evolved_band_sup`` as it was on the ascending full spectrum: every
    mode evaluated, then mirrored by ``inverse_transform`` (guards left out,
    they do not change the value)."""
    grid = _packet_grid(alpha, k, t)
    xi = grid.wavenumbers
    ghat = _bump(xi / 2.0 ** k)
    proj = CUTOFFS.psi_j(xi, k)
    shift = np.exp(-1j * xi * (0.7 * grid.box_length))
    coeffs = ghat * proj * shift * np.exp(1j * t * _dispersion(alpha, xi))
    u = inverse_transform(SpectralField(grid, coeffs.astype(complex)))
    return float(np.max(np.abs(u)))


def full_layout_field_l1(alpha, k):
    """``_field_l1`` as it was on the ascending full spectrum."""
    grid = _packet_grid(alpha, k, 1.0)
    ghat = _bump(grid.wavenumbers / 2.0 ** k).astype(complex)
    u = inverse_transform(SpectralField(grid, ghat))
    return float(np.sum(np.abs(u)) * grid.dx)


def per_band_profile_norms(k):
    """``_profile_norms`` as it was, summing over _S_NODES for every band."""
    scale = 2.0 ** k
    ds = _S_NODES[1] - _S_NODES[0]
    v = _bump(_S_NODES)
    dv = _bump_ds(_S_NODES)
    return {"ghat_inf": float(np.max(v)),
            "ghat_l2": float(np.sqrt(2.0 * np.sum(v ** 2) * ds * scale)),
            "dghat_l2": float(np.sqrt(2.0 * np.sum((dv / scale) ** 2) * ds * scale))}


DILATION_PAIRS = [(a, k, t) for a in (-0.8, -0.5, -0.2)
                  for k, t in ((1, 4.0), (0, 2.0 ** (1.0 + a) * 4.0))]


class TestDispersiveEstimate:
    @pytest.mark.parametrize("alpha, k, t", [
        (a, k, t) for a in (-0.8, -0.5, -0.2) for k in (-3, 0, 3)
        for t in (1.0, 64.0, 4096.0)] + DILATION_PAIRS)
    def test_half_layout_band_sup_is_the_full_layout_bit_for_bit(self, alpha, k, t):
        # the band-k field is Hermitian, so its half spectrum restricted to
        # the band synthesises exactly what the full layout did
        assert _evolved_band_sup(alpha, k, t) == full_layout_band_sup(alpha, k, t)

    @pytest.mark.parametrize("alpha", [-0.8, -0.5, -0.2])
    def test_half_layout_norms_are_the_old_ones_bit_for_bit(self, alpha):
        for k in range(-3, 4):
            assert _field_l1(alpha, k) == full_layout_field_l1(alpha, k)
            assert _profile_norms(k) == per_band_profile_norms(k)

    def test_sweep_never_uses_the_full_layout(self, monkeypatch):
        def full_layout(*args, **kwargs):
            raise AssertionError("the dispersive sweep used inverse_transform")

        monkeypatch.setattr(lemma_checks, "inverse_transform", full_layout)
        run, verdicts = LEMMA_CHECKS["dispersive"]
        assert all(v.passed for v in verdicts(run(0)))

    @pytest.mark.parametrize("center, invwidth", [(3.0, 3.0), (1.4, 0.5)])
    def test_leak_guard(self, monkeypatch, center, invwidth):
        # a bump off the band, or one too wide for it, leaks out of psi_k
        monkeypatch.setattr(lemma_checks, "_BUMP_CENTER", center)
        monkeypatch.setattr(lemma_checks, "_BUMP_INVWIDTH", invwidth)
        with pytest.raises(DomainError, match="leaks outside the dyadic band"):
            _evolved_band_sup(-0.5, 0, 4.0)

    def test_box_boundary_guard(self, monkeypatch):
        # an eighth of the box the packet needs: it wraps onto the boundary
        def small_box(alpha, k, t):
            grid = _packet_grid(alpha, k, t)
            return make_grid(grid.n_points, grid.box_length / 8.0)

        monkeypatch.setattr(lemma_checks, "_packet_grid", small_box)
        with pytest.raises(DomainError, match="packet reached the box boundary"):
            _evolved_band_sup(-0.5, 0, 64.0)

    def test_sweep_bounded_and_dilation_invariant(self):
        result = check_dispersive_estimate(-0.5, k_range=(-1, 0, 1),
                                           t_range=(1.0, 4.0))
        assert result["freq_side"]["ratio_stats"]["max"] < 10.0
        assert result["phys_side"]["ratio_stats"]["max"] < 10.0
        assert result["dilation_defect"] <= DISPERSIVE_DILATION_DEFECT_MAX

    def test_sweep_sides_equal_dispersive_rhs(self):
        # the sweep computes each band's norms once; the sides stay bit for bit
        result = check_dispersive_estimate(-0.5, k_range=(0, 1), t_range=(1.0, 4.0))
        for side in ("freq", "phys"):
            sweep = result[f"{side}_side"]
            assert sweep["rhs"] == [dispersive_rhs(-0.5, p["k"], p["t"])[side]
                                    for p in sweep["tuples"]]

    # the box is sized for the leftward drift of -1 < alpha < 0; a positive
    # alpha ran on into "packet reached the box boundary"
    @pytest.mark.parametrize("alpha", [1.5, 0.7, 0.0, float("nan")])
    def test_alpha_range_guard(self, alpha):
        with pytest.raises(ConfigurationError, match=r"alpha must lie in \(-1, 0\)"):
            check_dispersive_estimate(alpha)

    def test_ratio_time_stability_dispersed_regime(self):
        # once the packet is fully dispersed the sup obeys the predicted
        # t^(-1/2) law and both sides' ratios freeze (to within 20% per 4x)
        for side in ("freq", "phys"):
            r1 = _evolved_band_sup(-0.5, 0, 1024.0) / dispersive_rhs(-0.5, 0, 1024.0)[side]
            r4 = _evolved_band_sup(-0.5, 0, 4096.0) / dispersive_rhs(-0.5, 0, 4096.0)[side]
            assert abs(r4 - r1) <= 0.2 * r1


class TestLemmaVerdicts:
    """Each verdict function applies its check's named thresholds, with the
    inclusive or strict comparison the check states, and cites the report."""

    def test_thresholds_at_their_edges(self):
        lo, hi = HALVING_RATIO_BAND
        cases = [
            (trilinear_verdicts([{"relative_sup_difference": TRILINEAR_RTOL}]), [True]),
            (phase_expansion_verdicts({"a": {"halving_ratios": [lo, hi]}}), [True, True]),
            (phase_expansion_verdicts({"a": {"halving_ratios": [8.0, hi * 1.001]}}),
             [True, False]),
            (pseudo_product_verdicts({"max_ratio": PSEUDO_PRODUCT_RATIO_MAX,
                                      "factored_defect": FACTORED_DEFECT_MAX}),
             [False, True]),
            (dispersive_verdicts({"a": {"dilation_defect": DISPERSIVE_DILATION_DEFECT_MAX,
                                        "freq_side": {"ratio_stats": {"max": 1.0}},
                                        "phys_side": {"ratio_stats": {"max": np.inf}}}}),
             [True, False]),
            (interpolation_verdicts({
                "bandsup_vs_l1": {"ratio_stats": {"max": 1.0 + INTERPOLATION_CONSTANT_SLACK}},
                "l1_vs_weighted_l2": {"ratio_stats": {"max": 1.1}},
                "sharp_constants": {"bandsup_vs_l1": 1.0, "l1_vs_weighted_l2": 1.0},
                "max_dilation_defect": 2 * INTERPOLATION_DILATION_DEFECT_MAX}),
             [True, False, False]),
            (oscillatory_verdicts({
                "gaussian": [{"abs_error": GAUSSIAN_CLOSED_FORM_ATOL}],
                "cutoff_rate": CUTOFF_RATE_MAX,
                "cutoff_check": {"N": 8.0, "error": cutoff_check_bound(1e-3) * 1.001,
                                 "fit_prediction": 1e-3}}),
             [True, True, False]),
        ]
        for verdicts, passed in cases:
            assert [v.passed for v in verdicts] == passed
            assert {v.series for v in verdicts} == {"lemma_checks.json"}
