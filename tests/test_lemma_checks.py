import tracemalloc

import numpy as np
import pytest

from fkdvlab import lemma_checks
from fkdvlab.errors import ConfigurationError, DomainError
from fkdvlab.lemma_checks import (
    CUTOFF_RATE_MAX,
    DISPERSIVE_BANDS,
    DISPERSIVE_DILATION_DEFECT_MAX,
    DISPERSIVE_TIMES,
    FACTORED_DEFECT_MAX,
    GAUSSIAN_CLOSED_FORM_ATOL,
    HALVING_RATIO_BAND,
    INTERPOLATION_CONSTANT_SLACK,
    INTERPOLATION_DILATION_DEFECT_MAX,
    INTERPOLATION_TRIALS,
    LEMMA_CHECKS,
    PHASE_OFFSETS,
    PHASE_XI,
    PSEUDO_PRODUCT_RATIO_MAX,
    PSEUDO_PRODUCT_TRIALS,
    TRILINEAR_POINTS,
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
    _FIELD_L1,
    _chain_members,
    _evolved_band_sups,
    _kernel_l1_by_quadrature,
    _packet_grid,
)
from fkdvlab.spectral import CUTOFFS, dispersion, inverse_transform, make_grid, whole_spectrum

import ascending as asc

TWO_PI = 2.0 * np.pi


def per_mode_double_sum(grid, F, t, alpha):
    """``profile_rhs_double_sum`` as it was: one Python iteration per output
    mode, each over an n x n block of (eta, sigma) pairs."""
    n = grid.n_points
    dxi = grid.dxi
    idx = np.arange(n)
    xi = asc.xi(grid)
    a_grid = dispersion(alpha, xi)
    pair_pos = np.add.outer(idx, idx)
    a_eta_sig = np.add.outer(a_grid, a_grid)
    F_eta_sig = np.multiply.outer(F, F)
    out = np.zeros(n, dtype=complex)
    for o in range(n):
        rem_pos = o + n - pair_pos
        valid = (rem_pos >= 0) & (rem_pos < n)
        rp = np.clip(rem_pos, 0, n - 1)
        f_rem = np.where(valid, F[rp], 0.0)
        a_rem = np.where(valid, a_grid[rp], 0.0)
        phases = np.exp(1j * t * (a_rem + a_eta_sig - a_grid[o]))
        total = np.sum(phases * f_rem * F_eta_sig)
        out[o] = -1j / (2.0 * np.pi) * (xi[o] / 3.0) * total * dxi ** 2
    return out


def per_scalar_profile(n_points, seed, amplitude=0.1):
    """The grid and ascending random profile of ``check_trilinear_identity``
    as it was drawn, one ``rng.normal()`` per real number."""
    rng = np.random.default_rng(seed)
    c = np.zeros(n_points, dtype=complex)
    for k in range(1, n_points // 4):
        c[n_points // 2 + k] = rng.normal() + 1j * rng.normal()
    c[n_points // 2] = rng.normal()
    return make_grid(n_points, TWO_PI), asc.hermitize(amplitude * c)


def estimate_sweep(name, rows):
    """One estimate's sweep record as it was accumulated row by row: rows of
    (params, lhs, rhs), each side a float, and the statistics of the ratios."""
    tuples = [dict(params) for params, _, _ in rows]
    lhs = [float(left) for _, left, _ in rows]
    rhs = [float(right) for _, _, right in rows]
    r = np.asarray(lhs) / np.asarray(rhs)
    return {"name": name, "tuples": tuples, "lhs": lhs, "rhs": rhs,
            "ratio_stats": {"max": float(np.max(r)), "median": float(np.median(r)),
                            "min": float(np.min(r)), "count": len(r)}}


def zero_profile():
    return make_grid(16, TWO_PI), np.zeros(16, complex)


def single_pair_profile():
    c = np.zeros(16, complex)
    c[8 + 1] = 0.2 + 0.1j
    c[8 - 1] = np.conj(c[8 + 1])
    return make_grid(16, TWO_PI), c


class TestTrilinearIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_band_limited(self, seed):
        result = check_trilinear_identity(seed)
        assert result["relative_sup_difference"] <= TRILINEAR_RTOL

    def test_larger_grid(self):
        grid, F = per_scalar_profile(32, 0)
        oracle = profile_rhs_double_sum(grid, F, 1.3, -0.5)
        target = whole_spectrum(profile_rhs_pseudospectral(grid, asc.half_of(F), 1.3, -0.5))
        assert np.max(np.abs(oracle - target)) <= TRILINEAR_RTOL * np.max(np.abs(target))

    def test_zero_profile(self):
        fhat = zero_profile()
        assert np.max(np.abs(profile_rhs_double_sum(*fhat, 0.7, -0.5))) == 0.0
        grid, F = fhat
        assert np.max(np.abs(profile_rhs_pseudospectral(grid, asc.half_of(F), 0.7, -0.5))) < 1e-300

    def test_single_mode_pair(self):
        # one Hermitian mode pair: both sides live on reachable triple sums
        fhat = single_pair_profile()
        oracle = profile_rhs_double_sum(*fhat, 0.7, -0.5)
        grid, F = fhat
        target = whole_spectrum(profile_rhs_pseudospectral(grid, asc.half_of(F), 0.7, -0.5))
        assert np.max(np.abs(oracle - target)) <= 1e-12 * np.max(np.abs(target))

    def test_size_guard(self):
        with pytest.raises(ConfigurationError, match="use n_points <= 64"):
            profile_rhs_double_sum(make_grid(128, TWO_PI), np.zeros(128, complex), 0.7, -0.5)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n_points", [8, 16, 32])
    def test_oracle_is_the_per_mode_loop_bit_for_bit(self, n_points, seed):
        fhat = per_scalar_profile(n_points, seed)
        for t, alpha in ((0.7, -0.5), (1.3, -0.2)):
            assert np.array_equal(profile_rhs_double_sum(*fhat, t, alpha).view(float),
                                  per_mode_double_sum(*fhat, t, alpha).view(float))

    @pytest.mark.parametrize("fhat", [zero_profile(), single_pair_profile()],
                             ids=["zero", "single_pair"])
    def test_oracle_of_special_fields_is_the_per_mode_loop(self, fhat):
        assert np.array_equal(profile_rhs_double_sum(*fhat, 0.7, -0.5).view(float),
                              per_mode_double_sum(*fhat, 0.7, -0.5).view(float))

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n_points", [8, 16, 32])
    def test_check_is_the_per_scalar_draw_bit_for_bit(self, monkeypatch, n_points, seed):
        # the profile's numbers drawn in one call are the one-at-a-time draws,
        # on the grid TRILINEAR_POINTS names
        monkeypatch.setattr(lemma_checks, "TRILINEAR_POINTS", n_points)
        fhat = per_scalar_profile(n_points, seed)
        grid, F = fhat
        target = whole_spectrum(profile_rhs_pseudospectral(grid, asc.half_of(F), 0.7, -0.5))
        scale = float(np.max(np.abs(target)))
        diff = float(np.max(np.abs(per_mode_double_sum(*fhat, 0.7, -0.5) - target)))
        result = check_trilinear_identity(seed)
        assert result["max_abs_target"] == scale
        assert result["relative_sup_difference"] == diff / scale

    def test_peak_traced_allocation_at_most_the_pseudo_product_check(self):
        # the (n, n, n) oracle arrays never set the lemma checks' peak
        assert traced_peak(check_trilinear_identity) <= traced_peak(check_pseudo_product)


class TestPhaseExpansion:
    def test_diagonal_cancellation(self):
        # eta = sigma = xi makes the resonance function vanish identically
        assert resonance_function(-0.5, 1.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_quadratic_limit(self):
        result = check_phase_expansion(-0.5)
        d = result["deltas"][-1]
        phi = resonance_function(-0.5, 1.0, 1.0 - d, 1.0 - d)
        assert phi / d ** 2 == pytest.approx(-0.25, rel=1e-3)
        assert result["quadratic_coefficient"] == pytest.approx(-0.25)

    @pytest.mark.parametrize("alpha", [-0.5, -0.8, -0.2])
    def test_cubic_remainder_ratios(self, alpha):
        result = check_phase_expansion(alpha)
        lo, hi = HALVING_RATIO_BAND
        assert all(lo <= r <= hi for r in result["halving_ratios"])

    # a is odd and homogeneous of degree 1 + alpha, so the remainder at xi
    # with offsets xi d is sign(xi) |xi|^(1+alpha) times the checked one at
    # xi = 1, to the round-off of the four a values (at most 1.75 ulps of
    # |xi|^(1+alpha) here, exact at xi = -1): the one frequency stands for all
    @pytest.mark.parametrize("xi", [2.0, 0.5, 0.3, -1.0, -2.0, -3.0])
    @pytest.mark.parametrize("alpha", [-0.8, -0.5, -0.2])
    def test_every_frequency_scales_to_the_checked_one(self, alpha, xi):
        result = check_phase_expansion(alpha)
        scale = np.sign(xi) * abs(xi) ** (1.0 + alpha)
        second = alpha * (alpha + 1.0) * np.sign(xi) * abs(xi) ** (alpha - 1.0)
        remainders = np.array([resonance_function(alpha, xi, xi - xi * d, xi - xi * d)
                               - second * (xi * d) ** 2 for d in PHASE_OFFSETS])
        np.testing.assert_allclose(remainders, scale * np.array(result["remainders"]),
                                   rtol=0.0, atol=8.0 * np.finfo(float).eps * abs(scale))
        lo, hi = HALVING_RATIO_BAND
        assert all(lo <= r <= hi for r in remainders[:-1] / remainders[1:])

    # alpha outside (-1, 0) gave NaN ratios silently (NaN) or a
    # RuntimeWarning on 0/0 remainders (alpha = 0)
    @pytest.mark.parametrize("alpha", [float("nan"), -1.0, 0.0, 0.5])
    def test_alpha_range_guard(self, alpha):
        with pytest.raises(ConfigurationError, match=r"alpha must lie in \(-1.0, 0.0\)"):
            check_phase_expansion(alpha)


def per_case_band_field(rng, k, n=1024):
    """The random band field of one interpolation member, as the check drew
    it one case at a time."""
    L = 2.0 ** (-k) * 64.0 * np.pi          # dxi = 2^k / 32
    grid = make_grid(n, L)
    idx = np.arange(-(n // 2), n // 2)
    band = (np.abs(idx) >= 17) & (np.abs(idx) <= 63)   # |xi|/2^k in (1/2, 2)
    c = np.zeros(n, dtype=complex)
    pos = np.where(band & (idx > 0))[0]
    draws = rng.normal(size=len(pos)) + 1j * rng.normal(size=len(pos))
    c[pos] = draws
    return grid, asc.hermitize(c)


def per_case_members(grid, c, k):
    """The chain members of one field's ascending coefficients c, as the
    check computed them one case at a time."""
    phat = CUTOFFS.psi_j(asc.xi(grid), k) * c
    u = asc.inverse_transform(grid, phat)
    sup2 = float(np.max(np.abs(phat))) ** 2
    l1sq = (float(np.sum(np.abs(u)) * grid.dx)) ** 2
    l2 = float(np.sqrt(np.sum(np.abs(phat) ** 2) * grid.dxi))
    xc = grid.x - grid.x_center
    xw = asc.transform(grid, xc * u)
    dl2 = float(np.sqrt(np.sum(np.abs(xw) ** 2) * grid.dxi))
    right = 2.0 ** (-k) * l2 * (l2 + 2.0 ** k * dl2)
    return sup2, l1sq, right


def per_case_interpolation(seed, num_trials=INTERPOLATION_TRIALS):
    """``check_interpolation_inequality`` as it was: one Python iteration,
    two fields and two member evaluations per trial."""
    rng = np.random.default_rng(seed)
    rows1, rows2 = [], []
    dilation_defects = []
    for trial in range(num_trials):
        k = int(rng.integers(-3, 4))
        state = rng.bit_generator.state
        grid, fld = per_case_band_field(rng, k)
        sup2, l1sq, right = per_case_members(grid, fld, k)
        params = {"trial": trial, "k": k}
        rows1.append((params, sup2, l1sq))
        rows2.append((params, l1sq, right))

        rng2 = np.random.default_rng()
        rng2.bit_generator.state = state
        grid_d, fld_d = per_case_band_field(rng2, k + 1)
        sup2_d, l1sq_d, right_d = per_case_members(grid_d, fld_d, k + 1)
        defect = max(abs(sup2_d / l1sq_d - sup2 / l1sq) / (sup2 / l1sq),
                     abs(l1sq_d / right_d - l1sq / right) / (l1sq / right))
        dilation_defects.append(float(defect))
    return {
        "bandsup_vs_l1": estimate_sweep("bandsup_vs_l1", rows1),
        "l1_vs_weighted_l2": estimate_sweep("l1_vs_weighted_l2", rows2),
        "max_dilation_defect": float(np.max(dilation_defects)),
        "sharp_constants": {"bandsup_vs_l1": 1.0 / (2.0 * np.pi),
                            "l1_vs_weighted_l2": 2.0 * np.pi},
    }


def traced_peak(run):
    """Peak traced allocation of one call, after an untraced warm-up."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestInterpolation:
    def test_chain_constants_and_dilation(self):
        result = check_interpolation_inequality(seed=0)
        sharp1 = result["sharp_constants"]["bandsup_vs_l1"]
        sharp2 = result["sharp_constants"]["l1_vs_weighted_l2"]
        slack = 1 + INTERPOLATION_CONSTANT_SLACK
        assert result["bandsup_vs_l1"]["ratio_stats"]["max"] <= sharp1 * slack
        assert result["l1_vs_weighted_l2"]["ratio_stats"]["max"] <= sharp2 * slack
        assert result["max_dilation_defect"] <= INTERPOLATION_DILATION_DEFECT_MAX

    def test_amplitude_quadratic_invariance(self):
        rng = np.random.default_rng(0)
        grid, fld = per_case_band_field(rng, 0)
        L, k = np.array(grid.box_length), np.array(0)
        phat = CUTOFFS.psi_j(asc.xi(grid), 0) * fld
        [(s1, l1, r1)] = _chain_members(asc.half_of(phat), L, k)
        [(s2, l2, r2)] = _chain_members(asc.half_of(2.0 * phat), L, k)
        assert s2 == pytest.approx(4.0 * s1, rel=1e-12)
        assert l2 == pytest.approx(4.0 * l1, rel=1e-12)
        assert r2 == pytest.approx(4.0 * r1, rel=1e-12)

    @pytest.mark.parametrize("k", [-3, 0, 1, 4])
    def test_members_are_the_per_case_ones_bit_for_bit(self, k):
        grid, fld = per_case_band_field(np.random.default_rng(k + 3), k)
        phat = CUTOFFS.psi_j(asc.xi(grid), k) * fld
        assert (_chain_members(asc.half_of(phat), np.array(grid.box_length), np.array(k))
                == [per_case_members(grid, fld, k)])

    # the batch size is INTERPOLATION_TRIALS; one trial is its edge
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("num_trials", [1, 3, 20])
    def test_batched_check_is_the_per_case_loop_bit_for_bit(self, monkeypatch, seed, num_trials):
        monkeypatch.setattr(lemma_checks, "INTERPOLATION_TRIALS", num_trials)
        assert (check_interpolation_inequality(seed=seed)
                == per_case_interpolation(seed, num_trials))

    def test_peak_traced_allocation_at_most_the_per_case_loops(self):
        assert (traced_peak(check_interpolation_inequality)
                <= traced_peak(lambda: per_case_interpolation(0)))


def per_case_pseudo_product(seed, num_trials=PSEUDO_PRODUCT_TRIALS):
    """``check_pseudo_product`` as it was: one Python iteration and three
    drawn fields per trial, the factored oracle one mode at a time."""
    rng = np.random.default_rng(seed)
    grid = make_grid(128, 16.0 * np.pi)
    xi = asc.xi(grid)
    dxi = grid.dxi
    n = grid.n_points
    idx = np.arange(n)
    A = _kernel_l1_by_quadrature()
    m1 = np.exp(-xi ** 2)

    def random_field():
        c = np.zeros(n, dtype=complex)
        for k in range(1, 17):
            c[n // 2 + k] = rng.normal() + 1j * rng.normal()
        c[n // 2] = rng.normal()
        return asc.hermitize(0.3 * c)

    def norms(c):
        u = asc.inverse_transform(grid, c)
        return {"l2": float(np.sqrt(np.sum(u * u) * grid.dx)),
                "linf": float(np.max(np.abs(u)))}

    neg_mode = -(np.add.outer(idx - n // 2, idx - n // 2))
    valid = (neg_mode >= -(n // 2)) & (neg_mode < n // 2)
    np_clip = np.clip(neg_mode + n // 2, 0, n - 1)

    def trilinear(fh, gh, hh):
        h_neg = np.where(valid, hh[np_clip], 0.0)
        mat = np.multiply.outer(m1 * fh, m1 * gh) * h_neg
        return np.sum(mat) * dxi ** 2

    def trilinear_factored(fh, gh, hh):
        q = np.zeros(n, dtype=complex)
        mg = m1 * gh
        for j in range(n):
            h_modes = -(j - n // 2) - (idx - n // 2)
            valid_j = (h_modes >= -(n // 2)) & (h_modes < n // 2)
            hp = np.clip(h_modes + n // 2, 0, n - 1)
            q[j] = np.sum(mg * np.where(valid_j, hh[hp], 0.0)) * dxi
        return np.sum(m1 * fh * q) * dxi

    trials = []
    factored_defect = 0.0
    for trial in range(num_trials):
        f, g, h = random_field(), random_field(), random_field()
        T = trilinear(f, g, h)
        if trial == 0:
            T2 = trilinear_factored(f, g, h)
            factored_defect = abs(T - T2) / max(1e-300, abs(T))
        nf, ng, nh = norms(f), norms(g), norms(h)
        bounds = {
            "(2,2,inf)": A * nf["l2"] * ng["l2"] * nh["linf"],
            "(2,inf,2)": A * nf["l2"] * ng["linf"] * nh["l2"],
            "(inf,2,2)": A * nf["linf"] * ng["l2"] * nh["l2"],
        }
        trials.append({"trial": trial, "form": abs(T),
                       "ratios": {k: abs(T) / v for k, v in bounds.items()}})
    max_ratio = max(max(tr["ratios"].values()) for tr in trials)
    return {
        "kernel": "gaussian",
        "kernel_l1": A,
        "trials": trials,
        "max_ratio": float(max_ratio),
        "factored_defect": float(factored_defect),
    }


class TestPseudoProduct:
    def test_kernel_l1_matches_closed_form(self):
        result = check_pseudo_product(seed=0)
        assert result["kernel_l1"] == pytest.approx(4.0 * np.pi ** 2, rel=1e-12)

    def test_factorization_oracle(self):
        result = check_pseudo_product(seed=0)
        assert result["factored_defect"] <= FACTORED_DEFECT_MAX

    def test_bound_holds_and_is_seed_stable(self):
        r0 = check_pseudo_product(seed=0)
        r1 = check_pseudo_product(seed=1)
        assert r0["max_ratio"] < PSEUDO_PRODUCT_RATIO_MAX   # far below the analytic bound
        assert abs(r1["max_ratio"] - r0["max_ratio"]) <= 0.2 * r0["max_ratio"]

    # the batch size is PSEUDO_PRODUCT_TRIALS; one trial is its edge
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("num_trials", [1, 3, 20])
    def test_batched_check_is_the_per_case_loop_bit_for_bit(self, monkeypatch, seed, num_trials):
        monkeypatch.setattr(lemma_checks, "PSEUDO_PRODUCT_TRIALS", num_trials)
        assert check_pseudo_product(seed=seed) == per_case_pseudo_product(seed, num_trials)

    def test_peak_traced_allocation_at_most_the_per_case_loops(self):
        assert traced_peak(check_pseudo_product) <= traced_peak(lambda: per_case_pseudo_product(0))


class TestOscillatoryGaussian:
    def test_closed_form_values(self):
        assert oscillatory_gaussian_closed_form(1.0) == pytest.approx(TWO_PI / np.sqrt(5.0))
        assert oscillatory_gaussian_closed_form(10.0) == pytest.approx(
            TWO_PI * 10.0 / np.sqrt(0.04 + 100.0))

    def test_quadrature_matches_closed_form(self):
        result = check_oscillatory_gaussian()
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
        result = check_oscillatory_gaussian()
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
    """The band sup of one point as it was on the ascending spectrum: every mode
    evaluated, then synthesised from its Hermitian part (guards left out,
    they do not change the value)."""
    grid = _packet_grid(alpha, k, t)
    xi = asc.xi(grid)
    ghat = _bump(xi / 2.0 ** k)
    proj = CUTOFFS.psi_j(xi, k)
    shift = np.exp(-1j * xi * (0.7 * grid.box_length))
    coeffs = ghat * proj * shift * np.exp(1j * t * dispersion(alpha, xi))
    u = asc.inverse_transform(grid, coeffs.astype(complex))
    return float(np.max(np.abs(u)))


def full_layout_field_l1(alpha, k):
    """The field L^1 norm as it was synthesised for each band, on the
    ascending full spectrum of its own t = 1 packet grid."""
    grid = _packet_grid(alpha, k, 1.0)
    ghat = _bump(asc.xi(grid) / 2.0 ** k).astype(complex)
    u = asc.inverse_transform(grid, ghat)
    return float(np.sum(np.abs(u)) * grid.dx)


def per_band_profile_norms(k):
    """The profile norms as they were, summing over _S_NODES for every band."""
    scale = 2.0 ** k
    ds = _S_NODES[1] - _S_NODES[0]
    v = _bump(_S_NODES)
    dv = _bump_ds(_S_NODES)
    return {"ghat_inf": float(np.max(v)),
            "ghat_l2": float(np.sqrt(2.0 * np.sum(v ** 2) * ds * scale)),
            "dghat_l2": float(np.sqrt(2.0 * np.sum((dv / scale) ** 2) * ds * scale))}


def per_band_rhs(alpha, k, t):
    """``dispersive_rhs`` as it was: the band's own profile norms and the
    L^1 norm of the field synthesised on its own grid."""
    p = per_band_profile_norms(k)
    lead = t ** -0.5 * 2.0 ** (0.5 * (1.0 - alpha) * k)
    sub = t ** -0.75 * 2.0 ** (-0.25 * (1.0 + 3.0 * alpha) * k)
    return {"freq": lead * p["ghat_inf"] + sub * (p["ghat_l2"] + 2.0 ** k * p["dghat_l2"]),
            "phys": lead * full_layout_field_l1(alpha, k)}


def per_point_band_sup(alpha, k, t):
    """The band sup of one point as it was: its band a slice of the
    real-FFT half spectrum."""
    grid = _packet_grid(alpha, k, t)
    xi = np.arange(grid.n_points // 2 + 1) * grid.dxi
    ghat = _bump(xi / 2.0 ** k)
    band = slice(max(int(2.0 ** (k - 1) / grid.dxi) - 1, 0),
                 int(2.0 ** (k + 1) / grid.dxi) + 2)
    xi_band = xi[band]
    proj = CUTOFFS.psi_j(xi_band, k)
    shift = np.exp(-1j * xi_band * (0.7 * grid.box_length))
    half = np.zeros(len(xi), dtype=complex)
    half[band] = ghat[band] * proj * shift * np.exp(1j * t * dispersion(alpha, xi_band))
    u = inverse_transform(grid, half)
    return float(np.max(np.abs(u)))


def per_point_sweep(alpha):
    """``check_dispersive_estimate`` as it was: one Python iteration per point."""
    rows_freq, rows_phys = [], []
    for k in DISPERSIVE_BANDS:
        for t in DISPERSIVE_TIMES:
            lhs = per_point_band_sup(alpha, k, t)
            rhs = per_band_rhs(alpha, k, t)
            params = {"alpha": alpha, "k": int(k), "t": float(t)}
            rows_freq.append((params, lhs, rhs["freq"]))
            rows_phys.append((params, lhs, rhs["phys"]))
    t1 = 2.0 ** (1.0 + alpha) * 4.0
    r_dilated = per_point_band_sup(alpha, 1, 4.0) / per_band_rhs(alpha, 1, 4.0)["phys"]
    r_rescaled = per_point_band_sup(alpha, 0, t1) / per_band_rhs(alpha, 0, t1)["phys"]
    return {"alpha": alpha,
            "freq_side": estimate_sweep("dispersive_freq_side", rows_freq),
            "phys_side": estimate_sweep("dispersive_phys_side", rows_phys),
            "dilation_defect": float(abs(r_dilated - r_rescaled) / r_rescaled)}


DILATION_PAIRS = [(a, k, t) for a in (-0.8, -0.5, -0.2)
                  for k, t in ((1, 4.0), (0, 2.0 ** (1.0 + a) * 4.0))]


class TestDispersiveEstimate:
    @pytest.mark.parametrize("alpha, k, t", [
        (a, k, t) for a in (-0.8, -0.5, -0.2) for k in (-3, 0, 3)
        for t in (1.0, 64.0, 4096.0)] + DILATION_PAIRS)
    def test_half_layout_band_sup_is_the_full_layout_bit_for_bit(self, alpha, k, t):
        # the band-k field is Hermitian, so its half spectrum restricted to
        # the band synthesises exactly what the full layout did
        assert _evolved_band_sups(alpha, [k], [t])[0] == full_layout_band_sup(alpha, k, t)

    @pytest.mark.parametrize("alpha", [-0.8, -0.5, -0.2])
    def test_half_layout_norms_are_the_old_ones_bit_for_bit(self, alpha):
        # every default band's t = 1 grid is the exact 2^-k dilate of the
        # band-0 one, so its own synthesis gives the constant bit for bit
        for k in range(-3, 4):
            assert _FIELD_L1 == full_layout_field_l1(alpha, k)
            for t in (1.0, 64.0):
                assert dispersive_rhs(alpha, k, t) == per_band_rhs(alpha, k, t)

    @pytest.mark.parametrize("k, n_points", [(7, 4096), (9, 8192), (12, 32768)])
    def test_field_l1_on_larger_grids_is_the_constant_to_round_off(self, k, n_points):
        # other grid sizes sum other samples: the same norm up to round-off
        assert _packet_grid(-0.2, k, 1.0).n_points == n_points
        assert full_layout_field_l1(-0.2, k) == pytest.approx(_FIELD_L1, rel=1e-14, abs=0)

    def test_bump_squares_are_exactly_zero_past_their_cut(self):
        # _band_sup_rows evaluates the profile's squares only below this bound
        cut = lemma_checks._BUMP_CENTER + 20.0 / lemma_checks._BUMP_INVWIDTH
        assert np.all(_bump(np.linspace(cut, 64.0 * cut, 100001)) ** 2 == 0.0)

    def test_sweep_never_uses_the_ascending_layout(self, monkeypatch):
        def ascending(*args, **kwargs):
            raise AssertionError("the dispersive sweep built an ascending spectrum")

        for name in ("whole_spectrum", "whole_wavenumbers"):
            monkeypatch.setattr(lemma_checks, name, ascending)
        run, verdicts = LEMMA_CHECKS["dispersive"]
        assert all(v.passed for v in verdicts(run(0)))

    @pytest.mark.parametrize("center, invwidth", [(3.0, 3.0), (1.4, 0.5)])
    def test_leak_guard(self, monkeypatch, center, invwidth):
        # a bump off the band, or one too wide for it, leaks out of psi_k
        monkeypatch.setattr(lemma_checks, "_BUMP_CENTER", center)
        monkeypatch.setattr(lemma_checks, "_BUMP_INVWIDTH", invwidth)
        with pytest.raises(DomainError, match="leaks outside the dyadic band"):
            _evolved_band_sups(-0.5, [0], [4.0])

    def test_box_boundary_guard(self, monkeypatch):
        # an eighth of the box the packet needs: it wraps onto the boundary
        def small_box(alpha, k, t):
            grid = _packet_grid(alpha, k, t)
            return make_grid(grid.n_points, grid.box_length / 8.0)

        monkeypatch.setattr(lemma_checks, "_packet_grid", small_box)
        with pytest.raises(DomainError, match="packet reached the box boundary"):
            _evolved_band_sups(-0.5, [0], [64.0])

    @pytest.mark.parametrize("alpha", [-0.8, -0.5, -0.2])
    def test_batched_sweep_is_the_per_point_loop_bit_for_bit(self, alpha):
        assert check_dispersive_estimate(alpha) == per_point_sweep(alpha)

    def test_batched_sweep_mixes_grid_sizes_and_orders(self):
        # points out of grid-size order, repeated, and one per chunk
        ks, ts = (3, -3, 0, 3, 2, 0), (64.0, 1.0, 4096.0, 64.0, 16.0, 4.0)
        sups = _evolved_band_sups(-0.5, ks, ts)
        assert sups.tolist() == [per_point_band_sup(-0.5, k, t) for k, t in zip(ks, ts)]

    def test_peak_traced_allocation_at_most_the_per_point_loop(self):
        run, _ = LEMMA_CHECKS["dispersive"]
        assert (traced_peak(lambda: run(0))
                <= traced_peak(lambda: [per_point_sweep(a) for a in (-0.8, -0.5, -0.2)]))

    # the 2^18-point cap left the band above the grid's Nyquist frequency: the
    # first point returned a truncated packet's sup, the second blamed the
    # profile for leaking out of its band
    @pytest.mark.parametrize("alpha, t, nyquist", [(-0.2, 8192.0, "50.3"),
                                                   (-0.5, 65536.0, "25.1")])
    def test_grid_cap_guard(self, monkeypatch, alpha, t, nyquist):
        message = (f"2\\^18-point grid cap puts the Nyquist frequency {nyquist} "
                   "below the top 128 of the dyadic band 2\\^6")
        with pytest.raises(DomainError, match=message):
            _packet_grid(alpha, 6, t)
        # a sweep extended past the cap refuses the same way
        monkeypatch.setattr(lemma_checks, "DISPERSIVE_BANDS", (0, 6))
        monkeypatch.setattr(lemma_checks, "DISPERSIVE_TIMES", (t,))
        with pytest.raises(DomainError, match=message):
            check_dispersive_estimate(alpha)

    def test_sweep_bounded_and_dilation_invariant(self):
        result = check_dispersive_estimate(-0.5)
        assert result["freq_side"]["ratio_stats"]["max"] < 10.0
        assert result["phys_side"]["ratio_stats"]["max"] < 10.0
        assert result["dilation_defect"] <= DISPERSIVE_DILATION_DEFECT_MAX

    def test_sweep_sides_equal_dispersive_rhs(self):
        # the sweep computes each band's norms once; the sides stay bit for bit
        result = check_dispersive_estimate(-0.5)
        for side in ("freq", "phys"):
            sweep = result[f"{side}_side"]
            assert sweep["rhs"] == [dispersive_rhs(-0.5, p["k"], p["t"])[side]
                                    for p in sweep["tuples"]]

    # the box is sized for the leftward drift of -1 < alpha < 0; a positive
    # alpha ran on into "packet reached the box boundary"
    @pytest.mark.parametrize("alpha", [1.5, 0.7, 0.0, float("nan")])
    def test_alpha_range_guard(self, alpha):
        with pytest.raises(ConfigurationError, match=r"alpha must lie in \(-1.0, 0.0\)"):
            check_dispersive_estimate(alpha)

    def test_ratio_time_stability_dispersed_regime(self):
        # once the packet is fully dispersed the sup obeys the predicted
        # t^(-1/2) law and both sides' ratios freeze (to within 20% per 4x)
        sup1, sup4 = _evolved_band_sups(-0.5, [0, 0], [1024.0, 4096.0])
        for side in ("freq", "phys"):
            r1 = sup1 / dispersive_rhs(-0.5, 0, 1024.0)[side]
            r4 = sup4 / dispersive_rhs(-0.5, 0, 4096.0)[side]
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


def positive_finite(values):
    return len(values) >= 1 and all(np.isfinite(v) and v > 0 for v in values)


class TestCaseConstants:
    """Each case constant lies in the domain its check needs: these are the
    rules that refusals enforced while the values were parameters, so an edit
    that breaks one fails here, not as a NaN ratio or a fit warning."""

    @pytest.mark.parametrize("name, holds", [
        ("DISPERSIVE_BANDS", lambda v: len(v) >= 1 and all(isinstance(k, int) for k in v)),
        ("DISPERSIVE_TIMES", positive_finite),
        ("INTERPOLATION_TRIALS", lambda v: isinstance(v, int) and v >= 1),
        ("PSEUDO_PRODUCT_TRIALS", lambda v: isinstance(v, int) and v >= 1),
        # the quadratic coefficient alpha (alpha+1) xi^(alpha-1) is a''(xi) for
        # xi > 0; xi = 1 stands for every other frequency by homogeneity
        ("PHASE_XI", lambda v: v == 1.0),
        # halving offsets, the largest xi/64: |xi - eta - sigma| stays >= 31 xi/32
        ("PHASE_OFFSETS", lambda v: v[0] <= PHASE_XI / 64.0 and positive_finite(v)
         and all(b == a / 2.0 for a, b in zip(v, v[1:]))),
        # the double-sum oracle refuses more than 64 points; 8 keep one mode
        ("TRILINEAR_POINTS", lambda v: isinstance(v, int) and 8 <= v <= 64),
        ("GAUSSIAN_N_LIST", positive_finite),
        # a rate is fitted through at least two distinct N
        ("CUTOFF_N_LIST", lambda v: positive_finite(v) and len(set(v)) >= 2),
        ("CUTOFF_N_CHECK", lambda v: positive_finite([v])),
    ])
    def test_case_constant_in_its_domain(self, name, holds):
        assert holds(getattr(lemma_checks, name))
