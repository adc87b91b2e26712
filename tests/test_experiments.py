import json
import os
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from fkdvlab import experiments
from fkdvlab.errors import ConfigurationError
from fkdvlab.experiments import (
    DETECT_DT,
    LONGWAVE_ORDERS,
    ExperimentConfig,
    default_config,
    initial_field,
    measure_smallness,
    predict_shock_time,
    run_study,
)
from fkdvlab.cli import cli_dispatch
from fkdvlab.equations import make_equation
from fkdvlab.integrator import HaltReason, SolverConfig, run_simulation
from fkdvlab.spectral import (CUTOFFS, SpectralField, hermitize, inverse_transform,
                              make_grid, norm_l2, norm_sobolev, norm_z)

import ascending as asc
import outputs

TWO_PI = 2.0 * np.pi


def samples(fld):
    return inverse_transform(fld.grid, fld.coeffs)


class TestShockOracle:
    def test_refinement_splits_the_nyquist_mode(self):
        # random data carry a Nyquist coefficient, which the 8x refinement
        # must split over +-n/2; dropping the split moves t* to
        # 0.07355886015393448
        g = make_grid(64, TWO_PI)
        u0 = 0.3 * np.random.default_rng(3).normal(size=64)
        assert predict_shock_time(u0, g) == 0.07506640057562651

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_cubic_sine_scaling(self, a):
        # for u_t = -u^2 u_x the compression rate is d/dx(u0^2); the sine
        # profile gives exactly 1/a^2
        g = make_grid(512, TWO_PI)
        t_star = predict_shock_time(a * np.sin(g.x), g)
        assert t_star == pytest.approx(1.0 / a ** 2, rel=1e-6)

    def test_cubic_sine_matches_bruteforce(self):
        g = make_grid(256, TWO_PI)
        a = 0.7
        t_star = predict_shock_time(a * np.sin(g.x), g)
        xf = np.linspace(0, TWO_PI, 200001)
        slope = np.gradient((a * np.sin(xf)) ** 2, xf)
        assert t_star == pytest.approx(-1.0 / slope.min(), rel=1e-4)

    @pytest.mark.parametrize("profile", [
        lambda x: 0.7 * np.sin(x),
        lambda x: np.exp(-4.0 * (x - np.pi) ** 2),
        lambda x: np.sin(x) + 0.5 * np.cos(2.0 * x),
    ], ids=["sine", "gaussian", "two_modes"])
    def test_sign_reversal_keeps_cubic_shock_time(self, profile):
        # u^2 u_x compresses by d/dx(u0^2), which u0 -> -u0 leaves unchanged
        g = make_grid(256, TWO_PI)
        u0 = profile(g.x)
        t_star = predict_shock_time(u0, g)
        assert t_star is not None and t_star > 0
        assert predict_shock_time(-u0, g) == t_star

    def test_constant_has_no_shock(self):
        g = make_grid(64, TWO_PI)
        assert predict_shock_time(np.full(64, 0.3), g) is None


class TestConfigAndData:
    def test_default_configs_exist(self):
        for study in ("decay", "scattering", "longwave", "shock", "norms"):
            cfg = default_config(study)
            assert cfg.study == study

    def test_unknown_study(self):
        with pytest.raises(ConfigurationError):
            default_config("hydro")

    @pytest.mark.parametrize("study,override,key", [
        ("decay", {"initial_kind": "bogus"}, r"\[initial\] kind"),
        ("longwave", {"equation": "bogus"}, r"\[equation\] kind"),
        ("decay", {"sample_dt": 0.0}, r"\[study\] sample_dt"),
        ("decay", {"sample_dt": float("nan")}, r"\[study\] sample_dt"),
        ("longwave", {"eps_list": (0.1, 0.0)}, r"\[study\] eps_list"),
        ("longwave", {"eps_list": (0.1, float("nan"))}, r"\[study\] eps_list"),
        ("decay", {"sample_dt": float("inf")}, r"\[study\] sample_dt"),
        ("longwave", {"eps_list": (0.1, float("inf"))}, r"\[study\] eps_list"),
        ("norms", {"t_end": float("inf")}, r"\[solver\] t_end"),
        ("decay", {"seed": -1}, r"\[run\] seed"),
        # the INI file refuses seed = 1.5, and numpy's generators refuse it
        ("decay", {"seed": 1.5}, r"\[run\] seed"),
        ("shock", {"seed": np.float64(1.5)}, r"\[run\] seed"),
        ("shock", {"blowup_factor": 1.0}, r"\[study\] blowup_factor"),
        ("shock", {"blowup_factor": float("nan")}, r"\[study\] blowup_factor"),
        ("decay", {"n_points": 64.0}, r"\[grid\] n_points"),
        ("longwave", {"eps_list": ()}, r"\[study\] eps_list"),
        ("longwave", {"t_eval": float("inf")}, r"\[study\] t_eval"),
        ("shock", {"blowup_factor": float("inf")}, r"\[study\] blowup_factor"),
        ("shock", {"refine_start": 512.0}, r"\[study\] refine_start"),
        ("shock", {"refine_max": float("inf")}, r"\[study\] refine_max"),
        ("norms", {"fit_t_max": float("inf")}, r"\[study\] fit window"),
    ])
    def test_direct_construction_validated(self, study, override, key):
        with pytest.raises(ConfigurationError, match=key):
            default_config(study, **override)

    def test_config_is_frozen_and_checked_on_replace(self):
        # replace builds a new config, which checks itself; this one was
        # accepted without a word while configs were mutable and checked by
        # their callers
        cfg = default_config("shock")
        with pytest.raises(ConfigurationError, match=r"\[study\] refine_start"):
            replace(cfg, refine_start=12)
        with pytest.raises(FrozenInstanceError):
            cfg.refine_start = 12

    def test_bad_override_rejected_before_any_step(self, tmp_path, monkeypatch):
        # a fit window that starts after it ends is a cross-field error
        with pytest.raises(ConfigurationError):
            default_config("decay", fit_t_min=200.0)

        def no_simulation(*args, **kwargs):
            raise AssertionError("the simulation started")

        monkeypatch.setattr(experiments, "run_simulation", no_simulation)
        with pytest.raises(ConfigurationError):
            run_study(replace(default_config("decay"), fit_t_min=200.0), str(tmp_path))

    def test_initial_kinds(self):
        cfg = default_config("decay")
        g = make_grid(256, 16.0)
        for kind in ("gaussian", "sech2"):
            fld = initial_field(replace(cfg, initial_kind=kind, width=1.0), g)
            u = samples(fld)
            assert u.max() == pytest.approx(cfg.amplitude, rel=1e-6)
        sine = initial_field(replace(cfg, initial_kind="sine", sine_mode=2), g)
        u = samples(sine)
        assert np.max(np.abs(u - cfg.amplitude * np.sin(4 * np.pi * g.x / 16.0))) < 1e-12

    @pytest.mark.parametrize("kind", ["gaussian", "sech2"])
    def test_far_offsets_are_exact_zeros_and_the_rest_bit_identical(self, kind):
        # the saturated offset changes no sample the plain formula leaves
        # nonzero; past the reach both profiles are exactly 0
        g = make_grid(1024, 2000.0)
        cfg = replace(default_config("decay"), initial_kind=kind, width=0.5,
                      amplitude=1e300)
        z = (g.x - g.x_center) / cfg.width
        with np.errstate(over="ignore"):
            plain = (cfg.amplitude * np.exp(-z ** 2) if kind == "gaussian"
                     else cfg.amplitude / np.cosh(z) ** 2)
        assert np.count_nonzero(plain) < g.n_points
        got = initial_field(cfg, g)
        want = hermitize(SpectralField.from_samples(g, plain))
        assert np.array_equal(got.coeffs, want.coeffs)

    def test_smallness_decomposition(self):
        cfg = replace(default_config("decay"), n_points=2 ** 10,
                      box_length=64.0 * np.pi)
        g = cfg.grid()
        u0 = initial_field(cfg, g)
        sm = measure_smallness(u0)
        assert sm["epsilon0"] == pytest.approx(
            sm["sobolev"] + sm["h11"] + sm["z"], rel=1e-12)
        assert sm["sobolev"] == pytest.approx(norm_sobolev(u0, experiments.SOBOLEV_ORDER))
        assert sm["z"] == pytest.approx(norm_z(u0))
        assert sm["h11_reliable"]

    @pytest.mark.parametrize("study", ["decay", "shock", "longwave"])
    def test_smallness_bound_enforced(self, study, tmp_path, monkeypatch):
        # every study refuses data above EPSILON_BAR before any step; the
        # shock and longwave defaults measure about 2.1e3 and 1.8e4
        def no_simulation(*args, **kwargs):
            raise AssertionError("the simulation started")

        monkeypatch.setattr(experiments, "run_simulation", no_simulation)
        monkeypatch.setattr(experiments, "EPSILON_BAR", 1.0)
        with pytest.raises(ConfigurationError, match="smallness bound"):
            run_study(default_config(study), str(tmp_path))
        assert cli_dispatch([study, "--out", str(tmp_path)]) == 2

    def test_nan_size_refused(self, tmp_path, monkeypatch):
        # a NaN size fails the smallness gate, not the first step
        def no_simulation(*args, **kwargs):
            raise AssertionError("the simulation started")

        measure = experiments.measure_smallness
        monkeypatch.setattr(experiments, "run_simulation", no_simulation)
        monkeypatch.setattr(experiments, "measure_smallness",
                            lambda u0: {**measure(u0), "epsilon0": np.nan})
        cfg = replace(default_config("decay"), n_points=64)
        with pytest.raises(ConfigurationError, match="smallness bound"):
            run_study(cfg, str(tmp_path))


SMALL_DECAY = dict(n_points=2 ** 11, box_length=64.0 * np.pi, t_end=30.0,
                   fit_t_max=30.0, sample_dt=0.5)


class TestStudySmoke:
    def test_decay_small(self, tmp_path):
        cfg = replace(default_config("decay"), **SMALL_DECAY)
        report = run_study(cfg, str(tmp_path))
        assert report.measured["halt"]["kind"] == "completed"
        assert -0.8 < report.measured["exponent_u"] < -0.2
        assert os.path.exists(os.path.join(str(tmp_path), report.series_paths[0]))
        assert os.path.exists(os.path.join(str(tmp_path), "decay_report.json"))
        with open(os.path.join(str(tmp_path), "decay_manifest.json")) as fh:
            assert json.load(fh)["cutoff_profile"] == CUTOFFS.description
        for v in report.verdicts:
            assert v.series == "decay_series.csv"

    def test_decay_requires_dispersive(self):
        with pytest.raises(ConfigurationError, match="requires a dispersive equation"):
            replace(default_config("decay"), equation="modified_burgers", alpha=None)

    def test_scattering_guards(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_study(replace(default_config("scattering"), t_end=32.0), str(tmp_path))
        with pytest.raises(ConfigurationError, match="requires modified_fkdv"):
            run_study(replace(default_config("scattering"), equation="mkdv", epsilon=0.1),
                      str(tmp_path))

    def test_scattering_small(self, tmp_path):
        cfg = replace(default_config("scattering"), n_points=2 ** 11,
                      box_length=128.0 * np.pi, t_end=64.0)
        report = run_study(cfg, str(tmp_path))
        assert len(report.measured["d_corrected"]) == 5
        assert np.isfinite(report.measured["rate_corrected"])
        assert np.isfinite(report.measured["final_ratio"])
        assert os.path.exists(os.path.join(str(tmp_path), "scattering_limit.csv"))

    def test_scattering_linear_flow_contrast(self, tmp_path):
        # with the nonlinearity off the raw profile is constant while the
        # correction still rotates it: the correction must only be applied
        # to the nonlinear flow
        from fkdvlab.diagnostics import PhaseAccumulator, compute_profile, z_distance
        from fkdvlab.integrator import SolverConfig

        cfg = replace(default_config("scattering"), n_points=2 ** 10,
                      box_length=64.0 * np.pi, width=8.0)
        grid = cfg.grid()
        eq = replace(make_equation("modified_fkdv", alpha=-0.5), coefficient=0.0)
        u0 = initial_field(cfg, grid)
        acc = PhaseAccumulator(grid, -0.5)
        store = {}

        def obs(state):
            f_hat = compute_profile(state.field, state.t, eq)
            store[state.t] = (f_hat, acc.correct(state.t, f_hat))

        sc = SolverConfig(dt_max=0.1, t_end=16.0, snapshot_times=(1.0, 4.0, 16.0))
        run_simulation(u0, eq, sc, obs)
        (f1, g1), (f2, g2) = store[4.0], store[16.0]
        assert z_distance(f1, f2) <= 1e-12
        assert z_distance(g1, g2) > 1e-6

    def test_longwave_small(self, tmp_path):
        cfg = replace(default_config("longwave"), n_points=2 ** 9,
                      eps_list=(0.2, 0.1), t_eval=2.0)
        report = run_study(cfg, str(tmp_path))
        ratio = report.measured["ratio_e0_eps0.2_over_eps0.1"]
        assert 1.5 < ratio < 8.0
        assert len(report.series_paths) == 2

    def test_longwave_early_t_eval_reads_the_first_later_snapshot(self, tmp_path):
        # t = 0 is the nearest snapshot to t_eval = 0.1, but every error is 0
        # there: the ratio reads t = 0.25 instead
        cfg = replace(default_config("longwave"), n_points=2 ** 8,
                      eps_list=(0.2, 0.1), t_eval=0.1)
        report = run_study(cfg, str(tmp_path))
        assert [v.name for v in report.verdicts][:2] == [
            "e0_ratio_eps0.2_to_0.1", "e1_ratio_eps0.2_to_0.1"]
        for j in LONGWAVE_ORDERS:
            cols = [outputs.read_series(str(tmp_path / f"longwave_eps{eps:g}.csv"))
                    for eps in cfg.eps_list]
            assert all(times[1] == 0.25 for times, _ in cols)
            want = cols[0][1][f"e{j}"][1] / cols[1][1][f"e{j}"][1]
            assert report.measured[f"ratio_e{j}_eps0.2_over_eps0.1"] == want

    @pytest.mark.parametrize("orders", [(0,), (0, 1, 2)])
    def test_longwave_reads_the_module_orders(self, tmp_path, monkeypatch, orders):
        # the series columns and ratio verdicts follow LONGWAVE_ORDERS,
        # which no config can set
        monkeypatch.setattr(experiments, "LONGWAVE_ORDERS", orders)
        cfg = replace(default_config("longwave"), n_points=2 ** 8,
                      eps_list=(0.2, 0.1), t_eval=2.0)
        report = run_study(cfg, str(tmp_path))
        header = (tmp_path / "longwave_eps0.2.csv").read_text().splitlines()[0]
        assert header == "t," + ",".join(f"e{j}" for j in orders)
        assert [v.name for v in report.verdicts if "_ratio_" in v.name] == [
            f"e{j}_ratio_eps0.2_to_0.1" for j in orders]

    def test_longwave_needs_two_epsilons(self):
        with pytest.raises(ConfigurationError, match="eps_list"):
            replace(default_config("longwave"), eps_list=(0.1,))

    def test_shock_fast_confirms(self, tmp_path):
        cfg = replace(default_config("shock"), blowup_factor=20.0,
                      refine_start=2 ** 9, refine_max=2 ** 11)
        report = run_study(cfg, str(tmp_path))
        assert report.measured["oracle_t_star"] == pytest.approx(4.0, rel=1e-6)
        assert report.measured["t_detect"] is not None
        assert abs(report.measured["t_detect"] - 4.0) / 4.0 < 0.15
        assert report.measured["contrast"]["t_detect"] is None

    @pytest.mark.parametrize("factor,text", [(4.0, "4"), (2.0, "2")])
    def test_contrast_threshold_names_its_horizon(self, tmp_path, monkeypatch,
                                                  factor, text):
        monkeypatch.setattr(experiments, "CONTRAST_HORIZON_FACTOR", factor)
        cfg = default_config("shock", blowup_factor=20.0, refine_start=2 ** 6,
                             refine_max=2 ** 8)
        report = run_study(cfg, str(tmp_path))
        m = report.measured
        assert m["contrast"]["horizon"] == factor * m["oracle_t_star"]
        threshold = next(v.threshold for v in report.verdicts
                         if v.name == "dispersive_contrast_no_detection")
        assert threshold == (f"gradient growth < {cfg.blowup_factor}x over "
                             f"{experiments.CONTRAST_HORIZON_FACTOR:g}*t*")
        assert threshold == f"gradient growth < 20.0x over {text}*t*"

    def test_shock_no_compression(self, tmp_path):
        cfg = replace(default_config("shock"), amplitude=0.0, t_end=2.0,
                      refine_start=2 ** 9, refine_max=2 ** 10)
        report = run_study(cfg, str(tmp_path))
        assert report.measured["oracle_t_star"] is None
        assert report.all_passed

    def test_shock_requires_dispersionless(self):
        with pytest.raises(ConfigurationError, match="requires a dispersionless equation"):
            replace(default_config("shock"), equation="modified_fkdv", alpha=-0.5)


class TestHaltPolicy:
    """A study whose run stops early reports that halt and fails a
    run_completed verdict instead of fitting the partial series."""

    @pytest.mark.parametrize("study", ["scattering", "norms"])
    def test_blowup_fails_run_completed(self, study, tmp_path, monkeypatch):
        # coefficients above the blow-up amplitude halt the first step
        monkeypatch.setattr(experiments, "EPSILON_BAR", 1e300)
        cfg = replace(default_config(study), n_points=2 ** 9, amplitude=1e14)
        report = run_study(cfg, str(tmp_path))
        assert report.measured["halt"]["kind"] == "blowup"
        assert [(v.name, v.passed) for v in report.verdicts] == [("run_completed", False)]
        manifest = json.load(open(tmp_path / f"{study}_manifest.json"))
        assert manifest["halt"] == report.measured["halt"]
        assert report.verdicts[0].series == f"{study}_manifest.json"

    def test_longwave_reports_first_early_halt(self, tmp_path, monkeypatch):
        # the first member (eps = 0.2) stops at t = 1; the last completes
        def first_member_blows_up(u0, eq, config, observer=None):
            if eq.epsilon == 0.2:
                config = replace(config, t_end=1.0, snapshot_times=tuple(
                    t for t in config.snapshot_times if t <= 1.0))
                return run_simulation(u0, eq, config, observer)[0], HaltReason("blowup", 1.0)
            return run_simulation(u0, eq, config, observer)

        monkeypatch.setattr(experiments, "run_simulation", first_member_blows_up)
        cfg = replace(default_config("longwave"), n_points=2 ** 8,
                      eps_list=(0.2, 0.1), t_eval=2.0)
        report = run_study(cfg, str(tmp_path))
        manifest = json.load(open(tmp_path / "longwave_manifest.json"))
        assert manifest["halt"] == {"kind": "blowup", "t": 1.0}
        assert [(v.name, v.passed) for v in report.verdicts] == [("run_completed", False)]
        assert len(report.series_paths) == 2


class TestSampleRun:
    """sample_run evaluates each column once at every scheduled snapshot."""

    @staticmethod
    def sine(n, amplitude):
        g = make_grid(n, TWO_PI)
        return hermitize(SpectralField.from_samples(g, amplitude * np.sin(g.x)))

    def test_each_column_once_per_snapshot_in_time_order(self):
        u0 = self.sine(64, 0.01)
        eq = make_equation("modified_burgers")
        schedule = (0.3, 1.0, 1.7)
        # t_end = 2 is stepped to but not scheduled, so not sampled
        config = SolverConfig(dt_max=0.13, t_end=2.0, snapshot_times=schedule)
        calls = []

        def column(name, value):
            def evaluate(state):
                calls.append((name, state.t))
                return value(state)
            return evaluate

        halt, times, values = experiments.sample_run(u0, eq, config, {
            "t": column("t", lambda state: state.t),
            "l2": column("l2", lambda state: norm_l2(state.field))})
        assert halt.completed
        assert times == values["t"] == list(schedule)
        assert calls == [(name, t) for t in schedule for name in ("t", "l2")]
        seen = []
        run_simulation(u0, eq, config, lambda state: seen.append(norm_l2(state.field)))
        assert values["l2"] == seen

    @pytest.mark.parametrize("schedule", [(0.0, 0.5, 1.0), (0.5, 1.0)])
    def test_t0_sampled_only_when_scheduled(self, schedule):
        u0 = self.sine(64, 0.01)
        eq = make_equation("modified_fkdv", alpha=-0.5)
        config = SolverConfig(dt_max=0.1, t_end=1.0, snapshot_times=schedule)
        halt, times, values = experiments.sample_run(u0, eq, config,
                                                     {"half": lambda state: state.half})
        assert halt.completed and times == list(schedule)
        if schedule[0] == 0.0:
            assert np.array_equal(values["half"][0], u0.coeffs)
        # a scheduled t = 0 changes no step: the last sample is the same
        final, _ = run_simulation(u0, eq, replace(config, snapshot_times=()))
        assert np.array_equal(values["half"][-1], final.half)

    def test_halted_run_stops_at_its_last_finite_snapshot(self):
        # data above the blow-up amplitude halt the first step, before t = 1
        u0 = self.sine(64, 3e12)
        config = SolverConfig(dt_max=0.05, t_end=5.0, snapshot_times=(0.0, 1.0, 5.0))
        halt, times, values = experiments.sample_run(
            u0, make_equation("modified_burgers"), config,
            {"t": lambda state: state.t,
             "finite": lambda state: bool(np.all(np.isfinite(state.half)))})
        assert halt.kind in ("blowup", "nan") and 0.0 < halt.t < 1.0
        assert times == [0.0]
        assert values == {"t": [0.0], "finite": [True]}


class TestShockObserver:
    """The ladder observer reads sup|u_x| from the solver's half spectrum;
    it must equal the same expression on the ascending spectrum bit for
    bit."""

    @pytest.mark.parametrize("equation,alpha", [("modified_burgers", None),
                                                ("modified_fkdv", -0.5)])
    @pytest.mark.parametrize("n", [16, 512, 4096])
    @pytest.mark.parametrize("box_length", [TWO_PI, 256.0 * np.pi])
    def test_matches_full_spectrum_expression(self, equation, alpha, n, box_length):
        # the shock study runs modified_fkdv only as its contrast, so the
        # equation is handed to the observer, not set in the shock config
        cfg = default_config("shock", box_length=box_length, blowup_factor=1.02)
        eq = make_equation(equation, alpha=alpha)
        grid = make_grid(n, box_length)
        dxs = 1j * asc.xi(grid)
        dxs[0] = 0.0
        sup_ux = experiments._sup_gradient(grid)
        t_end = 0.5
        old_values, mismatches = [], []

        def sup_ux_ascending(half):
            return float(np.max(np.abs(asc.inverse_transform(grid, dxs * asc.mirror(half)))))

        def observer(state):
            old = sup_ux_ascending(state.half)
            new = sup_ux(state.half)
            old_values.append((state.t, old))
            if new != old:
                mismatches.append((state.t, old, new))

        u0 = initial_field(cfg, grid)
        run_simulation(u0, eq, cfg.solver(t_end, tuple(np.arange(0.0, t_end + 1e-9,
                                                                DETECT_DT))),
                       observer)
        assert len(old_values) == 51 and mismatches == []

        t_detect, info = experiments._detect_blowup_time(cfg, eq, u0, t_end)
        g0 = sup_ux_ascending(u0.coeffs)
        hits = [t for t, v in old_values if v >= cfg.blowup_factor * g0]
        assert info["peak_gradient"] == max(v for _, v in old_values)
        assert t_detect == (hits[0] if hits else None)


    @pytest.mark.parametrize("spacing", [DETECT_DT, 0.05])
    def test_detection_snapshots_every_detect_dt(self, monkeypatch, spacing):
        # the detector reads the module constant, which no config can set
        seen = []
        sample_run = experiments.sample_run

        def recording(u0, eq, config, observables):
            seen.append(config.snapshot_times)
            return sample_run(u0, eq, config, observables)

        monkeypatch.setattr(experiments, "DETECT_DT", spacing)
        monkeypatch.setattr(experiments, "sample_run", recording)
        cfg = default_config("shock", n_points=64)
        experiments._detect_blowup_time(cfg, cfg.make_eq(), initial_field(cfg, cfg.grid()),
                                        0.5)
        assert seen == [experiments.uniform_snapshots(0.5, spacing)]


class TestDeterminism:
    def test_identical_configs_byte_identical_outputs(self, tmp_path):
        cfg = replace(default_config("decay"), **SMALL_DECAY)
        run_study(cfg, str(tmp_path / "a"))
        run_study(cfg, str(tmp_path / "b"))
        for name in ("decay_series.csv", "decay_report.json"):
            with open(tmp_path / "a" / name, "rb") as fh:
                blob_a = fh.read()
            with open(tmp_path / "b" / name, "rb") as fh:
                blob_b = fh.read()
            assert blob_a == blob_b


class TestResolutionStability:
    """Verdicts must not change under grid refinement or box doubling."""

    def test_longwave_verdicts_stable_under_n_doubling(self, tmp_path):
        base = replace(default_config("longwave"), eps_list=(0.2, 0.1),
                       t_eval=2.0, n_points=2 ** 9)
        fine = replace(base, n_points=2 ** 10)
        rep_a = run_study(base, str(tmp_path / "a"))
        rep_b = run_study(fine, str(tmp_path / "b"))
        verdicts_a = {v.name: v.passed for v in rep_a.verdicts}
        verdicts_b = {v.name: v.passed for v in rep_b.verdicts}
        assert verdicts_a == verdicts_b
        ra = rep_a.measured["ratio_e0_eps0.2_over_eps0.1"]
        rb = rep_b.measured["ratio_e0_eps0.2_over_eps0.1"]
        assert ra == pytest.approx(rb, rel=1e-3)

    def test_scattering_final_ratio_stable_under_box_doubling(self, tmp_path):
        base = default_config("scattering")
        doubled = replace(base, box_length=2.0 * base.box_length,
                          n_points=2 * base.n_points)
        rep_a = run_study(base, str(tmp_path / "a"))
        rep_b = run_study(doubled, str(tmp_path / "b"))
        va = {v.name: v.passed for v in rep_a.verdicts}
        vb = {v.name: v.passed for v in rep_b.verdicts}
        assert va == vb
        assert rep_b.measured["final_ratio"] <= experiments.FINAL_RATIO_MAX
