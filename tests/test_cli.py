import json
import os
import re
import subprocess
import sys
import textwrap
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fkdvlab import cli, config, experiments
from fkdvlab import io as lab_io
from fkdvlab.cli import cli_dispatch
from fkdvlab.config import _SECTIONS, parse_config
from fkdvlab.errors import ConfigurationError
from fkdvlab.experiments import STUDIES, ExperimentConfig, ExperimentReport, default_config
from fkdvlab.spectral import SpectralField, make_grid

import outputs


def write(tmp_path, text, name="c.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def assert_refused_on_path(tmp_path, capsys, path, section, key, raw, match):
    """A 64-point decay config with ``[section] key = raw`` is refused,
    naming ``match``, by default_config ("direct"), by dataclasses.replace
    on a valid 64-point decay config ("replace"), by parse_config ("ini") or
    by the CLI with exit status 2 ("cli")."""
    ini = {"grid": {"n_points": "64"}}
    ini.setdefault(section, {})[key] = raw
    if key == "epsilon":
        ini["equation"]["kind"] = "mkdv"
    if path in ("direct", "replace"):
        values = {}
        for sec, keys in ini.items():
            for k, text in keys.items():
                attr, parse = _SECTIONS[sec][k]
                values[attr] = parse(sec, k, text)
        with pytest.raises(ConfigurationError, match=match):
            if path == "direct":
                default_config("decay", **values)
            else:
                replace(default_config("decay", n_points=64), **values)
        return
    config = write(tmp_path, "".join(
        f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for sec, keys in ini.items()))
    if path == "ini":
        with pytest.raises(ConfigurationError, match=match):
            parse_config(config)
    else:
        assert cli_dispatch(["decay", "--config", config,
                             "--out", str(tmp_path / "o")]) == 2
        assert re.search(match, capsys.readouterr().err)


class TestConfigParsing:
    def test_minimal_config_resolves_defaults(self, tmp_path):
        path = write(tmp_path, "[run]\nstudy = decay\n\n[equation]\nalpha = -0.5\n")
        cfg, out_dir = parse_config(path)
        assert cfg.study == "decay"
        assert cfg.alpha == -0.5
        assert cfg.n_points == 2 ** 13            # default filled
        assert cfg.width == 0.7                   # study default filled
        assert out_dir is None

    def test_alpha_out_of_range_rejected(self, tmp_path):
        path = write(tmp_path, "[run]\nstudy = decay\n\n[equation]\n"
                               "kind = modified_fkdv\nalpha = 0.5\n")
        with pytest.raises(ConfigurationError, match="alpha"):
            parse_config(path)

    def test_non_power_of_two_rejected(self, tmp_path):
        path = write(tmp_path, "[run]\nstudy = decay\n\n[grid]\nn_points = 1000\n")
        with pytest.raises(ConfigurationError, match="n_points"):
            parse_config(path)

    def test_unknown_key_rejected_with_path(self, tmp_path):
        path = write(tmp_path, "[solver]\ndt_min = 0.1\n")
        with pytest.raises(ConfigurationError, match=r"\[solver\] dt_min"):
            parse_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = write(tmp_path, "[plotting]\ncolor = red\n")
        with pytest.raises(ConfigurationError, match="plotting"):
            parse_config(path)

    def test_missing_file(self):
        with pytest.raises(ConfigurationError, match="not found"):
            parse_config("/nonexistent/path.cfg")

    def test_malformed_file(self, tmp_path):
        path = write(tmp_path, "not an ini file at all\n")
        with pytest.raises(ConfigurationError, match="malformed"):
            parse_config(path)

    def test_bad_value_type(self, tmp_path):
        path = write(tmp_path, "[solver]\ndt_max = big\n")
        with pytest.raises(ConfigurationError, match=r"\[solver\] dt_max"):
            parse_config(path)

    def test_list_values(self, tmp_path):
        path = write(tmp_path, "[run]\nstudy = longwave\n\n[study]\n"
                               "eps_list = 0.2, 0.1\n")
        cfg, _ = parse_config(path)
        assert cfg.eps_list == (0.2, 0.1)

    def test_longwave_series_name_integer_orders(self, tmp_path):
        # the Sobolev orders name the columns and verdicts e0, e1; read as
        # floats they would name them e0.0, e1.0
        path = write(tmp_path, "[run]\nstudy = longwave\n[grid]\nn_points = 256\n"
                               "[study]\neps_list = 0.2, 0.1\nt_eval = 2\n")
        out = tmp_path / "out"
        cli_dispatch(["longwave", "--config", path, "--out", str(out)])
        header = (out / "longwave" / "longwave_eps0.2.csv").read_text().splitlines()[0]
        assert header == "t,e0,e1"
        report = json.loads((out / "longwave" / "longwave_report.json").read_text())
        assert "e0_ratio_eps0.2_to_0.1" in {v["name"] for v in report["verdicts"]}

    def test_window_ordering_validated(self, tmp_path):
        path = write(tmp_path, "[study]\nfit_t_min = 50\nfit_t_max = 10\n")
        with pytest.raises(ConfigurationError, match="fit window"):
            parse_config(path)

    @pytest.mark.parametrize("text,key", [
        ("[run]\nstudy = scattering\n[solver]\nt_end = 32\n", "t_end"),
        ("[run]\nstudy = norms\n[equation]\nkind = mkdv\nepsilon = 0.1\n", "kind"),
        ("[equation]\nkind = burgers\n", r"\[equation\] kind"),
        ("[run]\nstudy = shock\n[equation]\nalpha = 0.5\n"
         "[study]\nrefine_start = 64\nrefine_max = 128\n", r"\[equation\] alpha"),
        ("[run]\nstudy = shock\n[equation]\nepsilon = -1\n", r"\[equation\] epsilon"),
        ("[run]\nstudy = decay\n[equation]\nkind = modified_burgers\n", "kind"),
        ("[run]\nstudy = shock\n[equation]\nkind = modified_fkdv\nalpha = -0.5\n", "kind"),
        ("[run]\nstudy = longwave\n[study]\neps_list = 0.1\n", "eps_list"),
        ("[grid]\nn_points = inf\n", "n_points"),
        ("[run]\nstudy = 100%\n", "study"),
        ("[run]\nthreads = 2\n", r"unknown key \[run\] threads"),
        ("[run]\nstudy = decay\n[study]\nsample_dt = 0\n", r"\[study\] sample_dt"),
        ("[run]\nstudy = decay\n[study]\nsample_dt = -1\n", r"\[study\] sample_dt"),
        ("[run]\nstudy = longwave\n[study]\nt_eval = 0\n", r"\[study\] t_eval"),
        ("[run]\nstudy = longwave\n[study]\nt_eval = -1\n", r"\[study\] t_eval"),
        ("[run]\nstudy = longwave\n[study]\neps_list = 0.1, 0\n", r"\[study\] eps_list"),
        ("[run]\nstudy = longwave\n[study]\neps_list = 0.1, -0.05\n",
         r"\[study\] eps_list"),
        ("[run]\nstudy = longwave\n[study]\neps_list = 0.2, one\n", r"\[study\] eps_list"),
        ("[run]\nstudy = longwave\n[study]\neps_list =\n", r"\[study\] eps_list"),
        # 1e400 parses as inf
        ("[run]\nstudy = longwave\n[study]\neps_list = 0.2, 1e400\n",
         r"\[study\] eps_list"),
        ("[run]\nstudy = shock\n[study]\nblowup_factor = 1e400\n",
         r"\[study\] blowup_factor"),
        ("[run]\nstudy = shock\n[study]\nrefine_start = 1024.5\n", r"\[study\] refine_start"),
        ("[run]\nstudy = shock\n[study]\nrefine_max = one\n", r"\[study\] refine_max"),
        ("[run]\nseed = -1\n", r"\[run\] seed"),
        ("[initial]\nkind = bogus\n", r"\[initial\] kind"),
        ("[equation]\nkind = bogus\n", r"\[equation\] kind"),
        ("[study]\nrefine_start = 100\n", r"\[study\] refine_start"),
        ("[study]\nrefine_max = 4\n", r"\[study\] refine_max"),
        ("[run]\nstudy = shock\n[study]\nrefine_start = 1024\nrefine_max = 512\n",
         r"\[study\] refine_start/refine_max"),
        # a factor of 1 or less detected at t = 0 on every rung and ended in
        # a ZeroDivisionError
        ("[run]\nstudy = shock\n[study]\nblowup_factor = 0\n", r"\[study\] blowup_factor"),
        ("[run]\nstudy = shock\n[study]\nblowup_factor = 1\n", r"\[study\] blowup_factor"),
        ("[run]\nstudy = shock\n[study]\nblowup_factor = -2\n", r"\[study\] blowup_factor"),
        # mode 0 started the shock study from u0 = 0 and gave a vacuous PASS
        ("[run]\nstudy = shock\n[initial]\nsine_mode = 0\n", r"\[initial\] sine_mode"),
        ("[run]\nstudy = shock\n[initial]\nsine_mode = 1.5\n", r"\[initial\] sine_mode"),
    ])
    def test_study_rules_and_odd_values_refused(self, tmp_path, capsys, text, key):
        config = write(tmp_path, text)
        with pytest.raises(ConfigurationError, match=key):
            parse_config(config)
        assert cli_dispatch(["simulate", "--config", config,
                             "--out", str(tmp_path / "o")]) == 2
        assert re.search(key, capsys.readouterr().err)

    @pytest.mark.parametrize("path", ["direct", "replace", "ini", "cli"])
    @pytest.mark.parametrize("section,key,raw,match", [
        ("grid", "box_length", "nan", r"\[grid\] box_length"),
        ("solver", "t_end", "nan", r"\[solver\] t_end"),
        ("solver", "dt_max", "nan", r"\[solver\] dt_max"),
        ("initial", "amplitude", "nan", r"\[initial\] amplitude"),
        ("initial", "width", "nan", r"\[initial\] width"),
        ("initial", "center", "nan", r"\[initial\] center"),
        ("equation", "epsilon", "nan", r"\[equation\] epsilon"),
        ("study", "fit_t_min", "nan", r"\[study\] fit window"),
        ("study", "fit_t_max", "nan", r"\[study\] fit window"),
        ("study", "sample_dt", "nan", r"\[study\] sample_dt"),
        ("study", "t_eval", "nan", r"\[study\] t_eval"),
        ("study", "eps_list", "0.1, nan", r"\[study\] eps_list"),
        ("study", "blowup_factor", "nan", r"\[study\] blowup_factor"),
    ])
    def test_nan_refused_on_every_path(self, tmp_path, capsys, path, section, key,
                                       raw, match):
        # every range check is written so that NaN fails it
        assert_refused_on_path(tmp_path, capsys, path, section, key, raw, match)

    @pytest.mark.parametrize("path", ["direct", "replace", "ini", "cli"])
    @pytest.mark.parametrize("key,raw", [
        ("eps_list", "0.2, 0.2"),
        # 0.1 and 0.1000001 both name longwave_eps0.1.csv
        ("eps_list", "0.1, 0.05, 0.1000001"),
        ("eps_list", "0.2, 0.1, 0.2"),
    ])
    def test_repeated_list_entries_refused_on_every_path(self, tmp_path, capsys, path,
                                                         key, raw):
        # a repeated entry wrote and cited one series file twice and gave two
        # verdicts one name
        assert_refused_on_path(tmp_path, capsys, path, "study", key, raw,
                               rf"\[study\] {key}")

    @pytest.mark.parametrize("path", ["direct", "replace", "ini", "cli"])
    # on the 64-point grid: u0 = 0, a negative amplitude, round-off, an alias
    @pytest.mark.parametrize("raw", ["0", "-1", "32", "300"])
    def test_sine_mode_refused_on_every_path(self, tmp_path, capsys, path, raw):
        assert_refused_on_path(tmp_path, capsys, path, "initial", "sine_mode", raw,
                               r"\[initial\] sine_mode")

    @pytest.mark.parametrize("value", [1.5, 2.0, np.float64(2.0)])
    def test_non_integer_sine_mode_refused(self, value):
        # the INI parser refuses 1.5 itself; a direct construction must too,
        # and a float mode would give data that is not periodic on the box
        with pytest.raises(ConfigurationError, match=r"\[initial\] sine_mode"):
            default_config("shock", sine_mode=value)

    @pytest.mark.parametrize("path", ["direct", "replace", "ini", "cli"])
    def test_custom_initial_data_refused_on_every_path(self, tmp_path, capsys, path):
        # the initial kinds are the three shapes an INI file can name
        assert_refused_on_path(tmp_path, capsys, path, "initial", "kind", "custom",
                               r"\[initial\] kind: unknown kind 'custom'")

    @pytest.mark.parametrize("path", ["direct", "replace", "ini", "cli"])
    @pytest.mark.parametrize("sign", ["", "-"])
    @pytest.mark.parametrize("section,key,match", [
        ("grid", "box_length", r"\[grid\] box_length"),
        ("solver", "t_end", r"\[solver\] t_end"),
        ("solver", "dt_max", r"\[solver\] dt_max"),
        ("initial", "amplitude", r"\[initial\] amplitude"),
        ("initial", "width", r"\[initial\] width"),
        ("initial", "center", r"\[initial\] center"),
        ("equation", "epsilon", r"\[equation\] epsilon"),
        ("study", "fit_t_min", r"\[study\] fit window"),
        ("study", "fit_t_max", r"\[study\] fit window"),
        ("study", "sample_dt", r"\[study\] sample_dt"),
        ("study", "t_eval", r"\[study\] t_eval"),
        ("study", "eps_list", r"\[study\] eps_list"),
        ("study", "blowup_factor", r"\[study\] blowup_factor"),
    ])
    def test_infinity_refused_on_every_path(self, tmp_path, capsys, monkeypatch, path,
                                            sign, section, key, match):
        # and so that +-inf fails it; a study must never start on one
        # (t_end = inf would step forever)
        def no_simulation(*args, **kwargs):
            raise AssertionError("the simulation started")

        monkeypatch.setattr(experiments, "run_simulation", no_simulation)
        raw = ("0.1, " if key == "eps_list" else "") + sign + "inf"
        assert_refused_on_path(tmp_path, capsys, path, section, key, raw, match)

    @pytest.mark.parametrize("path", ["direct", "ini", "cli"])
    @pytest.mark.parametrize("study", STUDIES)
    @pytest.mark.parametrize("key,raw", [("alpha", "0.5"), ("epsilon", "-1")])
    def test_equation_parameter_refused_before_any_step(self, tmp_path, capsys,
                                                        monkeypatch, path, study, key, raw):
        # a set alpha or epsilon is checked whatever the study and its kind:
        # the shock study, which reads alpha only for its contrast run, once
        # refused it after the whole ladder
        def no_simulation(*args, **kwargs):
            raise AssertionError("the simulation started")

        monkeypatch.setattr(experiments, "run_simulation", no_simulation)
        match = rf"\[equation\] {key}"
        if path == "direct":
            with pytest.raises(ConfigurationError, match=match):
                default_config(study, **{key: float(raw)})
            return
        config = write(tmp_path, f"[run]\nstudy = {study}\n[equation]\n{key} = {raw}\n")
        if path == "ini":
            with pytest.raises(ConfigurationError, match=match):
                parse_config(config)
        else:
            out = tmp_path / "o"
            assert cli_dispatch([study, "--config", config, "--out", str(out)]) == 2
            assert re.search(match, capsys.readouterr().err)
            assert not out.exists() or not any(out.rglob("*"))

    @pytest.mark.parametrize("key,raw", [
        ("exponent_band", "-0.6, -0.4"), ("r2_min", "0.9"), ("slope_max", "0.9"),
        ("mono_from", "3"), ("final_ratio_max", "0.9"), ("ratio_band", "2.5, 6"),
        ("shape_factor_max", "0.9"), ("refine_tolerance", "0.9"),
        ("oracle_tolerance", "0.9"), ("contrast_epsilon0", "0.9"),
        ("contrast_horizon_factor", "0.9"),
        ("sobolev_order", "0"), ("z_weight", "0"), ("epsilon_bar", "1e300"),
    ])
    def test_study_gate_keys_refused(self, tmp_path, capsys, key, raw):
        # the pass gates are constants beside the studies' verdicts, and so
        # are the norms they measure and the smallness bound; a config file
        # cannot move them
        config = write(tmp_path, f"[study]\n{key} = {raw}\n")
        with pytest.raises(ConfigurationError, match=rf"unknown key \[study\] {key}$"):
            parse_config(config)
        assert cli_dispatch(["decay", "--config", config,
                             "--out", str(tmp_path / "o")]) == 2
        assert f"unknown key [study] {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("path", ["direct", "replace", "ini", "cli"])
    @pytest.mark.parametrize("study,section,key,raw", [
        ("longwave", "study", "j_list", "0"),
        ("shock", "study", "detect_dt", "0.2"),
        ("decay", "solver", "cfl_coefficient", "0.9"),
    ])
    def test_constant_keys_refused(self, tmp_path, capsys, monkeypatch, path, study,
                                   section, key, raw):
        # the long-wave Sobolev orders, the shock detection spacing and the
        # CFL coefficient are constants beside the code that reads them: no
        # field holds them and no key sets them
        def no_simulation(*args, **kwargs):
            raise AssertionError("the simulation started")

        monkeypatch.setattr(experiments, "run_simulation", no_simulation)
        if path in ("direct", "replace"):
            with pytest.raises(TypeError, match=rf"unexpected keyword argument '{key}'"):
                if path == "direct":
                    default_config(study, **{key: float(raw)})
                else:
                    replace(default_config(study), **{key: float(raw)})
            return
        config = write(tmp_path, f"[run]\nstudy = {study}\n[{section}]\n{key} = {raw}\n")
        if path == "ini":
            with pytest.raises(ConfigurationError,
                               match=rf"unknown key \[{section}\] {key}$"):
                parse_config(config)
        else:
            assert cli_dispatch([study, "--config", config,
                                 "--out", str(tmp_path / "o")]) == 2
            assert f"unknown key [{section}] {key}" in capsys.readouterr().err

    def test_detect_dt_that_passed_the_refinement_gate_refused(self, tmp_path, capsys,
                                                               monkeypatch):
        # the spacing at which the 1024/2048 ladder's t_detect moved
        # 4.4 -> 4.2 and passed the refinement gate that it fails at 0.01
        def no_simulation(*args, **kwargs):
            raise AssertionError("the simulation started")

        monkeypatch.setattr(experiments, "run_simulation", no_simulation)
        config = write(tmp_path, "[run]\nstudy = shock\n[study]\nrefine_start = 1024\n"
                                 "refine_max = 2048\ndetect_dt = 0.2\n")
        with pytest.raises(ConfigurationError, match=r"unknown key \[study\] detect_dt$"):
            parse_config(config)
        assert cli_dispatch(["shock", "--config", config, "--out", str(tmp_path / "o")]) == 2
        assert "unknown key [study] detect_dt" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["readme", "docstring"])
    def test_documented_example_is_the_default_decay_run(self, tmp_path, source):
        # the docstring's box_length once parsed one ulp above 256*pi
        if source == "readme":
            readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
            with open(readme, encoding="utf-8") as fh:
                text = fh.read().split("```ini\n", 1)[1].split("```", 1)[0]
        else:
            text = textwrap.dedent(config.__doc__.split("Example:\n", 1)[1])
        cfg, _ = parse_config(write(tmp_path, text))
        assert asdict(cfg) == asdict(default_config("decay", seed=1))

    def test_table_covers_every_field_once(self):
        fields = [attr for keys in _SECTIONS.values() for attr, _ in keys.values()]
        assert sorted(fields) == sorted(["out_dir", *vars(ExperimentConfig())])
        renamed = {(section, key): attr for section, keys in _SECTIONS.items()
                   for key, (attr, _) in keys.items() if attr != key}
        assert renamed == {("equation", "kind"): "equation",
                           ("initial", "kind"): "initial_kind"}

    @pytest.mark.parametrize("study", STUDIES)
    def test_every_key_parses_as_direct_construction(self, tmp_path, study):
        # one valid value for every key; the config file and the keyword
        # call must resolve to the same configuration
        values = {f: v for f, v in vars(default_config(study)).items()
                  if f != "study"}
        values.update(seed=3, alpha=-0.25, center=1.5, sine_mode=2,
                      amplitude=0.05, sample_dt=0.25, refine_start=256,
                      epsilon=values["epsilon"] or 0.2)
        lines = []
        for section, keys in _SECTIONS.items():
            lines.append(f"[{section}]")
            for key, (attr, _) in keys.items():
                value = {"study": study, "out_dir": " o "}.get(attr, values.get(attr))
                if isinstance(value, tuple):
                    value = ", ".join(map(repr, value))
                lines.append(f"{key} = {value!r}" if isinstance(value, float)
                             else f"{key} = {value}")
        cfg, out_dir = parse_config(write(tmp_path, "\n".join(lines) + "\n"))
        assert out_dir == "o"
        assert cfg == default_config(study, **values)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(st.text(max_size=40), st.lists(
        st.sampled_from(sorted(_SECTIONS) + ["DEFAULT", "other"]).flatmap(
            lambda section: st.tuples(st.just(section), st.lists(st.tuples(
                st.sampled_from(sorted(_SECTIONS.get(section, {"key"}))),
                st.one_of(st.text(max_size=12), st.floats().map(repr),
                          st.integers().map(str),
                          st.sampled_from(["decay", "shock", "longwave", "mkdv",
                                           "sine", "1, 2", "%(x)s", "50%"]))),
                max_size=4))),
        max_size=4).map(lambda sections: "\n".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items)
            for name, items in sections))))
    def test_fuzzed_ini_parses_or_is_refused(self, tmp_path, text):
        path = tmp_path / "fuzz.ini"
        path.write_bytes(text.encode("utf-8", "surrogatepass"))
        try:
            parse_config(str(path))
        except ConfigurationError:
            pass


class TestSeriesIO:
    def test_series_roundtrip(self, tmp_path):
        path = str(tmp_path / "s.csv")
        lab_io.write_series_columns(path, [1.0, 2.0, 3.0], {"linf": [0.5, 0.25, 1e-17]})
        with open(path) as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0] == "t,linf"
        assert len(lines) == 4
        t_back, cols = outputs.read_series(path)
        assert t_back == [1.0, 2.0, 3.0]
        assert cols["linf"] == [0.5, 0.25, 1e-17]

    def test_seventeen_significant_digits(self, tmp_path):
        path = str(tmp_path / "s.csv")
        lab_io.write_series_columns(path, [1.0], {"v": [1.0 / 3.0]})
        _, cols = outputs.read_series(path)
        assert cols["v"][0] == 1.0 / 3.0          # bit-exact roundtrip

    def test_report_roundtrip(self, tmp_path):
        report = ExperimentReport("decay", {"alpha": -0.5})
        report.measured["exponent_u"] = -0.47
        report.add_verdict("exp", True, -0.47, "[-0.6,-0.4]", "s.csv")
        path = str(tmp_path / "r.json")
        lab_io.write_report(report.to_dict(), path)
        back = outputs.read_report(path)
        assert back["study"] == "decay"
        assert back["verdicts"][0]["passed"] is True
        assert back["measured"]["exponent_u"] == -0.47
        assert back["all_passed"] is True

    def test_report_writes_every_nan_as_null(self, tmp_path):
        # python, numpy scalar and numpy array NaN alike: JSON has no NaN token
        path = str(tmp_path / "r.json")
        lab_io.write_report({"a": float("nan"), "b": np.float64("nan"),
                             "c": np.array([np.nan, 1.5]), "d": np.float32("nan"),
                             "e": np.array(np.nan), "f": np.array([[2, 3]]),
                             "g": np.bool_(True)}, path)
        with open(path) as fh:
            text = fh.read()
        assert "NaN" not in text
        assert json.loads(text) == {"a": None, "b": None, "c": [None, 1.5], "d": None,
                                    "e": None, "f": [[2, 3]], "g": True}

    def test_report_bytes_are_the_chunked_json_dump(self, tmp_path):
        # one encode and one write give the bytes json.dump wrote chunk by chunk
        payload = {"z": [np.float64(1.0) / 3.0, np.nan, np.int64(7)], "a": {"b": np.arange(3.0)},
                   "m": np.array([[np.nan, -0.0], [1e-300, np.inf]]), "s": "é \"q\"",
                   "t": (np.bool_(False), None, 2 ** 70)}
        path = tmp_path / "r.json"
        lab_io.write_report(payload, str(path))
        with open(tmp_path / "chunked.json", "w") as fh:
            json.dump(lab_io._to_jsonable(payload), fh, indent=2, sort_keys=True)
            fh.write("\n")
        assert path.read_bytes() == (tmp_path / "chunked.json").read_bytes()

    def test_spectrum_writer(self, tmp_path):
        # the file holds the whole spectrum in ascending order: the half
        # spectrum mirrored, the Nyquist mode on the first row
        g = make_grid(16, 2 * np.pi)
        c = np.zeros(9, complex)
        c[2] = 1.0 + 2.0j
        c[-1] = 0.5
        path = str(tmp_path / "w.csv")
        lab_io.write_spectrum(path, SpectralField(g, c))
        xi, cols = outputs.read_series(path)
        assert xi == list(np.arange(-8.0, 8.0))
        assert (cols["re"][8 + 2], cols["im"][8 + 2]) == (1.0, 2.0)
        assert (cols["re"][8 - 2], cols["im"][8 - 2]) == (1.0, -2.0)
        assert (cols["re"][0], cols["im"][0]) == (0.5, 0.0)
        assert sum(map(abs, cols["re"])) == 2.5

    def test_byte_identical_rewrite(self, tmp_path):
        values = list(np.random.default_rng(0).random(20))
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        for path in (p1, p2):
            lab_io.write_series_columns(path, [float(i + 1) for i in range(20)], {"v": values})
        assert open(p1, "rb").read() == open(p2, "rb").read()


class TestCliDispatch:
    def test_no_arguments_usage(self, capsys):
        assert cli_dispatch([]) == 2

    def test_module_entry_point_runs(self, tmp_path):
        # `python -m fkdvlab.cli` must dispatch, not import and exit 0
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run(
            [sys.executable, "-m", "fkdvlab.cli", "lemmas", "--only", "trilinear",
             "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=300, env=env)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "lemma_checks.json").is_file()

    def test_unknown_subcommand(self):
        assert cli_dispatch(["conquer"]) == 2

    def test_bad_config_is_status_2(self, tmp_path):
        path = write(tmp_path, "[grid]\nn_points = 999\n")
        assert cli_dispatch(["decay", "--config", path,
                             "--out", str(tmp_path / "o")]) == 2

    def test_too_few_fit_samples_is_status_2(self, tmp_path, capsys):
        path = write(tmp_path, "[run]\nstudy = decay\n[grid]\nn_points = 256\n"
                               "[solver]\nt_end = 2\n"
                               "[study]\nfit_t_min = 0.5\nfit_t_max = 2\n")
        assert cli_dispatch(["decay", "--config", path,
                             "--out", str(tmp_path / "o")]) == 2
        assert "need >= 5 points in [0.5, 2.0], got 2" in capsys.readouterr().err

    @pytest.mark.parametrize("study", ["decay", "norms", "longwave", "scattering"])
    def test_zero_initial_data_is_status_2(self, tmp_path, capsys, study):
        # zero data is valid (the shock study's no-compression case runs
        # on it), but leaves the power-law fits no positive value and the
        # error and Cauchy-difference ratios a zero denominator: the longwave
        # ratio raised ZeroDivisionError, the scattering ratios wrote Infinity
        t_end = 64 if study == "scattering" else 20     # the scattering study's least
        path = write(tmp_path, f"[run]\nstudy = {study}\n[grid]\nn_points = 64\n"
                               f"[initial]\namplitude = 0\n[solver]\nt_end = {t_end}\n"
                               "[study]\nfit_t_min = 2\nfit_t_max = 20\n")
        assert cli_dispatch([study, "--config", path, "--out", str(tmp_path / "o")]) == 2
        message = {"longwave": "the e0 ratio of eps = 0.1 to 0.05 needs a nonzero error",
                   "scattering": "the step and final ratios need positive Cauchy differences"}
        assert (f"insufficient data: {message.get(study, 'power-law fit of')}"
                in capsys.readouterr().err)
        # the refused study's series have their manifest beside them, and
        # it writes no report
        out = tmp_path / "o" / study
        assert any(out.glob("*.csv"))
        assert (out / f"{study}_manifest.json").is_file()
        assert not (out / f"{study}_report.json").exists()

    @pytest.mark.parametrize("kind", ["gaussian", "sech2"])
    @pytest.mark.parametrize("center, width", [("1e300", "0.7"), ("-1e300", "1e-10")])
    def test_huge_center_is_status_2_without_warning(self, tmp_path, capsys, kind,
                                                     center, width):
        # the profile underflows to exactly 0 on the box, with no overflow
        # warning on the way (which the error filter would raise)
        path = write(tmp_path, "[run]\nstudy = decay\n[grid]\nn_points = 64\n"
                               f"[initial]\nkind = {kind}\ncenter = {center}\n"
                               f"width = {width}\n[solver]\nt_end = 20\n"
                               "[study]\nfit_t_min = 2\nfit_t_max = 20\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli_dispatch(["decay", "--config", path,
                                 "--out", str(tmp_path / "o")]) == 2
        assert "insufficient data: power-law fit of" in capsys.readouterr().err

    def test_ini_out_dir_and_seed_honoured(self, tmp_path):
        # --out beats [run] out_dir, which beats "runs"; the INI's seed
        # reaches the lemma checks as --seed does
        ini = write(tmp_path, f"[run]\nseed = 7\nout_dir = {tmp_path / 'ini'}\n")
        only = ["lemmas", "--only", "interpolation"]
        assert cli_dispatch(only + ["--config", ini]) == 0
        assert cli_dispatch(only + ["--seed", "7", "--out", str(tmp_path / "flag")]) == 0
        assert cli_dispatch(only + ["--config", ini, "--seed", "0",
                                    "--out", str(tmp_path / "zero")]) == 0
        ini_run, flag_run, zero_run = (
            open(tmp_path / d / "lemma_checks.json").read()
            for d in ("ini", "flag", "zero"))
        assert ini_run == flag_run != zero_run

    @pytest.mark.parametrize("argv", [
        ["--seed", "7", "lemmas", "--only", "interpolation"],   # before the subcommand
        ["lemmas", "--only", "interpolation", "--seed", "-1"],
        ["longwave", "--threads", "2"],                         # no such option
    ])
    def test_refused_options_are_status_2(self, tmp_path, argv):
        assert cli_dispatch(argv + ["--out", str(tmp_path)]) == 2
        assert not os.listdir(tmp_path)

    def test_flags_beat_ini_run_keys(self, tmp_path, monkeypatch):
        # --seed beats [run] seed; `all` hands the file's seed to the
        # studies the file does not configure
        seen = []

        def fake_study(cfg, out_dir):
            seen.append(cfg)
            return ExperimentReport(cfg.study, {})

        monkeypatch.setattr(cli, "run_study", fake_study)
        monkeypatch.setattr(cli, "run_lemma_checks", lambda *args: (0, {}))
        ini = write(tmp_path, "[run]\nstudy = longwave\nseed = 3\n")
        assert cli_dispatch(["longwave", "--config", ini, "--seed", "4"]) == 0
        assert cli_dispatch(["longwave", "--config", ini]) == 0
        assert [cfg.seed for cfg in seen] == [4, 3]
        seen.clear()
        assert cli_dispatch(["all", "--config", ini]) == 0
        assert [(cfg.study, cfg.seed) for cfg in seen] == [(study, 3) for study in STUDIES]
        seen.clear()
        assert cli_dispatch(["all", "--config", ini, "--seed", "5"]) == 0
        assert [(cfg.study, cfg.seed) for cfg in seen] == [(study, 5) for study in STUDIES]

    def test_subcommand_options(self):
        # every subcommand takes --config, --out and --seed; lemmas adds --only
        sub = next(action for action in cli._build_parser()._actions
                   if action.dest == "command")
        assert sorted(sub.choices) == sorted(
            ["simulate", *STUDIES, "lemmas", "all"])
        for name, parser in sub.choices.items():
            options = {opt for action in parser._actions
                       for opt in action.option_strings} - {"-h", "--help"}
            assert options == {"--config", "--out", "--seed"} | (
                {"--only"} if name == "lemmas" else set()), name

    def test_lemmas_only_trilinear(self, tmp_path, capsys):
        status = cli_dispatch(["lemmas", "--only", "trilinear",
                               "--out", str(tmp_path)])
        assert status == 0
        out = capsys.readouterr().out
        assert "[PASS] trilinear_max_relative_difference" in out
        report = json.load(open(tmp_path / "lemma_checks.json"))
        assert [v["name"] for v in report["verdicts"]] == [
            "trilinear_max_relative_difference"]

    def test_lemmas_oscillatory_passes(self, tmp_path, capsys):
        status = cli_dispatch(["lemmas", "--only", "oscillatory",
                               "--out", str(tmp_path)])
        assert status == 0
        assert "lemmas: all verdicts pass" in capsys.readouterr().out

    def test_lemmas_oscillatory_gates_cutoff_rate(self, tmp_path, capsys,
                                                  monkeypatch):
        # a closed-form match alone must not pass a too-slow cutoff decay
        from fkdvlab import lemma_checks
        slow = {"gaussian": [{"N": 1.0, "quadrature": 2.8, "closed_form": 2.8,
                              "abs_error": 0.0}],
                "cutoff": [], "cutoff_rate": -0.4,
                "cutoff_check": {"N": 8.0, "error": 0.0,
                                 "fit_prediction": 1e-3}}
        monkeypatch.setattr(lemma_checks, "check_oscillatory_gaussian", lambda: slow)
        status = cli_dispatch(["lemmas", "--only", "oscillatory",
                               "--out", str(tmp_path)])
        assert status == 1
        out = capsys.readouterr().out
        assert "[FAIL] oscillatory_cutoff_rate: value=-0.4 threshold <= -0.5" in out
        assert "[PASS] oscillatory_gaussian_closed_form_error" in out
        assert "[PASS] oscillatory_cutoff_error_at_N8" in out

    def test_shock_subcommand_with_config(self, tmp_path, capsys):
        path = write(tmp_path, "\n".join([
            "[run]", "study = shock",
            "[study]", "blowup_factor = 20", "refine_start = 512",
            "refine_max = 2048", ""]))
        status = cli_dispatch(["shock", "--config", path,
                               "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert "shock" in out
        report = json.load(open(tmp_path / "o" / "shock" / "shock_report.json"))
        assert status == (0 if report["all_passed"] else 1)
        for verdict in report["verdicts"]:
            assert os.path.exists(tmp_path / "o" / "shock" / verdict["series"])

    def test_simulate_writes_series_and_manifest(self, tmp_path):
        path = write(tmp_path, "\n".join([
            "[run]", "study = decay",
            "[grid]", "n_points = 1024", "box_length = 100.53096491487338",
            "[solver]", "t_end = 5", ""]))
        status = cli_dispatch(["simulate", "--config", path,
                               "--out", str(tmp_path / "o")])
        assert status == 0
        assert os.path.exists(tmp_path / "o" / "simulate_series.csv")
        manifest = json.load(open(tmp_path / "o" / "simulate_manifest.json"))
        assert manifest["tool_version"]
        assert manifest["finished_at"] > manifest["started_at"]
        assert manifest["halt"]["kind"] == "completed"
        assert "epsilon0" in manifest["smallness"]
