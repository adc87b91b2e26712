import json
import os

import numpy as np
import pytest

from fkdvlab import io as lab_io
from fkdvlab.cli import cli_dispatch
from fkdvlab.config import parse_config
from fkdvlab.diagnostics import DecaySeries
from fkdvlab.errors import ConfigurationError
from fkdvlab.experiments import ExperimentReport
from fkdvlab.spectral import SpectralField, make_grid


def write(tmp_path, text, name="c.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_minimal_config_resolves_defaults(self, tmp_path):
        path = write(tmp_path, "[run]\nstudy = decay\n\n[equation]\nalpha = -0.5\n")
        cfg, options = parse_config(path)
        assert cfg.study == "decay"
        assert cfg.alpha == -0.5
        assert cfg.n_points == 2 ** 13            # default filled
        assert cfg.width == 0.7                   # study default filled
        assert options["threads"] == 1

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
                               "eps_list = 0.2, 0.1\nj_list = 0, 1\n")
        cfg, _ = parse_config(path)
        assert cfg.eps_list == (0.2, 0.1)
        assert cfg.j_list == (0.0, 1.0)

    def test_window_ordering_validated(self, tmp_path):
        path = write(tmp_path, "[study]\nfit_t_min = 50\nfit_t_max = 10\n")
        with pytest.raises(ConfigurationError, match="fit window"):
            parse_config(path)


class TestSeriesIO:
    def test_series_roundtrip(self, tmp_path):
        series = DecaySeries("linf")
        for t, v in ((1.0, 0.5), (2.0, 0.25), (3.0, 1e-17)):
            series.add(t, v)
        path = str(tmp_path / "s.csv")
        lab_io.write_series(series, path)
        with open(path) as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0] == "t,linf"
        assert len(lines) == 4
        t_back, cols = lab_io.read_series(path)
        assert t_back == [1.0, 2.0, 3.0]
        assert cols["linf"] == [0.5, 0.25, 1e-17]

    def test_seventeen_significant_digits(self, tmp_path):
        series = DecaySeries("v")
        series.add(1.0, 1.0 / 3.0)
        path = str(tmp_path / "s.csv")
        lab_io.write_series(series, path)
        _, cols = lab_io.read_series(path)
        assert cols["v"][0] == 1.0 / 3.0          # bit-exact roundtrip

    def test_report_roundtrip(self, tmp_path):
        report = ExperimentReport("decay", {"alpha": -0.5})
        report.measured["exponent_u"] = -0.47
        report.add_verdict("exp", True, -0.47, "[-0.6,-0.4]", "s.csv")
        path = str(tmp_path / "r.json")
        lab_io.write_report(report, path)
        back = lab_io.read_report(path)
        assert back["study"] == "decay"
        assert back["verdicts"][0]["passed"] is True
        assert back["measured"]["exponent_u"] == -0.47
        assert back["all_passed"] is True

    def test_spectrum_writer(self, tmp_path):
        g = make_grid(16, 2 * np.pi)
        c = np.zeros(16, complex)
        c[8 + 2] = 1.0 + 2.0j
        path = str(tmp_path / "w.csv")
        lab_io.write_spectrum(path, SpectralField(g, c))
        xi, cols = lab_io.read_series(path)
        assert xi == list(g.wavenumbers)
        assert cols["re"][8 + 2] == 1.0
        assert cols["im"][8 + 2] == 2.0

    def test_byte_identical_rewrite(self, tmp_path):
        series = DecaySeries("v")
        rng = np.random.default_rng(0)
        for i, val in enumerate(rng.random(20)):
            series.add(float(i + 1), float(val))
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        lab_io.write_series(series, p1)
        lab_io.write_series(series, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()


class TestCliDispatch:
    def test_no_arguments_usage(self, capsys):
        assert cli_dispatch([]) == 2

    def test_unknown_subcommand(self):
        assert cli_dispatch(["conquer"]) == 2

    def test_bad_config_is_status_2(self, tmp_path):
        path = write(tmp_path, "[grid]\nn_points = 999\n")
        assert cli_dispatch(["decay", "--config", path,
                             "--out", str(tmp_path / "o")]) == 2

    def test_lemmas_only_trilinear(self, tmp_path, capsys):
        status = cli_dispatch(["lemmas", "--only", "trilinear",
                               "--out", str(tmp_path)])
        assert status == 0
        out = capsys.readouterr().out
        assert "trilinear identity" in out
        assert os.path.exists(tmp_path / "lemma_checks.json")

    def test_lemmas_oscillatory_passes(self, tmp_path, capsys):
        status = cli_dispatch(["lemmas", "--only", "oscillatory",
                               "--out", str(tmp_path)])
        assert status == 0
        assert "[PASS] oscillatory gaussian" in capsys.readouterr().out

    def test_lemmas_oscillatory_gates_cutoff_rate(self, tmp_path, capsys,
                                                  monkeypatch):
        # a closed-form match alone must not pass a too-slow cutoff decay
        from fkdvlab import cli
        slow = {"gaussian": [{"N": 1.0, "quadrature": 2.8, "closed_form": 2.8,
                              "abs_error": 0.0}],
                "cutoff": [], "cutoff_rate": -0.4,
                "cutoff_check": {"N": 8.0, "error": 0.0,
                                 "fit_prediction": 1e-3}}
        monkeypatch.setattr(cli, "check_oscillatory_gaussian", lambda: slow)
        status = cli_dispatch(["lemmas", "--only", "oscillatory",
                               "--out", str(tmp_path)])
        assert status == 1
        out = capsys.readouterr().out
        assert "[FAIL] oscillatory gaussian" in out
        assert "cutoff rate -0.4000 (<= -0.5)" in out

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
        assert manifest["halt"]["kind"] == "completed"
        assert "epsilon0" in manifest["smallness"]
