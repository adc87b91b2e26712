"""Configuration files: INI syntax, strict key validation, full defaults.

A config names one study and overrides any subset of its defaults.
Unknown sections or keys are rejected with the offending key path, as are
out-of-range values.  Example:

    [run]
    study = decay
    seed = 1

    [equation]
    kind = modified_fkdv
    alpha = -0.5

    [grid]
    n_points = 8192
    box_length = 804.2477193189871

    [initial]
    kind = gaussian
    amplitude = 0.1
    width = 0.7

    [solver]
    dt_max = 0.1
    t_end = 100

    [study]
    fit_t_min = 5
    fit_t_max = 100
"""

from __future__ import annotations

import configparser
import os
from dataclasses import replace

import numpy as np

from .equations import EQUATION_KINDS
from .errors import ConfigurationError
from .experiments import ExperimentConfig, default_config, validate_config

_FLOAT_KEYS_STUDY = {
    "fit_t_min", "fit_t_max", "r2_min", "slope_max", "sample_dt",
    "final_ratio_max", "t_eval", "shape_factor_max", "blowup_factor",
    "detect_dt", "refine_tolerance", "oracle_tolerance",
    "contrast_epsilon0", "contrast_horizon_factor", "sobolev_order",
    "z_weight", "epsilon_bar",
}
_INT_KEYS_STUDY = {"mono_from", "refine_start", "refine_max"}
_LIST_KEYS_STUDY = {"eps_list", "j_list", "exponent_band", "ratio_band"}

_SECTIONS = {
    "run": {"study", "seed", "out_dir", "threads"},
    "equation": {"kind", "alpha", "epsilon"},
    "grid": {"n_points", "box_length"},
    "initial": {"kind", "amplitude", "width", "center", "sine_mode"},
    "solver": {"dt_max", "cfl_coefficient", "t_end"},
    "study": _FLOAT_KEYS_STUDY | _INT_KEYS_STUDY | _LIST_KEYS_STUDY,
}


def _parse_number(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigurationError(f"[{section}] {key}: not a number: {raw!r}") from None


def _parse_int(section: str, key: str, raw: str) -> int:
    value = _parse_number(section, key, raw)
    if not value.is_integer():
        raise ConfigurationError(f"[{section}] {key}: expected an integer, got {raw!r}")
    return int(value)


def _parse_list(section: str, key: str, raw: str) -> tuple:
    try:
        return tuple(float(tok) for tok in raw.replace(";", ",").split(",") if tok.strip())
    except ValueError:
        raise ConfigurationError(f"[{section}] {key}: not a number list: {raw!r}") from None


def parse_config(path: str) -> tuple[ExperimentConfig, dict]:
    """Parse and validate a config file into a fully-resolved configuration.

    Returns (config, run_options) where run_options carries the [run]
    section extras (seed and out_dir already folded into the config).
    """
    if not os.path.exists(path):
        raise ConfigurationError(f"config file not found: {path}")
    # no interpolation: a '%' in a value is text, not a reference
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"malformed config {path}: {exc}") from None

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigurationError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SECTIONS[section]:
                raise ConfigurationError(f"unknown key [{section}] {key}")

    cfg = default_config(parser.get("run", "study", fallback="decay").strip().lower())
    run_options = {"threads": 1, "out_dir": None}
    if parser.has_option("run", "seed"):
        cfg = replace(cfg, seed=_parse_int("run", "seed", parser.get("run", "seed")))
    if parser.has_option("run", "threads"):
        run_options["threads"] = _parse_int("run", "threads", parser.get("run", "threads"))
    if parser.has_option("run", "out_dir"):
        run_options["out_dir"] = parser.get("run", "out_dir").strip()

    if parser.has_section("equation"):
        sec = parser["equation"]
        if "kind" in sec:
            kind = sec["kind"].strip().lower()
            if kind not in EQUATION_KINDS:
                raise ConfigurationError(
                    f"[equation] kind: unknown kind {kind!r}; "
                    f"expected one of {EQUATION_KINDS}")
            cfg = replace(cfg, equation=kind)
        if "alpha" in sec:
            cfg = replace(cfg, alpha=_parse_number("equation", "alpha", sec["alpha"]))
        if "epsilon" in sec:
            cfg = replace(cfg, epsilon=_parse_number("equation", "epsilon", sec["epsilon"]))

    if parser.has_section("grid"):
        sec = parser["grid"]
        if "n_points" in sec:
            cfg = replace(cfg, n_points=_parse_int("grid", "n_points", sec["n_points"]))
        if "box_length" in sec:
            cfg = replace(cfg, box_length=_parse_number("grid", "box_length",
                                                        sec["box_length"]))

    if parser.has_section("initial"):
        sec = parser["initial"]
        if "kind" in sec:
            kind = sec["kind"].strip().lower()
            if kind not in ("gaussian", "sech2", "sine", "custom"):
                raise ConfigurationError(f"[initial] kind: unknown kind {kind!r}")
            cfg = replace(cfg, initial_kind=kind)
        for key, attr in (("amplitude", "amplitude"), ("width", "width"),
                          ("center", "center")):
            if key in sec:
                cfg = replace(cfg, **{attr: _parse_number("initial", key, sec[key])})
        if "sine_mode" in sec:
            cfg = replace(cfg, sine_mode=_parse_int("initial", "sine_mode",
                                                    sec["sine_mode"]))

    if parser.has_section("solver"):
        sec = parser["solver"]
        for key in ("dt_max", "cfl_coefficient", "t_end"):
            if key in sec:
                cfg = replace(cfg, **{key: _parse_number("solver", key, sec[key])})

    if parser.has_section("study"):
        sec = parser["study"]
        for key in sec:
            raw = sec[key]
            if key in _INT_KEYS_STUDY:
                cfg = replace(cfg, **{key: _parse_int("study", key, raw)})
            elif key in _LIST_KEYS_STUDY:
                cfg = replace(cfg, **{key: _parse_list("study", key, raw)})
            else:
                cfg = replace(cfg, **{key: _parse_number("study", key, raw)})

    validate_config(cfg)
    return cfg, run_options
