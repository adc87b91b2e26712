"""Configuration files: INI syntax, strict key validation, full defaults.

A config names one study and overrides any subset of its defaults.
Unknown sections or keys are rejected with the offending key path, as are
out-of-range values.  The studies' pass gates, the smallness norms and
bound, and the Z-norm weight are constants in ``experiments`` and
``spectral``, not keys.  Example:

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

from .errors import ConfigurationError
from .experiments import ExperimentConfig, default_config


def _number(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigurationError(f"[{section}] {key}: not a number: {raw!r}") from None


def _integer(section: str, key: str, raw: str) -> int:
    value = _number(section, key, raw)
    if not value.is_integer():
        raise ConfigurationError(f"[{section}] {key}: expected an integer, got {raw!r}")
    return int(value)


def _numbers(section: str, key: str, raw: str) -> tuple:
    try:
        return tuple(float(tok) for tok in raw.replace(";", ",").split(",") if tok.strip())
    except ValueError:
        raise ConfigurationError(f"[{section}] {key}: not a number list: {raw!r}") from None


def _integers(section: str, key: str, raw: str) -> tuple:
    values = _numbers(section, key, raw)
    if not all(v.is_integer() for v in values):
        raise ConfigurationError(f"[{section}] {key}: expected integers, got {raw!r}")
    return tuple(int(v) for v in values)


def _name(section: str, key: str, raw: str) -> str:
    return raw.strip().lower()


def _path(section: str, key: str, raw: str) -> str:
    return raw.strip()


def _same(parse, *keys: str) -> dict:
    return {key: (key, parse) for key in keys}


#: Every INI key: {section: {key: (ExperimentConfig field, parser)}}.  The
#: [run] out_dir key is the one that is not a field; parse_config returns it
#: beside the config.
_SECTIONS = {
    "run": {"study": ("study", _name), "seed": ("seed", _integer),
            "out_dir": ("out_dir", _path)},
    "equation": {"kind": ("equation", _name), **_same(_number, "alpha", "epsilon")},
    "grid": {**_same(_integer, "n_points"), **_same(_number, "box_length")},
    "initial": {"kind": ("initial_kind", _name), **_same(_integer, "sine_mode"),
                **_same(_number, "amplitude", "width", "center")},
    "solver": _same(_number, "dt_max", "cfl_coefficient", "t_end"),
    "study": {**_same(_number, "fit_t_min", "fit_t_max", "sample_dt", "t_eval",
                      "blowup_factor", "detect_dt"),
              **_same(_integer, "refine_start", "refine_max"),
              **_same(_numbers, "eps_list"), **_same(_integers, "j_list")},
}


def parse_config(path: str) -> tuple[ExperimentConfig, str | None]:
    """Parse and validate a config file into a fully-resolved configuration.

    Returns (config, out_dir); out_dir is None when [run] sets none.
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

    values = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigurationError(f"unknown section [{section}]")
        for key, raw in parser[section].items():
            if key not in _SECTIONS[section]:
                raise ConfigurationError(f"unknown key [{section}] {key}")
            attr, parse = _SECTIONS[section][key]
            values[attr] = parse(section, key, raw)
    out_dir = values.pop("out_dir", None)
    return default_config(values.pop("study", "decay"), **values), out_dir
