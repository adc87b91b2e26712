"""Persistent outputs: CSV series, JSON reports and run manifests.

Series are CSV with a header row, the abscissa in column one and 17
significant digits throughout, so reruns are byte-identical and downstream
fits reproduce exactly.  Reports and manifests are JSON with sorted keys.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from . import __version__
from .spectral import CUTOFFS, SpectralField, whole_spectrum, whole_wavenumbers


def _fmt(x) -> str:
    if x is None or (isinstance(x, float) and np.isnan(x)):
        return "nan"
    return format(float(x), ".17g")


def write_series_columns(path: str, abscissa, columns: dict,
                         time_label: str = "t") -> None:
    """CSV with named value columns against a shared abscissa."""
    names = list(columns)
    rows = len(abscissa)
    for name in names:
        if len(columns[name]) != rows:
            raise ValueError(f"column {name!r} has {len(columns[name])} rows, "
                             f"expected {rows}")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join([time_label] + names) + "\n")
        for i in range(rows):
            fh.write(",".join([_fmt(abscissa[i])]
                              + [_fmt(columns[name][i]) for name in names]) + "\n")


def write_spectrum(path: str, fld: SpectralField) -> None:
    """Spectrum CSV: wavenumber, real and imaginary coefficient parts, n
    rows in the ascending order of ``spectral.whole_spectrum``, the
    Nyquist mode on the first row."""
    coeffs = whole_spectrum(fld.coeffs)
    # + 0.0 turns the -0 that conjugating a zero leaves into 0
    write_series_columns(path, whole_wavenumbers(fld.grid),
                         {"re": coeffs.real, "im": coeffs.imag + 0.0}, time_label="xi")


def _to_jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _to_jsonable(obj.tolist())
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and np.isnan(obj):
        return None   # JSON has no NaN token
    return obj


def write_report(payload: dict, path: str) -> None:
    """JSON of a payload of dicts, lists, numbers and numpy values, NaN
    written as null."""
    # encoded whole and written once: json.dump writes chunk by chunk
    text = json.dumps(_to_jsonable(payload), indent=2, sort_keys=True) + "\n"
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def write_manifest(path: str, config: dict, smallness: dict, halt,
                   started_at: float) -> None:
    """Everything needed to reproduce one run bit for bit, plus provenance:
    the resolved config, the measured size of the initial data, the halt
    (None for a study that reports none) and the wall-clock start and end."""
    write_report({"tool_version": __version__, "config": config,
                  "smallness": smallness,
                  "halt": None if halt is None else {"kind": halt.kind, "t": halt.t},
                  "started_at": started_at, "finished_at": time.time(),
                  "cutoff_profile": CUTOFFS.description}, path)
