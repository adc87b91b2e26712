"""Golden outputs: small-grid runs of the five studies and of every lemma
check, pinned across versions.

Each study golden holds the emitted report's verdicts (name, pass/fail,
value, threshold, cited series), its measured quantities, the manifest's
halt and the first, middle and last rows of every series CSV.  The lemma
golden holds each check's exit status and its raw `lemma_checks.json`
results.  Pass/fail, names, halts and every other non-numeric value must
match exactly; numbers to RTOL relative, except in the goldens named in
EXACT, which hold bit for bit.  Keys the golden lacks are ignored, so a
report may gain quantities without touching the goldens.

The goldens record this platform's floating-point results (numpy build and
CPU), some of them round-off-level quantities.  Regenerate them, and say
why, only when an output change is intended:

    PYTHONPATH=src python tests/test_goldens.py
"""

import contextlib
import csv
import io
import json
import math
import os

import numpy as np
import pytest

from fkdvlab.cli import run_lemma_checks
from fkdvlab.experiments import STUDIES, default_config, run_study
from fkdvlab.lemma_checks import LEMMA_CHECKS

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens")

RTOL = 1e-12

#: Small-grid overrides of each study's defaults; together they run in a
#: few seconds.  They are not tuned to pass: a golden pins failing verdicts
#: as firmly as passing ones.
STUDY_CASES = {
    "decay": dict(n_points=2 ** 10, box_length=64.0 * np.pi, t_end=30.0,
                  sample_dt=0.5, fit_t_max=30.0),
    "scattering": dict(n_points=2 ** 9, box_length=64.0 * np.pi, t_end=64.0),
    "longwave": dict(n_points=2 ** 8, eps_list=(0.2, 0.1), t_eval=2.0),
    "shock": dict(refine_start=2 ** 6, refine_max=2 ** 8, blowup_factor=20.0),
    "norms": dict(n_points=2 ** 9, box_length=32.0 * np.pi, t_end=20.0,
                  fit_t_min=2.0, fit_t_max=20.0),
}


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _series_sample(path):
    """Header, row count and the first, middle and last rows of a CSV."""
    with open(path) as fh:
        header, *rows = list(csv.reader(fh))
    picks = sorted({0, len(rows) // 2, len(rows) - 1})
    return {"header": header, "rows": len(rows),
            "sample": {str(i): [float(v) for v in rows[i]] for i in picks}}


def capture_study(study, out_dir):
    run_study(default_config(study, **STUDY_CASES[study]), out_dir)
    report = _read_json(os.path.join(out_dir, f"{study}_report.json"))
    manifest = _read_json(os.path.join(out_dir, f"{study}_manifest.json"))
    return {"verdicts": report["verdicts"], "measured": report["measured"],
            "all_passed": report["all_passed"],
            "series_paths": report["series_paths"], "halt": manifest["halt"],
            "series": {name: _series_sample(os.path.join(out_dir, name))
                       for name in report["series_paths"]}}


def capture_lemmas(out_dir):
    status, results = {}, {}
    for name in LEMMA_CHECKS:
        check_dir = os.path.join(out_dir, name)
        with contextlib.redirect_stdout(io.StringIO()):
            status[name] = run_lemma_checks(only=name, out_dir=check_dir, seed=0)[0]
        results[name] = _read_json(os.path.join(check_dir, "lemma_checks.json"))[name]
    return {"status": status, "results": results}


def mismatches(got, want, path="", rtol=RTOL):
    """Every place where `got` departs from the golden `want`."""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{path}: {got!r} is not a mapping"]
        return [m for key in want
                for m in ([f"{path}/{key}: missing"] if key not in got
                          else mismatches(got[key], want[key], f"{path}/{key}", rtol))]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{path}[{i}]", rtol)]
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        same = (math.isnan(got) and math.isnan(want)) or math.isclose(
            got, want, rel_tol=rtol, abs_tol=0.0)
        return [] if same else [f"{path}: {got!r} != {want!r} (rtol {rtol:g})"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


def _golden(name):
    return _read_json(os.path.join(GOLDEN_DIR, f"{name}.json"))


#: Goldens that hold bit for bit.  The shock study's equation has no
#: dispersion, so its step exponentials are exactly 1 whatever dt is and a
#: change in how they are cached must not move a single bit.  The lemma
#: checks draw and sum in a fixed order, so evaluating their cases one at a
#: time or as the rows of one array must not move one either.
EXACT = {"shock", "lemma_checks"}


@pytest.mark.parametrize("study", STUDIES)
def test_study_matches_golden(study, tmp_path):
    rtol = 0.0 if study in EXACT else RTOL
    assert mismatches(capture_study(study, str(tmp_path)), _golden(study),
                      rtol=rtol) == []


def test_lemma_checks_match_golden(tmp_path):
    rtol = 0.0 if "lemma_checks" in EXACT else RTOL
    assert mismatches(capture_lemmas(str(tmp_path)), _golden("lemma_checks"),
                      rtol=rtol) == []


@pytest.mark.parametrize("got,want,bad", [
    ({"a": 1.0, "extra": 2}, {"a": 1.0 + 1e-13}, False),
    ({"a": 1.0}, {"a": 1.0 + 1e-11}, True),
    ({"passed": 1}, {"passed": True}, True),
    ({"t": float("nan")}, {"t": float("nan")}, False),
    ({"rows": [1.0]}, {"rows": [1.0, 2.0]}, True),
    ({}, {"halt": None}, True),
])
def test_comparator(got, want, bad):
    assert bool(mismatches(got, want)) is bad


if __name__ == "__main__":
    import tempfile

    os.makedirs(GOLDEN_DIR, exist_ok=True)
    captured = {"lemma_checks": capture_lemmas}
    captured.update({study: (lambda d, s=study: capture_study(s, d))
                     for study in STUDIES})
    for name, capture in captured.items():
        with tempfile.TemporaryDirectory() as scratch:
            value = capture(scratch)
        with open(os.path.join(GOLDEN_DIR, f"{name}.json"), "w") as fh:
            json.dump(value, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {name}.json")
