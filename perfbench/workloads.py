"""The three benchmark workloads: their inputs, one call each, and the check
of each call's output against references captured at commit a9787a4.

Study inputs are the study defaults (`fkdvlab.experiments.STUDY_DEFAULTS`)
because the verdict thresholds are calibrated for exactly those defaults.
The workload seed reaches the program only as `[run] seed` in the generated
INI file and as `seed=` to `run_lemma_checks`; the decay and shock studies
do not draw random numbers, and the lemma checks use it for the randomized
interpolation and pseudo-product trials.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil

#: Relative tolerance for smooth quantities of the solver runs.  Round-off
#: changes such as a real-to-complex transform or a reordered step kernel
#: move these by about 1e-12; a wrong answer moves them by far more.
SOLVER_RTOL = 1e-6

#: Relative tolerance for deterministic lemma quantities that do not pass
#: through a long time integration.
LEMMA_RTOL = 1e-6

#: The shock detector reports the first snapshot (spaced `detect_dt` = 0.01
#: apart) whose gradient crosses the blow-up factor, so round-off may move a
#: crossing by one snapshot and no more.
T_DETECT_ATOL = 0.0101

STUDY_OF = {"decay-n8192": "decay", "shock-ladder": "shock"}
WORKLOADS = ("decay-n8192", "shock-ladder", "lemmas")


#: INI additions for the untimed warm-up call: the same code paths on tiny
#: grids, so first-use costs are paid before the timed calls.  `lemmas`
#: warms up with its cheapest check alone (`only="trilinear"`).
WARMUP = {"decay-n8192": ["[grid]", "n_points = 256"],
          "shock-ladder": ["[study]", "refine_start = 64", "refine_max = 128"],
          "lemmas": []}


def write_ini(workload: str, seed: int, path: str, warmup: bool = False) -> None:
    """The workload's INI: the study name and the seed, nothing else, so the
    study runs with its defaults.  `lemmas` names no study; its INI carries
    only the seed (parse_config then resolves the default study)."""
    lines = ["[run]"]
    if workload in STUDY_OF:
        lines.append(f"study = {STUDY_OF[workload]}")
    lines.append(f"seed = {seed}")
    if warmup:
        lines += WARMUP[workload]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def call(workload: str, ini: str, seed: int, out_dir: str,
         only: str | None = None) -> int:
    """One workload call through the entry points the CLI uses, from the INI
    to the report, manifest and CSVs on disk.  Returns the exit status; the
    CLI's own printing goes to a buffer.  `only` restricts `lemmas` to one
    check (used by the warm-up)."""
    from fkdvlab import cli

    shutil.rmtree(out_dir, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        if workload == "lemmas":
            return cli.run_lemma_checks(only=only, out_dir=out_dir, seed=seed)[0]
        return cli.cli_dispatch([STUDY_OF[workload], "--config", ini,
                                 "--out", out_dir])


def outputs(workload: str, out_dir: str) -> tuple[dict, list[str]]:
    """The report a call left on disk, and any expected file that is missing."""
    if workload == "lemmas":
        with open(os.path.join(out_dir, "lemma_checks.json")) as fh:
            return json.load(fh), []
    study = STUDY_OF[workload]
    study_dir = os.path.join(out_dir, study)
    with open(os.path.join(study_dir, f"{study}_report.json")) as fh:
        report = json.load(fh)
    expected = [f"{study}_manifest.json"] + report["series_paths"]
    return report, [f"missing {name}" for name in expected
                    if not os.path.isfile(os.path.join(study_dir, name))]


def headline(workload: str, result: dict) -> dict:
    """The seed-independent numbers compared against the references."""
    if workload == "decay-n8192":
        m = result["measured"]
        return {k: m[k] for k in ("exponent_u", "exponent_ux", "r2_u", "r2_ux")}
    if workload == "shock-ladder":
        m = result["measured"]
        return {"n_points": [row["n_points"] for row in m["refinement_ladder"]],
                "t_detect": [row["t_detect"] for row in m["refinement_ladder"]],
                "relative_oracle_error": m["relative_oracle_error"],
                "contrast_gradient_growth": m["contrast"]["gradient_growth"]}
    return {
        "dispersive_max_ratio": {
            f"{a}.{side}": sub[side]["ratio_stats"]["max"]
            for a, sub in result["dispersive"].items()
            for side in ("freq_side", "phys_side")},
        "phase_expansion_halving_ratios": {
            a: sub["halving_ratios"]
            for a, sub in result["phase_expansion"].items()},
        "trilinear_max_abs_target": [r["max_abs_target"]
                                     for r in result["trilinear"]],
        "oscillatory_quadrature": [g["quadrature"]
                                   for g in result["oscillatory"]["gaussian"]],
        "oscillatory_cutoff_rate": result["oscillatory"]["cutoff_rate"],
        "interpolation_sharp_constants": result["interpolation"]["sharp_constants"],
        "pseudo_product_kernel_l1": result["pseudo_product"]["kernel_l1"],
    }


def _close(got, want, rtol: float, atol: float = 0.0) -> bool:
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_close(got[k], want[k], rtol, atol) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_close(g, w, rtol, atol) for g, w in zip(got, want)))
    if want is None or got is None:
        return got is want
    return math.isclose(got, want, rel_tol=rtol, abs_tol=atol)


def check(workload: str, status: int, result: dict, reference: dict) -> list[str]:
    """Every reason this call's output is wrong; empty when it is right."""
    problems = [] if status == 0 else [f"exit status {status}"]
    got = headline(workload, result)
    if workload == "decay-n8192":
        if result["measured"]["halt"]["kind"] != "completed":
            problems.append(f"halt {result['measured']['halt']}")
        for key in got:
            if not _close(got[key], reference[key], SOLVER_RTOL):
                problems.append(f"{key} {got[key]!r} != {reference[key]!r}")
    elif workload == "shock-ladder":
        halts = {row["halt"] for row in result["measured"]["refinement_ladder"]}
        if halts != {"completed"}:
            problems.append(f"ladder halts {sorted(halts)}")
        # the oracle error is |t_detect - t*| / t* with t* = 4
        tols = {"n_points": (0.0, 0.0), "t_detect": (0.0, T_DETECT_ATOL),
                "relative_oracle_error": (0.0, T_DETECT_ATOL / 4.0),
                "contrast_gradient_growth": (SOLVER_RTOL, 0.0)}
        for key, (rtol, atol) in tols.items():
            if not _close(got[key], reference[key], rtol, atol):
                problems.append(f"{key} {got[key]!r} != {reference[key]!r}")
    else:
        for key in got:
            if not _close(got[key], reference[key], LEMMA_RTOL):
                problems.append(f"{key} {got[key]!r} != {reference[key]!r}")
        problems += _lemma_bounds(result)
    if workload in STUDY_OF and not all(v["passed"] for v in result["verdicts"]):
        problems.append("verdict failures: " + ", ".join(
            v["name"] for v in result["verdicts"] if not v["passed"]))
    return problems


def _lemma_bounds(result: dict) -> list[str]:
    """Round-off-level and seed-dependent quantities, held to the bounds the
    CLI states rather than to stored values."""
    out = []
    worst = max(r["relative_sup_difference"] for r in result["trilinear"])
    if worst > 1e-10:
        out.append(f"trilinear difference {worst:.3e} > 1e-10")
    err = max(g["abs_error"] for g in result["oscillatory"]["gaussian"])
    if err > 1e-8:
        out.append(f"oscillatory gaussian error {err:.3e} > 1e-8")
    defect = max(sub["dilation_defect"] for sub in result["dispersive"].values())
    if defect > 1e-6:
        out.append(f"dispersive dilation defect {defect:.3e} > 1e-6")
    interp = result["interpolation"]
    for name in ("bandsup_vs_l1", "l1_vs_weighted_l2"):
        top = interp[name]["ratio_stats"]["max"]
        sharp = interp["sharp_constants"][name]
        if top > sharp * (1 + 1e-9):
            out.append(f"interpolation {name} ratio {top} > sharp {sharp}")
    if interp["max_dilation_defect"] > 1e-6:
        out.append(f"interpolation dilation defect {interp['max_dilation_defect']:.3e}")
    pseudo = result["pseudo_product"]
    if not (pseudo["max_ratio"] < 1.0 and pseudo["factored_defect"] <= 1e-10):
        out.append(f"pseudo-product ratio {pseudo['max_ratio']} "
                   f"defect {pseudo['factored_defect']:.3e}")
    return out
