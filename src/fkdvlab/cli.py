"""Command-line surface.

Subcommands: simulate, decay, scattering, longwave, shock, norms,
lemmas (--only NAME), all.  Exit status: 0 when every verdict passes,
1 when any verdict fails, 2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np
from dataclasses import replace

from . import io as lab_io
from .config import parse_config
from .errors import ConfigurationError
from .experiments import (
    STUDIES,
    default_config,
    initial_field,
    measure_smallness,
    run_study,
)
from .integrator import geometric_snapshots, run_simulation
from .lemma_checks import (
    CUTOFF_RATE_MAX,
    DISPERSIVE_DILATION_DEFECT_MAX,
    FACTORED_DEFECT_MAX,
    GAUSSIAN_CLOSED_FORM_ATOL,
    HALVING_RATIO_BAND,
    INTERPOLATION_CONSTANT_SLACK,
    INTERPOLATION_DILATION_DEFECT_MAX,
    PSEUDO_PRODUCT_RATIO_MAX,
    TRILINEAR_RTOL,
    check_dispersive_estimate,
    check_interpolation_inequality,
    check_oscillatory_gaussian,
    check_phase_expansion,
    check_pseudo_product,
    check_trilinear_identity,
    cutoff_check_bound,
)
from .spectral import mean_integral, norm_l2, norm_linf, norm_sobolev

LEMMA_CHECKS = ("dispersive", "interpolation", "phase_expansion",
                "trilinear", "pseudo_product", "oscillatory")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI configuration file")
    common.add_argument("--out", default="runs", help="output directory")
    common.add_argument("--seed", type=int, default=None, help="override RNG seed")
    common.add_argument("--threads", type=int, default=1,
                        help="parallel run pool bound for parameter sweeps")
    parser = argparse.ArgumentParser(
        prog="fkdvlab",
        description="Pseudospectral lab for weakly dispersive equations "
                    "with power-law nonlinearities",
        parents=[common])
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("simulate", help="raw run with snapshot norm series",
                   parents=[common])
    for study in STUDIES:
        sub.add_parser(study, help=f"run the {study} study", parents=[common])
    lemmas = sub.add_parser("lemmas", help="run the estimate/identity checks",
                            parents=[common])
    lemmas.add_argument("--only", choices=LEMMA_CHECKS, default=None)
    sub.add_parser("all", help="run every study plus the lemma checks",
                   parents=[common])
    return parser


def _load_config(args, study: str):
    # a config file configures the study it names; any other study invoked
    # in the same call (e.g. via `all`) runs with its own defaults
    if args.config:
        cfg, run_options = parse_config(args.config)
        if cfg.study != study:
            cfg = default_config(study, seed=cfg.seed)
    else:
        cfg, run_options = default_config(study), {"threads": 1, "out_dir": None}
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.threads and args.threads > 1:
        cfg = replace(cfg, threads=args.threads)
    elif run_options.get("threads", 1) > 1:
        cfg = replace(cfg, threads=run_options["threads"])
    out_dir = args.out or run_options.get("out_dir") or "runs"
    return cfg, out_dir, run_options


def _run_simulate(args) -> int:
    cfg, out_dir, _ = _load_config(args, "decay")
    grid = cfg.grid()
    eq = cfg.make_eq()
    u0 = initial_field(cfg, grid)
    smallness = measure_smallness(u0, cfg)
    snaps = geometric_snapshots(cfg.t_end)
    times, l2s, linfs, means, sobs = [], [], [], [], []

    def observer(state):
        times.append(state.t)
        l2s.append(norm_l2(state.u_hat))
        linfs.append(norm_linf(state.u_hat))
        means.append(mean_integral(state.u_hat))
        sobs.append(norm_sobolev(state.u_hat, cfg.sobolev_order))

    final, halt = run_simulation(u0, eq, cfg.solver(cfg.t_end, snaps), observer)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "simulate_series.csv")
    lab_io.write_series_columns(path, times, {
        "l2": l2s, "linf": linfs, "mean": means,
        f"sobolev_{cfg.sobolev_order:g}": sobs})
    manifest = lab_io.RunManifest.create(cfg.to_dict(), smallness, halt)
    lab_io.write_manifest(manifest, os.path.join(out_dir, "simulate_manifest.json"))
    print(f"simulate: halt={halt.kind} at t={halt.t:g}; series at {path}")
    return 0 if halt.completed else 1


def _print_verdicts(report) -> None:
    for verdict in report.verdicts:
        mark = "PASS" if verdict.passed else "FAIL"
        print(f"  [{mark}] {verdict.name}: value={verdict.value:.6g} "
              f"threshold {verdict.threshold}")


def _run_single_study(study: str, args) -> int:
    cfg, out_dir, _ = _load_config(args, study)
    report = run_study(cfg, os.path.join(out_dir, study))
    print(f"{study}: {'all verdicts pass' if report.all_passed else 'verdict failures'}")
    _print_verdicts(report)
    return 0 if report.all_passed else 1


def _num(x: float) -> str:
    """A threshold as the lemma lines print it: 1e-6, not 1e-06."""
    mantissa, _, exponent = f"{x:g}".partition("e")
    return f"{mantissa}e{int(exponent)}" if exponent else mantissa


def run_lemma_checks(only: str | None = None, out_dir: str = "runs",
                     seed: int = 0) -> tuple[int, dict]:
    results = {}
    names = LEMMA_CHECKS if only is None else (only,)
    for name in names:
        if name == "dispersive":
            results[name] = {f"alpha={a}": check_dispersive_estimate(a)
                             for a in (-0.8, -0.5, -0.2)}
        elif name == "interpolation":
            results[name] = check_interpolation_inequality(seed=seed)
        elif name == "phase_expansion":
            results[name] = {f"alpha={a}": check_phase_expansion(a, 1.0)
                             for a in (-0.8, -0.5, -0.2)}
        elif name == "trilinear":
            results[name] = [check_trilinear_identity(16, s) for s in range(5)]
        elif name == "pseudo_product":
            results[name] = check_pseudo_product(seed=seed)
        elif name == "oscillatory":
            results[name] = check_oscillatory_gaussian()
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "lemma_checks.json")
    lab_io.write_report(results, path)

    status = 0
    if "trilinear" in results:
        worst = max(r["relative_sup_difference"] for r in results["trilinear"])
        ok = worst <= TRILINEAR_RTOL
        print(f"  [{'PASS' if ok else 'FAIL'}] trilinear identity: "
              f"max relative difference {worst:.3e} (<= {_num(TRILINEAR_RTOL)})")
        status |= 0 if ok else 1
    if "phase_expansion" in results:
        ratios = [r for sub in results["phase_expansion"].values()
                  for r in sub["halving_ratios"]]
        lo, hi = HALVING_RATIO_BAND
        ok = all(lo <= r <= hi for r in ratios)
        print(f"  [{'PASS' if ok else 'FAIL'}] phase expansion: halving ratios "
              f"in [{min(ratios):.2f}, {max(ratios):.2f}] "
              f"(need [{_num(lo)}, {_num(hi)}])")
        status |= 0 if ok else 1
    if "oscillatory" in results:
        res = results["oscillatory"]
        worst = max(g["abs_error"] for g in res["gaussian"])
        check = res["cutoff_check"]
        bound = cutoff_check_bound(check["fit_prediction"])
        ok = (worst <= GAUSSIAN_CLOSED_FORM_ATOL
              and res["cutoff_rate"] <= CUTOFF_RATE_MAX
              and check["error"] <= bound)
        print(f"  [{'PASS' if ok else 'FAIL'}] oscillatory gaussian: "
              f"max closed-form error {worst:.3e} "
              f"(<= {GAUSSIAN_CLOSED_FORM_ATOL:g}), cutoff rate "
              f"{res['cutoff_rate']:.4f} (<= {CUTOFF_RATE_MAX:g}), cutoff "
              f"error at N={check['N']:g} {check['error']:.3e} (<= {bound:.3e})")
        status |= 0 if ok else 1
    if "interpolation" in results:
        res = results["interpolation"]
        slack = 1 + INTERPOLATION_CONSTANT_SLACK
        ok = (res["bandsup_vs_l1"]["ratio_stats"]["max"]
              <= res["sharp_constants"]["bandsup_vs_l1"] * slack
              and res["l1_vs_weighted_l2"]["ratio_stats"]["max"]
              <= res["sharp_constants"]["l1_vs_weighted_l2"] * slack
              and res["max_dilation_defect"] <= INTERPOLATION_DILATION_DEFECT_MAX)
        print(f"  [{'PASS' if ok else 'FAIL'}] interpolation chain: constants "
              f"within sharp bounds, dilation defect "
              f"{res['max_dilation_defect']:.2e} "
              f"(<= {_num(INTERPOLATION_DILATION_DEFECT_MAX)})")
        status |= 0 if ok else 1
    if "dispersive" in results:
        defects = [sub["dilation_defect"] for sub in results["dispersive"].values()]
        maxima = [sub[side]["ratio_stats"]["max"]
                  for sub in results["dispersive"].values()
                  for side in ("freq_side", "phys_side")]
        ok = (max(defects) <= DISPERSIVE_DILATION_DEFECT_MAX
              and all(np.isfinite(maxima)))
        print(f"  [{'PASS' if ok else 'FAIL'}] dispersive estimates: sweep "
              f"maxima recorded (worst {max(maxima):.3f}), dilation defect "
              f"{max(defects):.2e} (<= {_num(DISPERSIVE_DILATION_DEFECT_MAX)})")
        status |= 0 if ok else 1
    if "pseudo_product" in results:
        res = results["pseudo_product"]
        ok = (res["factored_defect"] <= FACTORED_DEFECT_MAX
              and res["max_ratio"] < PSEUDO_PRODUCT_RATIO_MAX)
        print(f"  [{'PASS' if ok else 'FAIL'}] pseudo-product bound: max ratio "
              f"{res['max_ratio']:.4f} (< {_num(PSEUDO_PRODUCT_RATIO_MAX)}), "
              f"factored-route defect {res['factored_defect']:.2e} "
              f"(<= {_num(FACTORED_DEFECT_MAX)})")
        status |= 0 if ok else 1
    print(f"lemma check report at {path}")
    return status, results


def _run_all(args) -> int:
    status = 0
    for study in STUDIES:
        status |= _run_single_study(study, args)
    lemma_status, _ = run_lemma_checks(None, args.out, args.seed or 0)
    return status | lemma_status


def cli_dispatch(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    if args.command is None:
        parser.print_usage()
        return 2
    try:
        if args.command == "simulate":
            return _run_simulate(args)
        if args.command in STUDIES:
            return _run_single_study(args.command, args)
        if args.command == "lemmas":
            status, _ = run_lemma_checks(args.only, args.out, args.seed or 0)
            return status
        if args.command == "all":
            return _run_all(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    parser.print_usage()
    return 2


def main() -> None:
    sys.exit(cli_dispatch())
