"""Command-line surface.

Subcommands: simulate, decay, scattering, longwave, shock, norms,
lemmas (--only NAME), all.  Exit status: 0 when every verdict passes,
1 when any verdict fails, 2 on usage or configuration errors and on runs
that leave a fit too few samples.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import io as lab_io
from .config import parse_config
from .errors import ConfigurationError, InsufficientDataError
from .experiments import SOBOLEV_ORDER, STUDIES, default_config, run_study, study_skeleton
from .integrator import geometric_snapshots
from .spectral import mean_integral, norm_l2, norm_linf, norm_sobolev


def _build_parser() -> argparse.ArgumentParser:
    # imported here, not with the module: `import fkdvlab.cli` stays free
    # of the lemma checks' module-level tables
    from .lemma_checks import LEMMA_CHECKS

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI configuration file")
    common.add_argument("--out", default=None,
                        help='output directory (default: [run] out_dir, else "runs")')
    common.add_argument("--seed", type=int, default=None,
                        help="RNG seed (default: [run] seed, else 0)")
    parser = argparse.ArgumentParser(
        prog="fkdvlab",
        description="Pseudospectral lab for weakly dispersive equations "
                    "with cubic nonlinearity")
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


def _load_config(args, study: str | None = None):
    """The configuration and output directory a subcommand runs with.

    A config file configures the study it names; any other study invoked in
    the same call (e.g. via `all`) runs with its own defaults and the file's
    seed.  With no study given, the file's own study is kept.  --out beats
    [run] out_dir, which beats "runs"; --seed beats [run] seed.
    """
    if args.config:
        cfg, out_dir = parse_config(args.config)
        if study is not None and cfg.study != study:
            cfg = default_config(study, seed=cfg.seed)
    else:
        cfg, out_dir = default_config(study or "decay"), None
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg, args.out or out_dir or "runs"


def _simulate(study):
    """Raw run of the configured data with snapshot norm series."""
    halt, times, series = study.simulate(geometric_snapshots(study.cfg.t_end), {
        "l2": lambda state: norm_l2(state.field),
        "linf": lambda state: norm_linf(state.field),
        "mean": lambda state: mean_integral(state.field),
        f"sobolev_{SOBOLEV_ORDER:g}": lambda state: norm_sobolev(state.field, SOBOLEV_ORDER)})
    study.write_series("simulate_series.csv", times, series)
    return [halt], lambda: None


def _run_simulate(args) -> int:
    cfg, out_dir = _load_config(args)
    report = study_skeleton(cfg, out_dir, _simulate, name="simulate")
    halt = report.measured["halt"]
    print(f"simulate: halt={halt['kind']} at t={halt['t']:g}; series at "
          f"{os.path.join(out_dir, report.series_paths[0])}")
    return 0 if report.all_passed else 1


def _print_verdicts(label: str, verdicts) -> int:
    """Print a verdict list under its label; the exit status it earns."""
    passed = all(v.passed for v in verdicts)
    print(f"{label}: {'all verdicts pass' if passed else 'verdict failures'}")
    for verdict in verdicts:
        mark = "PASS" if verdict.passed else "FAIL"
        print(f"  [{mark}] {verdict.name}: value={verdict.value:.6g} "
              f"threshold {verdict.threshold}")
    return 0 if passed else 1


def _run_single_study(study: str, args) -> int:
    cfg, out_dir = _load_config(args, study)
    return _print_verdicts(study, run_study(cfg, os.path.join(out_dir, study)).verdicts)


def run_lemma_checks(only: str | None = None, out_dir: str = "runs",
                     seed: int = 0) -> tuple[int, dict]:
    from .lemma_checks import LEMMA_CHECKS

    names = LEMMA_CHECKS if only is None else (only,)
    results = {name: LEMMA_CHECKS[name][0](seed) for name in names}
    verdicts = [v for name in names for v in LEMMA_CHECKS[name][1](results[name])]
    path = os.path.join(out_dir, "lemma_checks.json")
    lab_io.write_report({**results, "verdicts": [v.to_dict() for v in verdicts]}, path)
    status = _print_verdicts("lemmas", verdicts)
    print(f"lemma check report at {path}")
    return status, results


def _run_lemmas(args, only: str | None = None) -> int:
    cfg, out_dir = _load_config(args)
    return run_lemma_checks(only, out_dir, cfg.seed)[0]


def _run_all(args) -> int:
    status = 0
    for study in STUDIES:
        status |= _run_single_study(study, args)
    return status | _run_lemmas(args)


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
            return _run_lemmas(args, args.only)
        if args.command == "all":
            return _run_all(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except InsufficientDataError as exc:
        print(f"insufficient data: {exc}", file=sys.stderr)
        return 2
    parser.print_usage()
    return 2


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
