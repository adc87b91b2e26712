"""fkdvlab benchmark: time from configuration to checked verdict.

    python3 perfbench/run.py --workload decay-n8192 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  Workloads (closed loop, one caller, one process, `threads = 1`):

  decay-n8192   default `decay` study: large-n dispersive IF-RK4 kernel
  shock-ladder  default `shock` study: dispersionless ladder 512..4096 plus
                the dispersive contrast run; short segments, busy observer
  lemmas        `cli.run_lemma_checks` over all six checks; bypasses the
                integrator (the control for step-kernel changes)

`--trace 0` reports the end-to-end metrics: `study_norm_s` (median seconds
of one call after an untimed warm-up, as many calls as fit in `--seconds`,
at least one, each scaled to the machine's typical speed by the reference
blocks run before and after it; see reference.py), `setup_s` (median over
eight fresh interpreters, four before and four after the calls, of
importing fkdvlab with numpy and scipy and parsing the workload's INI, in
plain wall seconds) and `peak_rss_mb` (`ru_maxrss` of this process).  The
plain wall seconds of the calls, `study_s`, go to the record.  `--trace 1` makes the same
untraced calls, then one traced call, and reports per-layer metrics from
spans recorded around calls into each module's public functions
(see tracing.py).  Every call's output is checked against references.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A full record of the run, with
the machine's provenance and every sample, goes to
`.perfbench_out/<workload>/record.json`, the spans of a traced run to
`.perfbench_out/<workload>/spans.tsv.gz`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: Fresh interpreters timed for `setup_s`, half before and half after the
#: timed calls so that one run's samples span it; the median is reported.
SETUP_REPEATS = 8

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import fkdvlab.cli
from fkdvlab.config import parse_config
parse_config(sys.argv[2])
print(repr(time.perf_counter() - t0))
"""

def measure_setup(ini: Path, repeats: int) -> list[float]:
    samples = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(ini)],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}-{kind}"] = size
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
            "caches": caches,
            "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
            "workload_seed": seed}


def one_call(workload: str, ini: Path, seed: int, out_dir: Path,
             expected: dict) -> tuple[float, list[str]]:
    """Seconds of one call (the check of its output is not timed) and every
    reason it failed: an error, a bad exit status or a wrong output."""
    start = time.perf_counter()
    try:
        status = workloads.call(workload, str(ini), seed, str(out_dir))
        elapsed = time.perf_counter() - start
        result, problems = workloads.outputs(workload, str(out_dir))
        return elapsed, problems + workloads.check(workload, status, result,
                                                   expected)
    except Exception as exc:  # a failed call is counted, not fatal
        return time.perf_counter() - start, [f"{type(exc).__name__}: {exc}"]


def timed_calls(workload: str, ini: Path, seed: int, out_dir: Path,
                seconds: float, expected: dict) -> tuple[list, list, list]:
    """Closed loop of untraced calls for `seconds`, at least one, with a
    reference block before the first call and after each call; no call is
    started that the median call so far says would overrun the window.
    Returns the calls' seconds, their failures and the blocks' mean chunk
    seconds."""
    durations, failures = [], []
    blocks = [reference.block(seconds)]
    deadline = time.perf_counter() + seconds
    while True:
        elapsed, problems = one_call(workload, ini, seed, out_dir, expected)
        blocks.append(reference.block(elapsed))
        durations.append(elapsed)
        failures.append(problems)
        if time.perf_counter() + statistics.median(durations) > deadline:
            return durations, failures, blocks


def tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def layer_metrics(summary: dict, overhead_s: float, bytes_written: int,
                  alloc_mb: float) -> dict:
    """Per-layer values of one traced call, named as in BENCHMARK.json."""
    calls, self_s = summary["calls"], summary["self_s"]
    steps = calls.get("integrator.step_ifrk4", 0)
    out = {}
    for name in ("equations.nonlinearity", "spectral.transform",
                 "spectral.inverse_transform", "spectral.dealias",
                 "integrator.step_ifrk4", "integrator.cfl_dt",
                 "experiments.observer"):
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in ("equations.nonlinearity", "spectral.transform",
                 "spectral.inverse_transform", "spectral.dealias",
                 "spectral.hermitize", "spectral.hermitian_defect",
                 "spectral.norm_linf", "integrator.step_ifrk4",
                 "integrator.cfl_dt", "integrator.run_simulation",
                 "experiments.observer", "config.parse_config"):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    out["integrator.transforms_per_step"] = (
        summary["step_transforms"] / steps if steps else 0.0)
    out["experiments.self_s"] = self_s.get("experiments.run_study", 0.0)
    for name in tracing.LEMMA_CHECKS:
        out[f"lemma_checks.{name}.self_s"] = self_s.get(f"lemma_checks.{name}", 0.0)
    out["lemma_checks.check_oscillatory_gaussian.peak_alloc_mb"] = alloc_mb
    out["io.self_s"] = sum(v for k, v in self_s.items() if k.startswith("io."))
    out["io.bytes_written"] = bytes_written
    out["cli.self_s"] = sum(v for k, v in self_s.items() if k.startswith("cli."))
    out["trace.overhead_s"] = overhead_s
    return out


def invariant_failures(summary: dict) -> list[str]:
    """Exact counts the solver must show: four nonlinearity evaluations per
    IF-RK4 step, and one CFL evaluation per step plus one per segment."""
    calls = summary["calls"]
    steps = calls.get("integrator.step_ifrk4", 0)
    out = []
    if calls.get("equations.nonlinearity", 0) != 4 * steps:
        out.append(f"nonlinearity calls {calls.get('equations.nonlinearity', 0)} "
                   f"!= 4 x {steps} steps")
    if calls.get("integrator.cfl_dt", 0) != steps + summary["segments"]:
        out.append(f"cfl_dt calls {calls.get('integrator.cfl_dt', 0)} != "
                   f"{steps} steps + {summary['segments']} segments")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "fkdvlab" / "__init__.py").is_file():
        print(f"perfbench: no fkdvlab sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    with open(HERE / "references.json") as fh:
        expected = json.load(fh)[args.workload]
    out = OUT / args.workload
    ini = out / "workload.ini"
    workloads.write_ini(args.workload, args.seed, str(ini))
    setup = [] if args.trace else measure_setup(ini, SETUP_REPEATS // 2)

    import fkdvlab.cli
    if not Path(fkdvlab.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: fkdvlab imported from {fkdvlab.cli.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    warm_ini = out / "warmup.ini"
    workloads.write_ini(args.workload, args.seed, str(warm_ini), warmup=True)
    workloads.call(args.workload, str(warm_ini), args.seed, str(out / "warmup"),
                   only="trilinear")

    call_dir = out / "call"
    durations, failures, blocks = timed_calls(args.workload, ini, args.seed,
                                              call_dir, args.seconds, expected)
    if not args.trace:
        setup += measure_setup(ini, SETUP_REPEATS - len(setup))
    normalised = reference.normalised(durations, blocks)
    passed = [i for i, f in enumerate(failures) if not f] or range(len(durations))
    study_s = statistics.median(durations[i] for i in passed)
    study_norm_s = statistics.median(normalised[i] for i in passed)
    speed = reference.NOMINAL_S / statistics.median(blocks)
    record = {"provenance": provenance(args.seed), "args": vars(args),
              "setup_s_samples": setup, "study_s_samples": durations,
              "study_norm_s_samples": normalised, "reference_block_s": blocks,
              "study_s": study_s, "speed_factor": speed, "failures": failures}

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.call_id = len(durations) + 1
            traced_s, problems = one_call(args.workload, ini, args.seed,
                                          call_dir, expected)
        finally:
            tracer.remove()
        bytes_written = tree_bytes(call_dir)
        summary = tracer.summary()
        problems += invariant_failures(summary)
        failures.append(problems)
        alloc_mb = 0.0
        if args.workload == "lemmas":
            from fkdvlab import lemma_checks
            alloc_mb = tracing.peak_alloc_mb(lemma_checks.check_oscillatory_gaussian)
        tracer.write(str(out / "spans.tsv.gz"))
        values = layer_metrics(summary, traced_s - study_s, bytes_written, alloc_mb)
        wanted = spec["per_layer"]
        record.update(traced_s=traced_s, summary=summary)
    else:
        values = {"study_norm_s": study_norm_s,
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        wanted = spec["end_to_end"]

    if set(values) != {m["name"] for m in wanted}:
        raise SystemExit(f"perfbench: metrics {sorted(values)} do not match "
                         f"BENCHMARK.json {sorted(m['name'] for m in wanted)}")
    failed = sum(1 for f in failures if f)
    result = {"correct": failed == 0, "attempted": len(failures), "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    record.update(result=result, failed_share=failed / len(failures))
    with open(out / "record.json", "w") as fh:
        json.dump(record, fh, indent=1)
    for problems in failures:
        for problem in problems:
            print(f"perfbench: FAILED {args.workload}: {problem}", file=sys.stderr)
    print(f"{args.workload}: study_s median {study_s:.4f} s over {len(durations)} "
          f"calls, speed factor {speed:.3f}, "
          f"failed_share {failed}/{len(failures)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
