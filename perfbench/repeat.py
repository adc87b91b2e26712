"""Run the benchmark several times on one workload and summarise the spread.

    python3 perfbench/repeat.py --workload lemmas --seeds 1-10 [--seconds 20]

Each run gets its own seed.  For every metric this prints the median, the
quartiles (`statistics.quantiles(values, n=4)`) and the spread, the distance
between the quartiles as a share of the median.  The last line is a JSON
object with the same figures and every run's values.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RECORDS = HERE.parent / ".perfbench_out"

#: Figures of each run's record.json summarised beside the reported metrics:
#: the raw wall seconds and the machine's speed factor.
RAW = ("study_s", "speed_factor")


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    runs = []
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=300, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        record = json.loads((RECORDS / args.workload / "record.json").read_text())
        for name in RAW:
            result["metrics"][name] = {"value": record[name]}
        if not result["correct"]:
            print(done.stderr, file=sys.stderr)
        runs.append(result)
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)

    summary = {"workload": args.workload, "seconds": seconds,
               "correct": all(r["correct"] for r in runs), "metrics": {}}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        summary["metrics"][name] = {"median": median, "q1": q1, "q3": q3,
                                    "spread": spread, "values": values}
        print(f"{name}: median {median:.6g} quartiles [{q1:.6g}, {q3:.6g}] "
              f"spread {spread:.3f}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
