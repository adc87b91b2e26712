"""Write references.json: the headline numbers of one call per workload.

    python3 perfbench/capture_references.py

The committed file was captured at the seed commit of the benchmark.  Run
this again only for a change that is meant to alter these numbers, and
say so in that change.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench_out" / "capture"
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

references = {}
for workload in workloads.WORKLOADS:
    ini = OUT / workload / "workload.ini"
    workloads.write_ini(workload, 0, str(ini))
    status = workloads.call(workload, str(ini), 0, str(OUT / workload / "call"))
    result, missing = workloads.outputs(workload, str(OUT / workload / "call"))
    if status != 0 or missing:
        sys.exit(f"{workload}: exit status {status}, {missing}")
    references[workload] = workloads.headline(workload, result)
with open(HERE / "references.json", "w") as fh:
    json.dump(references, fh, indent=1, sort_keys=True)
    fh.write("\n")
