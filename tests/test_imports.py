"""fkdvlab runs on numpy alone: neither the studies nor any lemma check,
the two quadratures included, loads scipy."""

import json
import os
import subprocess
import sys

import fkdvlab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fkdvlab.__file__)))

SCRIPT = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
out = sys.argv[2]
from fkdvlab import cli
from fkdvlab.config import parse_config

inis = {
    "decay": ["[run]", "study = decay", "[grid]", "n_points = 256",
              "[solver]", "t_end = 2", "[study]", "sample_dt = 0.1",
              "fit_t_min = 0.5", "fit_t_max = 2"],
    "shock": ["[run]", "study = shock", "[study]", "refine_start = 64",
              "refine_max = 128"],
}
for study, lines in inis.items():
    ini = os.path.join(out, study + ".ini")
    with open(ini, "w") as fh:
        fh.write("\\n".join(lines) + "\\n")
    parse_config(ini)
    cli.cli_dispatch([study, "--config", ini, "--out", out])
status = cli.cli_dispatch(["lemmas", "--out", out])
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"scipy_loaded": loaded, "lemmas_status": status}))
"""


def test_studies_and_lemmas_never_load_scipy(tmp_path):
    done = subprocess.run([sys.executable, "-c", SCRIPT, SRC, str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["scipy_loaded"] == []
    assert result["lemmas_status"] == 0


def test_cli_import_leaves_the_lemma_checks_unloaded():
    # a study never needs the lemma checks' module-level tables
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import fkdvlab.cli; "
         "print('fkdvlab.lemma_checks' in sys.modules)", SRC],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
