"""The scripts under scripts/ run to completion, and the public names resolve.

The scripts import the package's field layer directly, so an API change that
breaks them shows here rather than on the next manual run.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import quantum_descent

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script,args", [
    ("convergence_report.py", ["--levels", "2"]),
    ("run_figure1.py", ["--no-plot", "--out", "{tmp}"]),
], ids=["convergence_report", "run_figure1"])
def test_script_exits_0(tmp_path, script, args):
    argv = [a.replace("{tmp}", str(tmp_path / "out")) for a in args]
    done = subprocess.run([sys.executable, str(SCRIPTS / script), *argv], cwd=tmp_path,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr


def test_output_digest_hashes_every_data_file(tmp_path):
    out = tmp_path / "runs"
    done = subprocess.run([sys.executable, str(SCRIPTS / "output_digest.py"), "--out", str(out)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    sums = json.loads(done.stdout)
    runs = {key.split("/")[0] for key in sums}
    assert runs == {"relax", "quantum_learn", "descent_sweep", "crank_nicolson",
                    "field_sampled_hbar", "default_learn", "default_evolve",
                    "default_compare", "default_figure1"}
    files = sorted(p.relative_to(out).as_posix() for p in out.rglob("*")
                   if p.is_file() and p.name != "meta.json")
    assert files == sorted(k for k in sums if not k.endswith("/exit_code"))
    assert all(re.fullmatch("[0-9a-f]{64}", sums[k]) for k in files)
    assert all(sums[f"{run}/exit_code"] == 0 for run in runs)
    assert "relax/density.csv" in sums and "descent_sweep/sweep_summary.csv" in sums


def test_all_names_resolve_without_duplicates():
    names = quantum_descent.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(quantum_descent, name)  # AttributeError if the name does not resolve
