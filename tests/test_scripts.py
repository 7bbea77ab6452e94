"""The scripts under scripts/ run to completion, and the public names resolve.

The scripts import the package's field layer directly, so an API change that
breaks them shows here rather than on the next manual run.
"""

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


def test_all_names_resolve_without_duplicates():
    names = quantum_descent.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(quantum_descent, name)  # AttributeError if the name does not resolve
