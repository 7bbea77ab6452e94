"""The scripts under scripts/ run to completion, and the public names resolve.

The scripts import the package's field layer directly, so an API change that
breaks them shows here rather than on the next manual run.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quantum_descent
from quantum_descent.output import write_meta, write_table

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


def test_compare_outputs_reports_a_perturbed_column(tmp_path):
    """One column moved in one table: that column carries the difference,
    the rest read 0 and the untouched files read identical; a file on one
    side only makes the exit code 1."""
    rows = np.column_stack([np.linspace(0.0, 1.0, 5), np.linspace(-2.0, 2.0, 5)])
    moved = rows.copy()
    moved[3, 1] += 1e-9
    for tree, table in (("a", rows), ("b", moved)):
        run = tmp_path / tree / "relax"
        run.mkdir(parents=True)
        write_table(run, "trajectory", ["t", "u"], table, "csv")
        write_table(run, "density", ["x", "rho_t0"], rows, "csv")
        write_meta(run / "meta.json", {"wall_time_s": len(tree)})
    argv = [sys.executable, str(SCRIPTS / "compare_outputs.py"),
            str(tmp_path / "a"), str(tmp_path / "b")]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["only_in_a"] == report["only_in_b"] == []
    assert report["files"]["relax/density.csv"] == {"identical": True}
    columns = report["files"]["relax/trajectory.csv"]["columns"]
    assert columns["t"] == {"max_abs": 0.0, "max_rel": 0.0}
    assert columns["u"]["max_abs"] == abs(moved[3, 1] - rows[3, 1])
    assert columns["u"]["max_rel"] == columns["u"]["max_abs"] / 2.0
    assert "relax/meta.json" not in report["files"]

    (tmp_path / "b" / "relax" / "density.csv").unlink()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    assert done.returncode == 1
    assert json.loads(done.stdout)["only_in_a"] == ["relax/density.csv"]


def test_all_names_resolve_without_duplicates():
    names = quantum_descent.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(quantum_descent, name)  # AttributeError if the name does not resolve
