"""The scripts under scripts/ run to completion, and the public names resolve.

The scripts import the package's field layer directly, so an API change that
breaks them shows here rather than on the next manual run.
"""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quantum_descent
from quantum_descent.output import read_table, write_meta, write_table
from test_output import ref_csv

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script,args", [
    ("convergence_report.py", ["--levels", "2"]),
    ("run_figure1.py", ["--no-plot", "--out", "{tmp}"]),
    ("relaxation_report.py", ["--n", "128", "--t-final", "1", "--every", "0.5", "--mu", "0.5"]),
], ids=["convergence_report", "run_figure1", "relaxation_report"])
def test_script_exits_0(tmp_path, script, args):
    argv = [a.replace("{tmp}", str(tmp_path / "out")) for a in args]
    done = subprocess.run([sys.executable, str(SCRIPTS / script), *argv], cwd=tmp_path,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr


# runs the script named by its first argument with the test-only packages
# (the test extra of pyproject.toml) made to fail on import
WITHOUT_TEST_EXTRAS = ("import runpy, sys\n"
                       "for name in ('scipy', 'pytest', 'hypothesis', 'sympy'):\n"
                       "    sys.modules[name] = None\n"
                       "sys.argv = sys.argv[1:]\n"
                       "runpy.run_path(sys.argv[0], run_name='__main__')\n")


def test_nonlinearity_report_rises_from_roundoff_with_mu(tmp_path):
    """The report runs on the runtime dependencies alone."""
    done = subprocess.run([sys.executable, "-c", WITHOUT_TEST_EXTRAS,
                           str(SCRIPTS / "nonlinearity_report.py"), "--mu", "0", "0.1", "0.5"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert (report["dt"], report["t"]) == (0.005, 1.0)
    assert [row["mu"] for row in report["rows"]] == [0.0, 0.1, 0.5]
    residuals = [row["residual"] for row in report["rows"]]
    assert residuals[0] <= 1e-12
    assert residuals[0] < residuals[1] < residuals[2], residuals


@pytest.fixture(scope="module")
def digest(tmp_path_factory):
    """The output directory of one output_digest.py run, and its document."""
    out = tmp_path_factory.mktemp("digest") / "runs"
    done = subprocess.run([sys.executable, str(SCRIPTS / "output_digest.py"), "--out", str(out)],
                          cwd=out.parent, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    return out, json.loads(done.stdout)


def test_output_digest_hashes_every_data_file(digest):
    out, sums = digest
    runs = {key.split("/")[0] for key in sums}
    assert runs == {"relax", "quantum_learn", "descent_sweep", "frictionless",
                    "field_sampled_hbar", "coherent_hbar_m", "quartic_compare",
                    "default_learn", "default_evolve", "default_compare",
                    "default_figure1", "relax_json", "descent_sweep_json"}
    files = sorted(p.relative_to(out).as_posix() for p in out.rglob("*")
                   if p.is_file() and p.name != "meta.json")
    assert files == sorted(k for k in sums if not k.endswith("/exit_code"))
    assert all(re.fullmatch("[0-9a-f]{64}", sums[k]) for k in files)
    assert all(sums[f"{run}/exit_code"] == 0 for run in runs)
    assert "relax/density.csv" in sums and "descent_sweep/sweep_summary.csv" in sums
    assert ("relax_json/density.json" in sums
            and "descent_sweep_json/sweep_summary.json" in sums)


def test_every_csv_float_table_of_the_digest_runs_holds_the_bytes_of_percent_17e(digest):
    """Each CSV table of the default learn, evolve, compare and figure1 runs,
    of a sweep of zero-disruptor double-well compares and of the other
    digest runs equals its values written again one %.17e per cell
    (sweep_summary.csv writes its integer columns as integers)."""
    out, _ = digest
    tables = [p for p in sorted(out.rglob("*.csv")) if p.name != "sweep_summary.csv"]
    assert len(tables) >= 20
    for path in tables:
        assert path.read_text() == ref_csv(*read_table(path)), path


def test_ulp_sensitivity_reports_every_learner_column(tmp_path):
    """Both field-sampled learns, both 1-ulp moves of psi0, every column: the
    time axis does not move, and the moved packet moves the learner."""
    out = tmp_path / "runs"
    done = subprocess.run([sys.executable, str(SCRIPTS / "ulp_sensitivity.py"),
                           "--out", str(out)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert set(report) == {"quantum_learn", "field_sampled_hbar"}
    for run, moves in report.items():
        assert set(moves) == {"scale", "turn"}
        for move, columns in moves.items():
            assert set(columns) == {"t", "x", "u", "V", "dis"}
            assert columns["t"] == 0.0
            assert 0.0 < columns["x"] < 1e-6, (run, move)
            assert (out / f"{run}_{move}" / "trajectory.csv").is_file()


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


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_pairs_alternates_sides_and_summarizes(tmp_path, monkeypatch, capsys):
    """Canned benchmark results instead of runs: the pairs alternate which
    side goes first, and the summary gives each side's median and IQR and
    the change's wins in the declared direction."""
    ab = _load_script("ab_pairs")
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "units_per_s", "better": "higher", "bound": 0.25}]}))
    canned = {"parent": iter([(1.0, 100.0), (1.2, 90.0), (1.1, 95.0), (1.3, 80.0)]),
              "change": iter([(0.9, 110.0), (1.0, 105.0), (1.2, 90.0), (0.8, 120.0)])}
    calls = []

    def run_side(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed, seconds))
        wall, units = next(canned[checkout.name])
        return {"wall_s": wall, "units_per_s": units}

    monkeypatch.setattr(ab, "run_side", run_side)
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "relax",
            "--seed", "7", "--pairs", "4", "--seconds", "2"]
    assert ab.main(argv) == 0
    assert [c[0] for c in calls] == ["parent", "change", "change", "parent"] * 2
    assert set(c[1:] for c in calls) == {("relax", 7, 2.0)}
    report = json.loads(capsys.readouterr().out)
    assert [p["first"] for p in report["pairs"]] == ["parent", "change"] * 2
    assert report["pairs"][1]["parent"] == {"wall_s": 1.2, "units_per_s": 90.0}
    wall, units = report["summary"]["wall_s"], report["summary"]["units_per_s"]
    assert wall["change_wins"] == 3 and units["change_wins"] == 3
    assert wall["parent"]["median"] == pytest.approx(1.15)
    assert wall["parent"]["iqr"] == pytest.approx(1.225 - 1.075)
    assert units["change"]["median"] == pytest.approx(107.5)
    assert units["better"] == "higher" and units["pairs"] == 4
    # 3 of 4 wins is no gain, and neither median is worse by a quarter
    assert wall["verdict"] == units["verdict"] == "no change"

    def verdict(parent, change, better="lower"):
        pairs = [{"parent": {"m": p}, "change": {"m": c}} for p, c in zip(parent, change)]
        return ab.summarize(pairs, {"m": {"better": better, "bound": 0.25}})["m"]["verdict"]

    steady = [1.0 + 0.01 * k for k in range(10)]  # median 1.045, IQR 0.045
    assert verdict(steady, [v - 0.1 for v in steady]) == "gain"
    assert verdict(steady, [v + 0.1 for v in steady], better="higher") == "gain"
    # a tie counts for neither side: 9 wins of 10 pairs are a gain, 8 are not
    assert verdict(steady, [v - 0.1 for v in steady[:9]] + steady[9:]) == "gain"
    assert verdict(steady, [v - 0.1 for v in steady[:8]] + steady[8:]) == "no change"
    assert verdict(steady, [v - 0.01 for v in steady]) == "no change"  # within the IQR
    assert verdict(steady, [v + 0.3 for v in steady]) == "regression"  # 0.3 > 0.25 * 1.045
    assert verdict(steady, [v - 0.3 for v in steady], better="higher") == "regression"
    spread = [0.5, 1.5] * 5  # IQR 1.0, wider than a quarter of the median
    assert verdict(spread, spread) == "unresolved"


def test_ab_pairs_reads_the_last_line_and_rejects_failed_runs():
    ab = _load_script("ab_pairs")
    good = {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {"wall_s": {"value": 1.5, "unit": "s"}}}
    assert ab.parse_result("[relax] progress\n" + json.dumps(good) + "\n") == {"wall_s": 1.5}
    with pytest.raises(ValueError, match="1 of 3 runs failed"):
        ab.parse_result(json.dumps({**good, "correct": False, "failed": 1}))
    with pytest.raises(ValueError, match="no result"):
        ab.parse_result("")


def test_all_names_resolve_without_duplicates():
    names = quantum_descent.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(quantum_descent, name)  # AttributeError if the name does not resolve
