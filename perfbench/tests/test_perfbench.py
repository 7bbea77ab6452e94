"""Tests of the benchmark itself: generator, tracer, checks, output contract.

Run from the repository root:  python3 -m pytest perfbench/tests -q
The count and check tests run the real workloads (about a minute in all).
"""

import math
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import yaml

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.dont_write_bytecode = True

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


# --- generator --------------------------------------------------------------

@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_config(name):
    assert workloads.generate(name, 7) == workloads.generate(name, 7)
    assert workloads.generate(name, 7).yaml_text != workloads.generate(name, 8).yaml_text


@pytest.mark.parametrize("seed", range(200))
def test_drawn_parameters_keep_the_work_fixed(seed):
    relax = workloads.generate("relax", seed)
    assert 0.0 < relax.params["mu"] <= 1.0
    assert yaml.safe_load(relax.yaml_text)["physics"]["mu"] == relax.params["mu"]

    learn = workloads.generate("quantum-learn", seed)
    p = learn.params
    assert 0.0 <= p["mu"] <= 1.0 and p["sigma"] != 1.0 / math.sqrt(2.0)
    assert (1.0 / p["m"]) * p["omega"] ** 2 < 2.0 * (2.0 - p["mu"])

    sweep = workloads.generate("descent-sweep", seed)
    doc = yaml.safe_load(sweep.yaml_text)
    assert doc["sweep"]["values"] == sweep.params["mus"]
    assert all(0.0 <= mu <= 1.0 for mu in sweep.params["mus"])
    # stop tolerance far below what a trajectory of this length reaches
    assert isinstance(doc["run"]["stop_tol"], float)


def test_floats_are_written_as_yaml_floats():
    assert yaml.safe_load(f"v: {workloads._f(1e-200)}")["v"] == 1e-200
    assert yaml.safe_load(f"v: {workloads._f(-3.25)}")["v"] == -3.25


# --- tracer -----------------------------------------------------------------

def test_self_time_subtracts_children_cpu():
    def span(cpu, parent=None):
        return tracer.Span("s", "x", 0.0, cpu, cpu, parent, 1, None)

    spans = [span(10.0), span(3.0, parent=0), span(3.0, parent=0), span(1.0, parent=1)]
    assert tracer.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_wrapper_records_parent_thread_and_annotation():
    t = tracer.Tracer()
    inner = t.wrap(lambda: 3, "m.inner", "layer")
    outer = t.wrap(lambda: inner() + 1, "m.outer", "layer", annotate=lambda r: {"r": r})
    assert outer() == 4
    worker = threading.Thread(target=inner)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    main = threading.get_ident()
    by_name = {(s.name, s.thread == main): s for s in t.spans}
    assert by_name[("m.outer", True)].info == {"r": 4}
    assert by_name[("m.inner", True)].parent == t.spans.index(by_name[("m.outer", True)])
    assert by_name[("m.inner", False)].parent is None


def test_ffts_count_only_inside_a_step_span():
    t = tracer.Tracer()
    fft = t.count_fft(np.fft.fft)
    a = np.ones(2048, dtype=complex)
    fft(a)  # outside any step: not counted
    t.wrap(lambda: fft(fft(a)), tracer.STEP_SPAN, "dynamics")()
    assert t.counts == {"fft_flops": 2 * 5 * 2048 * 11, "fft_bytes": 2 * 2 * 16 * 2048}


def test_install_wraps_every_binding():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import tracer, quantum_descent as qd\n"
        "from quantum_descent import dynamics, experiments, fields, learner, hydro\n"
        "tracer.install(tracer.Tracer())\n"
        "for f in (fields.polar_decompose, dynamics.polar_decompose, qd.polar_decompose,\n"
        "          experiments.evolve, learner.disruptor_field, dynamics.disruptor_field,\n"
        "          hydro.sample_field, dynamics.KostinPropagator.step, dynamics.np.fft.fft):\n"
        "    assert hasattr(f, '__wrapped__'), f\n"
        "assert dynamics.polar_decompose is fields.polar_decompose\n"
    )
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    subprocess.run([sys.executable, "-c", code, str(BENCH)], env=env, check=True, timeout=120)


# --- real workloads: counts repeat, checks catch wrong output ---------------

@pytest.fixture
def work(tmp_path):
    yield tmp_path
    shutil.rmtree(tmp_path, ignore_errors=True)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_counts_repeat_exactly_for_one_seed(name, work):
    runner = run.Runner(workloads.generate(name, 3), work)
    first, second = runner.run(traced=True), runner.run(traced=True)
    assert first is not None and second is not None, runner.errors
    for key in run.REPEATED_COUNTS:
        assert first["layers"][key] == second["layers"][key], key
    layers = first["layers"]
    if name == "descent-sweep":
        assert layers["dynamics.steps"] == 0 and layers["hydro.disruptor_calls"] == 0
        assert layers["learner.updates"] == workloads.generate(name, 3).units
        assert layers["experiments.points"] == workloads.SWEEP_POINTS
        assert layers["dynamics.fft_flops.computed"] == 0.0
    else:
        assert layers["dynamics.steps"] > 0 and layers["fields.polar_calls"] > 0
        # at least the four transforms of one split step, from observed calls
        assert layers["dynamics.fft_flops.computed"] >= 4 * 5 * workloads.GRID_N * 11
    if name == "quantum-learn":
        assert layers["dynamics.steps"] == workloads.LEARN_STEPS * workloads.LEARN_SUBSTEPS
        assert layers["learner.dis_samples"] == workloads.LEARN_STEPS


def _corrupt(path: Path, row: int, col: int, transform) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = "%.17e" % transform(float(cells[col]))
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _shift(v):
    return v + 1e-6


# per workload, cases of edits (file, row, column, transform) a check must catch
CORRUPTIONS = {
    "relax": [
        # <x> off the damped oscillator by far more than rounding
        [("trajectory.csv", 1000, 1, lambda v: v + 1e-4)],
        # <p> off by as much
        [("trajectory.csv", 700, 2, lambda v: v + 1e-4)],
        # the disruptor at the centre as a stencil off by one cell would give
        [("trajectory.csv", 300, 4, lambda v: v + 2e-2)],
    ],
    "quantum-learn": [
        # one disruptor sample one ulp away from what the learner used
        [("trajectory.csv", 10, 4, lambda v: math.nextafter(v, math.inf))],
    ],
    "descent-sweep": [
        # the classical twin one ulp away from the quantum one
        [("point_002/trajectory_classical.csv", 500, 1,
          lambda v: math.nextafter(v, math.inf))],
        # both twins off the replayed descent in the same way
        [("point_001/trajectory_quantum.csv", 4000, 1, _shift),
         ("point_001/trajectory_classical.csv", 4000, 1, _shift)],
        # a disruptor in the quantum twin
        [("point_000/trajectory_quantum.csv", 20, 4, lambda v: 1e-3)],
    ],
}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_checks_pass_then_catch_corruption(name, work):
    wl = workloads.generate(name, 5)
    (work / "c.yaml").write_text(wl.yaml_text)
    out = work / "out"
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    subprocess.run([sys.executable, "-m", "quantum_descent.cli", wl.experiment,
                    "--config", str(work / "c.yaml"), "--out", str(out), "--quiet"],
                   env=env, check=True, timeout=120, capture_output=True)
    checks.check(wl, out)
    for i, edits in enumerate(CORRUPTIONS[name]):
        case = work / f"case_{i}"
        shutil.copytree(out, case)
        for stem, row, col, transform in edits:
            _corrupt(case / stem, row, col, transform)
        with pytest.raises(checks.CheckFailure):
            checks.check(wl, case)


# --- output contract --------------------------------------------------------

def test_run_refuses_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "relax",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
