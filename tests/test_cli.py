"""End-to-end harness behaviour: files, formats, exit codes, determinism.

Runs go through cli.main() in-process (fast, same code path as the console
script); one subprocess test confirms the module entry point works outside
the test process.
"""

import json
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from quantum_descent import experiments
from quantum_descent.cli import main
from quantum_descent.config import parse_config
from quantum_descent.dynamics import damped_oscillator_closed_form
from quantum_descent.errors import ConfigError
from quantum_descent.experiments import run_experiment
from quantum_descent.fields import Wavefunction
from quantum_descent.learner import PotentialSpec
from quantum_descent.output import read_meta, read_table

# the timings, the only fields of meta.json that vary between identical runs
NOISE_KEYS = {"wall_time_s", "compute_s", "write_s"}


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _meta_without_noise(path):
    meta = read_meta(path)
    meta = {k: v for k, v in meta.items() if k not in NOISE_KEYS}
    # the echoed output directory tracks --out, which differs per invocation
    meta["effective_config"]["output"].pop("directory")
    return meta


# --- the flagship run ---------------------------------------------------------

def test_figure1_writes_expected_files(tmp_path):
    out = tmp_path / "fig"
    assert main(["figure1", "--out", str(out), "--quiet"]) == 0
    header, traj = read_table(out / "trajectory.csv")
    assert header == ["t", "x", "u", "V", "dis"]
    dheader, density = read_table(out / "density.csv")
    assert dheader[0] == "x"
    assert all(h.startswith("rho_t") for h in dheader[1:])
    meta = read_meta(out / "meta.json")
    assert meta["status"] == "ok"
    assert len(meta["pde"]["snapshot_times"]) == density.shape[1] - 1
    # the learner inset converges onto the minimum
    assert abs(traj[-1, 1]) < 1e-6


def test_summary_line_and_quiet(tmp_path, capsys):
    assert main(["learn", "--out", str(tmp_path / "a")]) == 0
    out = capsys.readouterr().out
    assert "learn: status=ok" in out
    assert main(["learn", "--out", str(tmp_path / "b"), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


# --- determinism and the metadata echo ----------------------------------------

def test_repeated_runs_are_byte_identical(tmp_path):
    cfg = _write(tmp_path, "c.yaml",
                 "experiment: evolve\n"
                 "grid: {n: 512}\n"
                 "run: {t_final: 0.5, dt: 0.005, snapshot_every: 50}\n")
    for d in ("r1", "r2"):
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / d),
                     "--quiet"]) == 0
    for name in ("trajectory.csv", "density.csv"):
        assert (tmp_path / "r1" / name).read_bytes() == \
               (tmp_path / "r2" / name).read_bytes()
    assert _meta_without_noise(tmp_path / "r1" / "meta.json") == \
           _meta_without_noise(tmp_path / "r2" / "meta.json")


@pytest.mark.parametrize("command", ["compare", "sweep"])
def test_meta_times_the_compute_and_the_table_writes(tmp_path, command):
    """meta.json of a run, of a sweep and of each of its points holds the
    seconds spent computing (compute_s) and writing tables (write_s), parts
    of its wall time; a sweep's are the sums over its points plus its
    summary table's write."""
    sweep = "sweep: {parameter: physics.mu, values: [0.3, 0.6], experiment: compare}\n"
    cfg = _write(tmp_path, "c.yaml", "run: {steps: 200}\n" + (sweep if command == "sweep" else ""))
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 0
    metas = [read_meta(out / "meta.json")]
    if command == "sweep":
        metas += [read_meta(out / f"point_{i:03d}" / "meta.json") for i in range(2)]
        assert metas[0]["compute_s"] == sum(m["compute_s"] for m in metas[1:])
        assert metas[0]["write_s"] >= sum(m["write_s"] for m in metas[1:])
    for meta in metas:
        assert meta["compute_s"] >= 0.0 and meta["write_s"] >= 0.0
        assert meta["compute_s"] + meta["write_s"] <= meta["wall_time_s"]


def test_meta_echo_suffices_to_rerun(tmp_path):
    """Re-running from the echoed effective config reproduces the data."""
    import yaml
    cfg = _write(tmp_path, "c.yaml",
                 "experiment: learn\nphysics: {mu: 0.5}\nrun: {steps: 40}\n")
    assert main(["learn", "--config", cfg, "--out", str(tmp_path / "first"),
                 "--quiet"]) == 0
    effective = read_meta(tmp_path / "first" / "meta.json")["effective_config"]
    echo = _write(tmp_path, "echo.yaml", yaml.safe_dump(effective))
    assert main(["learn", "--config", echo, "--out", str(tmp_path / "second"),
                 "--quiet"]) == 0
    assert (tmp_path / "first" / "trajectory.csv").read_bytes() == \
           (tmp_path / "second" / "trajectory.csv").read_bytes()


def test_evolve_reruns_from_its_meta_to_the_same_bytes(tmp_path):
    """An evolve re-run from the effective config its meta.json echoes writes
    the same data files, byte for byte."""
    import yaml
    cfg = _write(tmp_path, "c.yaml",
                 "experiment: evolve\ngrid: {n: 512}\nphysics: {mu: 0.4, hbar: 0.8}\n"
                 "initial: {kind: coherent, x0: -3.0, u0: 0.3}\n"
                 "run: {dt: 5e-3, t_final: 0.25, snapshot_every: 20}\n")
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "first"),
                 "--quiet"]) == 0
    effective = read_meta(tmp_path / "first" / "meta.json")["effective_config"]
    echo = _write(tmp_path, "echo.yaml", yaml.safe_dump(effective))
    assert main(["evolve", "--config", echo, "--out", str(tmp_path / "second"),
                 "--quiet"]) == 0
    files = sorted(f.name for f in (tmp_path / "first").iterdir() if f.name != "meta.json")
    assert files == ["density.csv", "trajectory.csv"]
    assert files == sorted(f.name for f in (tmp_path / "second").iterdir()
                           if f.name != "meta.json")
    for name in files:
        assert (tmp_path / "first" / name).read_bytes() == \
               (tmp_path / "second" / name).read_bytes()


def test_json_format_mirror(tmp_path):
    out = tmp_path / "j"
    assert main(["learn", "--out", str(out), "--format", "json", "--quiet"]) == 0
    header, rows = read_table(out / "trajectory.json")
    assert header == ["t", "x", "u", "V", "dis"]
    assert rows.shape[1] == 5
    assert not (out / "trajectory.csv").exists()


# --- exit codes ----------------------------------------------------------------

def test_config_error_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.yaml", "experiment: learn\nphysics: {gamma: 1}\n")
    assert main(["learn", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    report = json.loads(capsys.readouterr().err)
    assert report["exit_code"] == 2
    assert "gamma" in report["error"]["message"]
    # the keys of a run failure's report too
    assert report["error"].keys() == {"type", "message", "step"}
    assert report["error"]["type"] == "ConfigError"


def test_missing_config_file_exit_2(tmp_path, capsys):
    assert main(["learn", "--config", str(tmp_path / "absent.yaml")]) == 2
    assert json.loads(capsys.readouterr().err)["status"] == "config_error"


# V = 1e307 x^2 is finite at the learner's start but overflows to inf on the
# grid beyond |x| = 4.24, so the first propagator step turns the state NaN
OVERFLOWING_POTENTIAL = "potential: {kind: polynomial, coefficients: [0.0, 0.0, 1.0e+307]}\n"


def test_numerical_failure_exit_3(tmp_path, capsys):
    cfg = _write(tmp_path, "c.yaml",
                 "experiment: evolve\n"
                 + OVERFLOWING_POTENTIAL
                 + "initial: {kind: gaussian, x0: 0.0}\n"
                 "run: {t_final: 0.1, dt: 0.01}\n"
                 "grid: {n: 256}\n")
    out = tmp_path / "nf"
    assert main(["evolve", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    report = json.loads(capsys.readouterr().err)
    assert report["exit_code"] == 3
    error = json.loads((out / "error.json").read_text())
    assert error["status"] == "numerical_failure"
    meta = read_meta(out / "meta.json")
    assert meta["status"] == "numerical_failure"
    assert meta["error"]["step"] == 1  # the first state after a step


def test_non_finite_disruptor_field_exit_3_with_step(tmp_path, capsys):
    cfg = _write(tmp_path, "c.yaml",
                 "experiment: learn\n"
                 + OVERFLOWING_POTENTIAL
                 + "initial: {kind: gaussian, x0: 0.0}\n"
                 "disruptor: {kind: field_sampled, pde_dt: 0.1}\n"
                 "run: {steps: 5}\n"
                 "grid: {n: 256}\n")
    out = tmp_path / "nf"
    assert main(["learn", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    report = json.loads(capsys.readouterr().err)
    assert report["error"]["step"] == 0
    error = json.loads((out / "error.json").read_text())["error"]
    assert error["type"] == "NumericalError"
    assert "non-finite wavefunction" in error["message"]
    assert "node-dominated" not in error["message"]


DIVERGING_LEARN = ("experiment: learn\n"
                   "physics: {mu: 0.0}\n"
                   "potential: {kind: polynomial, coefficients: [0, 0, -0.5]}\n"
                   "run: {steps: 300}\n")


def test_divergence_exit_4_with_partial_data(tmp_path, capsys):
    cfg = _write(tmp_path, "c.yaml", DIVERGING_LEARN)
    out = tmp_path / "div"
    assert main(["learn", "--config", cfg, "--out", str(out), "--quiet"]) == 4
    report = json.loads(capsys.readouterr().err)
    assert report["exit_code"] == 4
    _, rows = read_table(out / "trajectory.csv")  # partial data still written
    assert 1 < len(rows) < 301
    assert read_meta(out / "meta.json")["outcome"] == "diverged"
    assert (out / "error.json").exists()


DIVERGING_SWEEP = (DIVERGING_LEARN.replace("experiment: learn", "experiment: sweep")
                   + "sweep: {parameter: physics.mu, values: [0.0, 0.5], experiment: learn}\n")
FAILING_RUNS = {
    "numerical_sweep": ("sweep", 3, "experiment: sweep\n" + OVERFLOWING_POTENTIAL
                        + "initial: {kind: gaussian, x0: 0.0}\n"
                        "run: {t_final: 0.1, dt: 0.01}\ngrid: {n: 256}\n"
                        "sweep: {parameter: physics.mu, values: [0.5, 1.0], "
                        "experiment: evolve}\n"),
    "diverging_sweep": ("sweep", 4, DIVERGING_SWEEP),
    "diverging_learn": ("learn", 4, DIVERGING_LEARN),
}


@pytest.mark.parametrize("name", FAILING_RUNS)
def test_a_failure_has_one_report_in_error_json_meta_and_stderr(tmp_path, capsys, name):
    """stderr's one line is the error.json object, whose error is meta.json's.
    A divergence's step is the steps_taken of the run that left the stable
    region; a sweep's error is that of its first point to fail as the sweep
    did, names every failed point, and each failed point holds its own
    error.json."""
    command, code, text = FAILING_RUNS[name]
    cfg = _write(tmp_path, "c.yaml", text)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    report = json.loads((out / "error.json").read_text())
    assert json.loads(lines[0]) == report
    meta = read_meta(out / "meta.json")
    assert report == {"exit_code": code, "status": meta["status"], "error": meta["error"]}
    error = report["error"]
    assert set(error) == {"type", "message", "step"}
    run = meta
    if command == "sweep":
        assert [p["exit_code"] for p in meta["points"]] == [code, code]
        assert error["message"].startswith("sweep points 0, 1 of 2 failed; point 0 ")
        run = meta["points"][0]
        assert error == {**run["error"], "message": error["message"]}
        assert error["message"].endswith(run["error"]["message"])
        for point in meta["points"]:
            assert json.loads((out / point["directory"] / "error.json").read_text()) == {
                "exit_code": code, "status": meta["status"], "error": point["error"]}
    if code == 3:
        assert error["type"] == "NumericalError"
        assert error["step"] == 1
    else:
        assert error["type"] == "Divergence"
        assert error["step"] == run["steps_taken"] > 0
        assert f"at step {run['steps_taken']}:" in error["message"]


def test_compare_divergence_names_the_first_twin_to_leave(tmp_path, capsys):
    """Both twins of a zero-disruptor compare leave together; the report
    names the quantum learner and the step of its last row."""
    cfg = _write(tmp_path, "c.yaml", DIVERGING_LEARN.replace("learn", "compare"))
    out = tmp_path / "o"
    assert main(["compare", "--config", cfg, "--out", str(out), "--quiet"]) == 4
    meta = read_meta(out / "meta.json")
    assert json.loads(capsys.readouterr().err)["error"] == meta["error"]
    assert meta["error"]["message"].startswith("the quantum learner left the stable region")
    _, rows = read_table(out / "trajectory_quantum.csv")
    assert meta["error"]["step"] == meta["quantum"]["steps_taken"] == rows[-1, 0]


def test_successful_run_removes_an_earlier_error_report(tmp_path):
    """A directory describes the last run only: exit 0 drops a stale error.json."""
    out = tmp_path / "same"
    cfg = _write(tmp_path, "c.yaml", DIVERGING_LEARN)
    assert main(["learn", "--config", cfg, "--out", str(out), "--quiet"]) == 4
    assert (out / "error.json").exists()
    assert main(["learn", "--out", str(out), "--quiet"]) == 0
    assert read_meta(out / "meta.json")["status"] == "ok"
    assert not (out / "error.json").exists()


def test_config_error_leaves_no_report_of_an_earlier_run(tmp_path, capsys):
    """A run that fails to build its initial state (exit 2) writes no report,
    and leaves none from the run before it in the same directory."""
    out = tmp_path / "same"
    cfg = _write(tmp_path, "c.yaml", DIVERGING_LEARN)
    assert main(["learn", "--config", cfg, "--out", str(out), "--quiet"]) == 4
    assert (out / "meta.json").exists() and (out / "error.json").exists()
    table = tmp_path / "zero.csv"
    table.write_text("x,re,im\n-1.0,0.0,0.0\n1.0,0.0,0.0\n")
    cfg = _write(tmp_path, "z.yaml",
                 "experiment: learn\n"
                 f"initial: {{kind: custom, path: {json.dumps(str(table))}}}\n"
                 "disruptor: {kind: field_sampled}\n")
    assert main(["learn", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["status"] == "config_error"
    assert not (out / "meta.json").exists()
    assert not (out / "error.json").exists()


def test_failed_run_removes_an_earlier_runs_data_files(tmp_path, capsys):
    """A run that fails before it writes anything (exit 2) leaves none of the
    data files an earlier run listed in its meta.json; files that list does
    not name stay."""
    out = tmp_path / "same"
    cfg = _write(tmp_path, "c.yaml", DIVERGING_LEARN)
    assert main(["learn", "--config", cfg, "--out", str(out), "--quiet"]) == 4
    assert read_meta(out / "meta.json")["files"] == ["trajectory.csv"]
    (out / "notes.txt").write_text("kept\n")
    (out / "point_000").mkdir()
    table = tmp_path / "zero.csv"
    table.write_text("x,re,im\n-1.0,0.0,0.0\n1.0,0.0,0.0\n")
    cfg = _write(tmp_path, "z.yaml",
                 "experiment: learn\n"
                 f"initial: {{kind: custom, path: {json.dumps(str(table))}}}\n"
                 "disruptor: {kind: field_sampled}\n")
    assert main(["learn", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    capsys.readouterr()
    assert sorted(p.name for p in out.iterdir()) == ["notes.txt", "point_000"]


def test_earlier_meta_names_only_files_inside_the_directory(tmp_path):
    """Names in an earlier meta.json that are not plain table file names are
    left alone; an unreadable meta.json is simply replaced."""
    out = tmp_path / "same"
    out.mkdir()
    (tmp_path / "outside.csv").write_text("kept\n")
    (out / "sub").mkdir()
    (out / "sub" / "inner.csv").write_text("kept\n")
    (out / "notes.txt").write_text("kept\n")
    (out / "meta.json").write_text(json.dumps(
        {"files": ["../outside.csv", "sub/inner.csv", "notes.txt", "..", 7]}))
    assert main(["learn", "--out", str(out), "--quiet"]) == 0
    assert (tmp_path / "outside.csv").exists() and (out / "sub" / "inner.csv").exists()
    assert (out / "notes.txt").exists()
    (out / "meta.json").write_text("{not json")
    assert main(["learn", "--out", str(out), "--quiet"]) == 0
    assert read_meta(out / "meta.json")["status"] == "ok"


@pytest.mark.parametrize("experiment,config,key", [
    ("evolve", "run: {scheme: crank_nicolson, t_final: 0.01}\n", "'run.scheme'"),
    ("learn", "disruptor: {kind: field_sampled}\nrun: {scheme: crank_nicolson, steps: 3}\n",
     "'run.scheme'"),
    ("evolve", "physics: {hbar: 0.0}\nrun: {t_final: 0.01}\n", "'physics.hbar'"),
    ("evolve", "grid: {n: 1000}\nrun: {t_final: 0.01}\n", "'grid.n'"),
    ("evolve", "grid: {periodic: false}\nrun: {t_final: 0.01}\n", "'grid.periodic'"),
    ("learn", "grid: {periodic: false}\ndisruptor: {kind: zero}\n", "'grid.periodic'"),
    ("sweep", "run: {t_final: 0.01}\n"
     "sweep: {parameter: physics.hbar, values: [1.0, 0.0], experiment: evolve}\n",
     "'physics.hbar'"),
], ids=["crank_nicolson_periodic_evolve", "crank_nicolson_field_sampled_learn",
        "hbar_0_evolve", "split_step_non_power_of_two", "non_periodic_evolve",
        "non_periodic_learn", "hbar_0_sweep_point"])
def test_propagator_settings_that_cannot_run_exit_2(tmp_path, capsys, experiment, config,
                                                     key):
    """Settings the propagator cannot run with are config errors naming the
    key, found before any point computes.  A scheme other than the split
    step and an open grid are rejected when the config is parsed, for every
    experiment, the others when the run starts; the output directory is made
    first so that both can be seen to leave it empty."""
    cfg = _write(tmp_path, "c.yaml", f"experiment: {experiment}\n{config}")
    out = tmp_path / "o"
    out.mkdir()
    assert main([experiment, "--config", cfg, "--out", str(out), "--quiet"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert (report["exit_code"], report["status"]) == (2, "config_error")
    assert key in report["error"]["message"]
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("experiment,config", [
    ("evolve", "run: {t_final: 0.01}\n"),
    ("learn", "run: {steps: 5}\n"),
    ("sweep", "run: {steps: 5}\n"
     "sweep: {parameter: physics.mu, values: [0.2, 0.4], experiment: compare}\n"),
], ids=["evolve", "learn", "sweep"])
def test_coherent_state_with_a_width_exit_2(tmp_path, capsys, experiment, config):
    """A coherent state has the trap's ground-state width, so a configured
    width is a config error naming the key, found before anything computes
    (a sweep's, when its points are prepared), not a width left unused."""
    cfg = _write(tmp_path, "c.yaml", f"experiment: {experiment}\n"
                 "initial: {kind: coherent, x0: -5.0, sigma: 2.0}\n" + config)
    out = tmp_path / "o"
    out.mkdir()
    assert main([experiment, "--config", cfg, "--out", str(out), "--quiet"]) == 2
    report = json.loads(capsys.readouterr().err)
    assert (report["exit_code"], report["status"]) == (2, "config_error")
    assert "'initial.sigma'" in report["error"]["message"]
    assert list(out.iterdir()) == []


def _count_point_computations(monkeypatch):
    """Wrap the sweep's per-point compute; the returned list grows per call."""
    calls = []
    compute = experiments._compute_point

    def counted(run):
        calls.append(run)
        return compute(run)

    monkeypatch.setattr(experiments, "_compute_point", counted)
    return calls


SWEEPS_WITH_A_BAD_POINT = [
    ("run: {t_final: 0.01}\n"
     "sweep: {parameter: initial.x0, values: [-1.0, -30.0], experiment: evolve}\n",
     "sweep value -30.0 for initial.x0: initial: cannot build the coherent state"),
    ("run: {steps: 5}\n"
     "sweep: {parameter: potential.omega, values: [1.0, -1.0], experiment: learn}\n",
     "sweep value -1.0 for potential.omega: potential:"),
    ("potential: {kind: quartic, c: 1.0}\n"
     "initial: {kind: gaussian, x0: -1.0}\nrun: {steps: 5}\n"
     "sweep: {parameter: potential.c, values: [1.0, 0.0], experiment: compare}\n",
     "sweep value 0.0 for potential.c: potential:"),
]
SWEEP_IDS = ["coherent_x0_off_the_grid", "negative_omega", "zero_quartic_c"]


@pytest.mark.parametrize("config,message", SWEEPS_WITH_A_BAD_POINT, ids=SWEEP_IDS)
def test_sweep_point_that_cannot_be_built_exits_2_before_any_point_computes(
        tmp_path, capsys, monkeypatch, config, message):
    """A point whose potential or initial state cannot be built is a config
    error naming the sweep value, found while the points are prepared: no
    point computes, nothing is written and stderr carries the one report."""
    calls = _count_point_computations(monkeypatch)
    cfg = _write(tmp_path, "c.yaml", "experiment: sweep\n" + config)
    out = tmp_path / "o"
    out.mkdir()
    assert main(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert (report["exit_code"], report["status"]) == (2, "config_error")
    assert message in report["error"]["message"]
    assert calls == []
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("config,message", SWEEPS_WITH_A_BAD_POINT, ids=SWEEP_IDS)
def test_sweep_validation_raises_before_any_point_computes(tmp_path, monkeypatch, config,
                                                           message):
    """The same through the package API: run_experiment raises ConfigError."""
    calls = _count_point_computations(monkeypatch)
    cfg = parse_config("experiment: sweep\n" + config)
    with pytest.raises(ConfigError, match=re.escape(message)):
        run_experiment(cfg, out_dir=tmp_path / "o")
    assert calls == []


def _count_builds(monkeypatch):
    """Wrap what builds a run's inputs: the read of a custom initial table,
    the initial state and the potential, by its four constructors, so a build
    while the config is parsed counts too.  The returned dict counts calls."""
    counts = {"table": 0, "psi0": 0, "potential": 0}

    def counted(key, build):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return build(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(experiments, "read_table", counted("table", experiments.read_table))
    monkeypatch.setattr(experiments, "_initial_wavefunction",
                        counted("psi0", experiments._initial_wavefunction))
    for kind in ("harmonic", "quartic", "polynomial", "tabulated"):
        monkeypatch.setattr(PotentialSpec, kind, counted("potential", getattr(PotentialSpec, kind)))
    return counts


FIELD_SAMPLED = "disruptor: {kind: field_sampled}\n"


@pytest.mark.parametrize("experiment,config,states,potentials", [
    ("learn", FIELD_SAMPLED + "run: {steps: 10}\n", 1, 1),
    ("evolve", "run: {t_final: 0.2}\n", 1, 1),
    ("compare", FIELD_SAMPLED + "run: {steps: 10}\n", 1, 1),
    ("figure1", FIELD_SAMPLED + "run: {steps: 10, t_final: 0.2}\n", 1, 1),
    ("sweep", FIELD_SAMPLED + "run: {steps: 10}\n"
     "sweep: {parameter: physics.mu, values: [0.2, 0.4, 0.6], experiment: learn}\n", 3, 1),
    ("sweep", "run: {steps: 10}\n"
     "sweep: {parameter: physics.mu, values: [0.2, 0.4, 0.6, 0.8], experiment: compare}\n",
     0, 1),
    ("sweep", "potential: {kind: harmonic, omega: 1.0}\nrun: {steps: 10}\n"
     "sweep: {parameter: potential.omega, values: [0.5, 1.5, 2.0], experiment: learn}\n",
     0, 1 + 3),
], ids=["learn", "evolve", "compare", "figure1", "field_sampled_learn_sweep",
        "zero_disruptor_compare_sweep", "potential_omega_sweep"])
def test_a_run_builds_its_potential_and_initial_state_once(tmp_path, monkeypatch, experiment,
                                                           config, states, potentials):
    """Parsing a config builds its potential, preparing a run builds its
    initial state if it propagates a wave, and the compute uses what they
    built: a run from a custom table reads the table once, figure1's PDE and
    field-sampled learner share one state, a sweep builds one state per point
    and shares the parsed potential, and a sweep over a potential key builds
    one more potential per point."""
    x = np.linspace(-20.0, 20.0, 401)
    table = tmp_path / "seed.csv"
    np.savetxt(table, np.column_stack([x, np.exp(-(x + 3.0) ** 2 / 2.0), 0.0 * x]),
               delimiter=",", header="x,re,im", comments="")
    cfg = _write(tmp_path, "c.yaml", f"experiment: {experiment}\n"
                 "grid: {x_min: -20.0, x_max: 20.0, n: 256}\n"
                 f"initial: {{kind: custom, path: {json.dumps(str(table))}, x0: -3.0}}\n"
                 + config)
    counts = _count_builds(monkeypatch)
    assert main([experiment, "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert counts == {"table": states, "psi0": states, "potential": potentials}


# m * u0 overflows to inf although m and u0 are finite
OVERFLOWING_MOMENTUM = "initial: {kind: gaussian, x0: -3.0, u0: 1.0e+10}\n"
RUNS_WITH_AN_OVERFLOWING_MOMENTUM = [
    ("evolve", "physics: {m: 1.0e+300}\nrun: {t_final: 0.01}\n", ""),
    ("learn", "physics: {m: 1.0e+300}\ndisruptor: {kind: field_sampled}\nrun: {steps: 5}\n",
     ""),
    ("sweep", "run: {t_final: 0.01}\n"
     "sweep: {parameter: physics.m, values: [1.0, 1.0e+300], experiment: evolve}\n",
     "sweep value 1e+300 for physics.m: "),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command,config,prefix", RUNS_WITH_AN_OVERFLOWING_MOMENTUM,
                         ids=["evolve", "field_sampled_learn", "sweep_point"])
def test_overflowing_momentum_is_a_config_error_naming_both_keys(
        tmp_path, capsys, monkeypatch, command, config, prefix):
    """A run that builds a Gaussian whose momentum p0 = m u0 is not finite
    exits 2 before any point computes, naming physics.m and initial.u0 (and,
    in a sweep, the swept value), and stderr carries the one report: no numpy
    warning comes before it."""
    calls = _count_point_computations(monkeypatch)
    cfg = _write(tmp_path, "c.yaml", OVERFLOWING_MOMENTUM + config)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    message = json.loads(lines[0])["error"]["message"]
    assert message.startswith(prefix + "'physics.m' = 1e+300 and 'initial.u0' = 10000000000.0 ")
    assert "p0 = m * u0 = inf" in message
    assert calls == []
    assert list(out.iterdir()) == []


def test_learner_only_run_forms_no_momentum(tmp_path):
    """A zero-disruptor learn builds no wave, so the momentum that overflows
    above is never formed and the run goes ahead."""
    cfg = _write(tmp_path, "c.yaml", OVERFLOWING_MOMENTUM
                 + "experiment: learn\nphysics: {m: 1.0e+300}\nrun: {steps: 5}\n")
    assert main(["learn", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0


def test_rejected_scheme_says_it_is_gone(tmp_path, capsys):
    cfg = _write(tmp_path, "c.yaml", "run: {scheme: crank_nicolson}\n")
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert "'run.scheme'" in message and "no longer in the package" in message


def test_rejected_open_grid_says_it_is_gone(tmp_path, capsys):
    cfg = _write(tmp_path, "c.yaml", "grid: {periodic: false}\n")
    assert main(["learn", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert "'grid.periodic'" in message and "the grid is periodic" in message
    assert "open grids are no longer in the package" in message


@pytest.mark.parametrize("grid,message", [
    ("{x_min: 1.0, x_max: -1.0}", "grid: x_max must exceed x_min, got [1.0, -1.0]"),
    ("{n: 4}", "grid: grid needs at least 8 points, got 4"),
], ids=["reversed", "too_few_points"])
def test_grid_the_type_refuses_exits_2(tmp_path, capsys, grid, message):
    cfg = _write(tmp_path, "c.yaml", f"grid: {grid}\n")
    assert main(["learn", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    report = json.loads(capsys.readouterr().err)
    assert report["exit_code"] == 2
    assert report["error"] == {"type": "ConfigError", "message": message, "step": None}


def test_learner_only_run_keeps_hbar_0(tmp_path):
    """hbar = 0 switches a field-sampled disruptor off; nothing is propagated."""
    cfg = _write(tmp_path, "c.yaml",
                 "experiment: learn\nphysics: {hbar: 0.0}\n"
                 "disruptor: {kind: field_sampled}\nrun: {steps: 20}\n")
    out = tmp_path / "o"
    assert main(["learn", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    _, rows = read_table(out / "trajectory.csv")
    assert np.all(rows[:, 4] == 0.0)


def test_field_sampled_at_hbar_0_is_the_zero_disruptor_run(tmp_path):
    """At hbar = 0 a field-sampled learn builds no wave, so an initial state
    that needs hbar > 0 (a gaussian's phase) does not stop it, and its
    trajectory equals the zero-disruptor run's byte for byte."""
    base = ("experiment: learn\nphysics: {hbar: 0.0, mu: 0.4}\n"
            "initial: {kind: gaussian, x0: -3.0, u0: 0.2}\nrun: {steps: 40}\n")
    for kind in ("field_sampled", "zero"):
        cfg = _write(tmp_path, f"{kind}.yaml", base + f"disruptor: {{kind: {kind}}}\n")
        assert main(["learn", "--config", cfg, "--out", str(tmp_path / kind), "--quiet"]) == 0
    _, rows = read_table(tmp_path / "field_sampled" / "trajectory.csv")
    assert np.all(rows[:, 4] == 0.0)
    assert (tmp_path / "field_sampled" / "trajectory.csv").read_bytes() == \
           (tmp_path / "zero" / "trajectory.csv").read_bytes()


@pytest.mark.parametrize("initial,table,message", [
    ("{kind: custom, path: TABLE}", "x,re,im\n-1.0,0.0,0.0\n0.0,0.0,0.0\n1.0,0.0,0.0\n",
     "cannot normalize a zero wavefunction"),
    ("{kind: custom, path: TABLE}", "x,re,im\n-1.0,nan,0.0\n0.0,1.0,0.0\n1.0,0.5,0.0\n",
     "cannot normalize a wavefunction of non-finite norm nan"),
    ("{kind: coherent, x0: -19.0}", None, "too narrow for a packet at x_t=-19"),
    ("{kind: custom, path: TABLE}", "x,re,im\n-1.0,0.5,0.0\n0.0,one,0.0\n1.0,0.5,0.0\n",
     "could not convert string to float"),
    ("{kind: custom, path: TABLE}", "x,re,im\n", "has a header but no data rows"),
    ("{kind: custom, path: TABLE}", "x,re,im\n-1.0,0.5\n0.0,1.0\n1.0,0.5\n",
     "needs rows of three values x,re,im, got shape (3, 2)"),
    ("{kind: custom, path: TABLE}", "", "is empty"),
    # np.interp does not check its sample points: a reversed table ran, flat at 1/40
    ("{kind: custom, path: TABLE}", "x,re,im\n1.0,0.6,0.0\n0.0,1.0,0.0\n-1.0,0.6,0.0\n",
     "x samples must be strictly increasing"),
    ("{kind: custom, path: TABLE}", "x,re,im\n-1.0,0.6,0.0\n0.0,1.0,0.0\n0.0,0.8,0.0\n",
     "x samples must be strictly increasing"),
    # a table whose x range holds no grid point: off the grid, or inside one
    # cell (the grid steps 0.15625 from -20)
    ("{kind: custom, path: TABLE}", "x,re,im\n30.0,1.0,0.0\n31.0,1.0,0.0\n",
     "its x range [30.0, 31.0] holds no point of the grid [-20.0, 20.0] of 256 points"),
    ("{kind: custom, path: TABLE}", "x,re,im\n0.01,1.0,0.0\n0.1,1.0,0.0\n",
     "its x range [0.01, 0.1] holds no point of the grid [-20.0, 20.0] of 256 points"),
], ids=["all_zero_custom", "nan_custom", "coherent_off_the_grid", "non_numeric_custom",
        "header_only_custom", "two_column_custom", "empty_custom", "reversed_x_custom",
        "repeated_x_custom", "off_grid_custom", "inside_a_cell_custom"])
def test_unbuildable_initial_state_exit_2(tmp_path, capsys, initial, table, message):
    if table is not None:
        path = tmp_path / "seed.csv"
        path.write_text(table)
        initial = initial.replace("TABLE", json.dumps(str(path)))
    cfg = _write(tmp_path, "c.yaml",
                 "experiment: evolve\n"
                 "grid: {x_min: -20.0, x_max: 20.0, n: 256, periodic: true}\n"
                 "potential: {kind: harmonic, omega: 1.0}\n"
                 f"initial: {initial}\n"
                 "run: {t_final: 0.1, dt: 0.01}\n")
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert report["exit_code"] == 2
    assert report["status"] == "config_error"
    assert report["error"]["message"].startswith("initial:")
    assert message in report["error"]["message"]


def test_a_custom_table_is_zero_outside_its_x_range(tmp_path):
    """A custom table's amplitude is 0 on the grid points outside its x range
    (np.interp alone repeats its end values there: this table's ends,
    0.2 -/+ 0.2i, put 0.544 of the norm at |x| > 2), and a table covering the
    grid keeps the bits of plain linear interpolation."""
    grid = "grid: {x_min: -20.0, x_max: 20.0, n: 256}\n"
    narrow = np.linspace(-2.0, 2.0, 41)
    wide = np.linspace(-20.0, 20.0, 401)
    for name, xs in (("narrow", narrow), ("wide", wide)):
        table = np.column_stack([xs, np.maximum(1.0 - 0.2 * xs ** 2, 0.0), 0.1 * xs])
        np.savetxt(tmp_path / f"{name}.csv", table, delimiter=",", header="x,re,im",
                   comments="")
    cfg = parse_config("experiment: evolve\n" + grid + "initial: {kind: custom, path: "
                       f"{json.dumps(str(tmp_path / 'narrow.csv'))}}}\n")
    psi = experiments._initial_wavefunction(cfg)
    outside = np.abs(cfg.grid.x) > 2.0
    assert outside.sum() > 200 and np.all(psi.values[outside] == 0.0)
    assert np.all(psi.values[~outside] != 0.0)

    cfg = parse_config("experiment: evolve\n" + grid + "initial: {kind: custom, path: "
                       f"{json.dumps(str(tmp_path / 'wide.csv'))}}}\n")
    _, rows = read_table(tmp_path / "wide.csv")
    interpolated = (np.interp(cfg.grid.x, rows[:, 0], rows[:, 1])
                    + 1j * np.interp(cfg.grid.x, rows[:, 0], rows[:, 2]))
    expected = Wavefunction(interpolated, cfg.grid).normalized().values
    assert np.array_equal(experiments._initial_wavefunction(cfg).values.view(np.uint64),
                          expected.view(np.uint64))


def test_a_field_sampled_run_records_its_substep(tmp_path):
    """pde_dt bounds the propagator's substep: 0.7 takes two substeps of 0.5
    per unit macro-step, recorded in meta.json (of a learn, and of a compare's
    quantum learner)."""
    base = ("grid: {x_min: -10.0, x_max: 10.0, n: 256}\n"
            "initial: {kind: gaussian, x0: -2.0, sigma: 1.0}\n"
            "disruptor: {kind: field_sampled, pde_dt: 0.7}\nrun: {steps: 3}\n")
    learn = run_experiment(parse_config("experiment: learn\n" + base), out_dir=tmp_path / "l")
    assert learn.exit_code == 0
    assert read_meta(tmp_path / "l" / "meta.json")["pde_substep"] == 0.5
    compare = run_experiment(parse_config("experiment: compare\n" + base),
                             out_dir=tmp_path / "c")
    assert compare.meta["quantum"]["pde_substep"] == 0.5
    assert "pde_substep" not in compare.meta["classical"]


@pytest.mark.parametrize("payload,message", [
    ('{"rows": [[-1.0, 0.5, 0.0], [1.0, 0.5, 0.0]]}', "needs the keys header and rows"),
    ('{"header": ["x", "re", "im"], "rows": 5}', "got shape ()"),
], ids=["no_header", "scalar_rows"])
def test_malformed_json_initial_table_exit_2(tmp_path, capsys, payload, message):
    path = tmp_path / "seed.json"
    path.write_text(payload)
    cfg = _write(tmp_path, "c.yaml",
                 "experiment: evolve\n"
                 f"initial: {{kind: custom, path: {json.dumps(str(path))}}}\n"
                 "run: {t_final: 0.01, dt: 0.01}\n"
                 "grid: {n: 256}\n")
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    report = json.loads(capsys.readouterr().err)
    assert report["status"] == "config_error"
    assert message in report["error"]["message"]


def test_learner_leaving_the_grid_is_a_divergence(tmp_path, capsys):
    """A field-sampled learner thrown off the grid ends as exit 4, not a crash."""
    cfg = _write(tmp_path, "c.yaml",
                 "experiment: learn\n"
                 "grid: {x_min: -20.0, x_max: 20.0, n: 2048, periodic: true}\n"
                 "physics: {m: 1.0, mu: 0.1}\n"
                 "potential: {kind: harmonic, omega: 1.0}\n"
                 "initial: {kind: gaussian, x0: -3.5, u0: 0.0, sigma: 0.9}\n"
                 "disruptor: {kind: field_sampled, pde_dt: 0.01}\n"
                 "run: {steps: 30}\n")
    out = tmp_path / "off"
    assert main(["learn", "--config", cfg, "--out", str(out), "--quiet"]) == 4
    report = json.loads(capsys.readouterr().err)
    assert report["exit_code"] == 4
    assert report["status"] == "diverged"
    _, rows = read_table(out / "trajectory.csv")  # partial data still written
    assert 1 < len(rows) < 31
    assert np.all(np.abs(rows[:-1, 1]) <= 20.0)   # on the grid until the last row
    assert abs(rows[-1, 1]) > 20.0
    assert read_meta(out / "meta.json")["outcome"] == "diverged"
    assert json.loads((out / "error.json").read_text())["exit_code"] == 4


OFF_THE_GRID = ("initial: {kind: gaussian, x0: 25.0}\n"
                "disruptor: {kind: field_sampled}\nrun: {steps: 5}\n")


@pytest.mark.parametrize("experiment", ["learn", "compare", "figure1"])
def test_field_sampled_learner_starting_off_the_grid_exits_2(tmp_path, capsys, experiment):
    """The disruptor lives on the grid [-20, 20], so a learner sampling it
    cannot start at 25: a config error naming the key, before any compute."""
    cfg = _write(tmp_path, "c.yaml", OFF_THE_GRID)
    out = tmp_path / "o"
    assert main([experiment, "--config", cfg, "--out", str(out), "--quiet"]) == 2
    report = json.loads(capsys.readouterr().err)
    assert (report["exit_code"], report["status"]) == (2, "config_error")
    assert report["error"]["message"].startswith("'initial.x0'")
    assert "x0=25.0" in report["error"]["message"]
    assert list(out.iterdir()) == []


def test_sweep_with_a_field_sampled_point_off_the_grid_exits_2(tmp_path, capsys,
                                                                monkeypatch):
    calls = _count_point_computations(monkeypatch)
    cfg = _write(tmp_path, "c.yaml", "experiment: sweep\n" + OFF_THE_GRID
                 + "sweep: {parameter: initial.x0, values: [-3.0, 25.0]}\n")
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    report = json.loads(capsys.readouterr().err)
    assert (report["exit_code"], report["status"]) == (2, "config_error")
    assert report["error"]["message"].startswith("sweep value 25.0 for initial.x0: 'initial.x0'")
    assert calls == []
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("extra", ["disruptor: {kind: zero}",
                                   "disruptor: {kind: field_sampled}\nphysics: {hbar: 0.0}"],
                         ids=["zero", "field_sampled_at_hbar_0"])
def test_learner_without_a_field_keeps_any_start(tmp_path, extra):
    cfg = _write(tmp_path, "c.yaml", "initial: {kind: gaussian, x0: 25.0}\n"
                 f"run: {{steps: 5}}\n{extra}\n")
    assert main(["learn", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0


# --- documented examples -------------------------------------------------------

def test_compare_with_zero_disruptor_is_identical(tmp_path):
    out = tmp_path / "cmp"
    cfg = _write(tmp_path, "c.yaml",
                 "experiment: compare\nphysics: {m: 1.6, mu: 0.3}\nrun: {steps: 500}\n")
    assert main(["compare", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    _, diff = read_table(out / "difference.csv")
    assert np.max(np.abs(diff[:, 1])) == 0.0
    assert np.max(np.abs(diff[:, 2])) == 0.0
    assert read_meta(out / "meta.json")["max_abs_x_difference"] == 0.0
    # the quantum learner is heavy-ball descent to the bit, so the twins'
    # files are the same bytes
    assert ((out / "trajectory_quantum.csv").read_bytes()
            == (out / "trajectory_classical.csv").read_bytes())


def test_evolve_tracks_damped_oscillator(tmp_path):
    cfg = _write(tmp_path, "c.yaml",
                 "experiment: evolve\n"
                 "physics: {mu: 0.5}\n"
                 "grid: {n: 1024}\n"
                 "run: {t_final: 10.0, dt: 0.002}\n")
    out = tmp_path / "ev"
    assert main(["evolve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    _, rows = read_table(out / "trajectory.csv")
    exact = np.array([damped_oscillator_closed_form(-5.0, 0.0, 0.5, 1.0, t)[0]
                      for t in rows[:, 0]])
    assert np.max(np.abs(rows[:, 1] - exact)) < 1e-3


def test_sweep_layout_and_ordering(tmp_path):
    cfg = _write(tmp_path, "c.yaml",
                 "experiment: sweep\n"
                 "run: {steps: 120}\n"
                 "sweep: {parameter: physics.mu, values: [0.25, 0.5, 1.0], "
                 "experiment: learn}\n")
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    header, summary = read_table(out / "sweep_summary.csv")
    assert header == ["index", "value", "exit_code", "steps", "final_x", "final_u"]
    assert list(summary[:, 0]) == [0.0, 1.0, 2.0]
    assert list(summary[:, 1]) == [0.25, 0.5, 1.0]   # deterministic config order
    assert np.all(summary[:, 2] == 0.0)
    # index, exit_code and steps are written as integers, the rest as %.17e
    lines = (out / "sweep_summary.csv").read_text().splitlines()[1:]
    for i, line in enumerate(lines):
        index, value, code, steps, final_x, final_u = line.split(",")
        assert (index, code) == (str(i), "0")
        assert steps == str(int(summary[i, 3])) and steps.isdigit()
        assert all("e" in v for v in (value, final_x, final_u))
    for i, mu in enumerate((0.25, 0.5, 1.0)):
        point = out / f"point_{i:03d}"
        assert (point / "trajectory.csv").exists()
        meta = read_meta(point / "meta.json")
        assert meta["effective_config"]["physics"]["mu"] == mu


def test_sweep_removes_an_earlier_sweeps_extra_points(tmp_path):
    """A 2-point sweep after a 4-point one into the same directory leaves no
    point_002 or point_003 behind.  A point directory holding a file no run
    wrote loses only what its meta.json lists, and stays."""
    out = tmp_path / "sw"
    for values in ("[0.003, 0.006, 0.009, 0.012]", "[0.5, 1.0]"):
        cfg = _write(tmp_path, "c.yaml",
                     "experiment: sweep\nrun: {steps: 30}\n"
                     f"sweep: {{parameter: physics.mu, values: {values}, "
                     "experiment: compare}\n")
        if values == "[0.5, 1.0]":
            (out / "point_003" / "notes.txt").write_text("kept\n")
        assert main(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert len(read_meta(out / "meta.json")["points"]) == 2
    assert sorted(p.name for p in out.iterdir()) == [
        "meta.json", "point_000", "point_001", "point_003", "sweep_summary.csv"]
    assert [p.name for p in (out / "point_003").iterdir()] == ["notes.txt"]
    assert read_meta(out / "point_001" / "meta.json")["effective_config"]["physics"]["mu"] == 1.0


def test_sweep_summary_json_integer_columns(tmp_path):
    cfg = _write(tmp_path, "c.yaml",
                 "experiment: sweep\n"
                 "run: {steps: 30}\n"
                 "sweep: {parameter: physics.mu, values: [0.5, 1.0], "
                 "experiment: learn}\n")
    out = tmp_path / "swj"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--format", "json",
                 "--quiet"]) == 0
    text = (out / "sweep_summary.json").read_text()
    rows = json.loads(text)["rows"]
    for i, row in enumerate(rows):
        assert [type(v) for v in row] == [int, float, int, int, float, float]
        assert row[0] == i and row[2] == 0 and row[3] > 0
    assert '"rows": [\n  [\n   0,\n   0.5,\n   0,\n' in text


def test_evolve_sweep_summary_holds_each_points_last_trajectory_row(tmp_path):
    """An evolve point's summary row is steps -1 and its trajectory's last
    <x> and <p>/m, at any mass."""
    cfg = _write(tmp_path, "c.yaml",
                 "experiment: sweep\ngrid: {n: 512}\n"
                 "run: {t_final: 0.5, dt: 0.005, snapshot_every: 50}\n"
                 "sweep: {parameter: physics.m, values: [1.0, 4.0], experiment: evolve}\n")
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    _, summary = read_table(out / "sweep_summary.csv")
    for i in range(2):
        _, trajectory = read_table(out / f"point_{i:03d}" / "trajectory.csv")
        assert summary[i, 3] == -1
        assert list(summary[i, 4:]) == list(trajectory[-1, 1:3]), i


def test_sweep_determinism(tmp_path):
    cfg = _write(tmp_path, "c.yaml",
                 "experiment: sweep\n"
                 "run: {steps: 60}\n"
                 "sweep: {parameter: initial.x0, values: [-5.0, -2.5, 1.0, 3.0]}\n")
    for d in ("s1", "s2"):
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / d),
                     "--quiet"]) == 0
    assert (tmp_path / "s1" / "sweep_summary.csv").read_bytes() == \
           (tmp_path / "s2" / "sweep_summary.csv").read_bytes()
    for i in range(4):
        assert (tmp_path / "s1" / f"point_{i:03d}" / "trajectory.csv").read_bytes() == \
               (tmp_path / "s2" / f"point_{i:03d}" / "trajectory.csv").read_bytes()


def test_each_sweep_point_writes_the_bytes_of_its_compare_alone(tmp_path):
    """The points of a compare sweep share their time axis's text; each
    point's data files still equal, byte for byte, those of a compare run
    alone from the effective config of that point's meta.json."""
    import yaml
    cfg = _write(tmp_path, "c.yaml",
                 "experiment: sweep\nphysics: {m: 20.0}\n"
                 "potential: {kind: polynomial, coefficients: [0.0, 0.0, -0.5, 0.0, 0.25]}\n"
                 "initial: {kind: gaussian, x0: -1.6}\n"
                 "run: {steps: 2000, stop_tol: 1.0e-200}\n"
                 "sweep: {parameter: physics.mu, values: [0.004, 0.008, 0.012], "
                 "experiment: compare}\n")
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    files = ["difference.csv", "trajectory_classical.csv", "trajectory_quantum.csv"]
    for i in range(3):
        point = out / f"point_{i:03d}"
        effective = read_meta(point / "meta.json")["effective_config"]
        echo = _write(tmp_path, f"point_{i}.yaml", yaml.safe_dump(effective))
        alone = tmp_path / f"alone_{i}"
        assert main(["compare", "--config", echo, "--out", str(alone), "--quiet"]) == 0
        for d in (point, alone):
            assert sorted(f.name for f in d.iterdir() if f.name != "meta.json") == files
        for name in files:
            assert (point / name).read_bytes() == (alone / name).read_bytes(), (i, name)


def test_each_failed_sweep_point_writes_the_files_of_its_run_alone(tmp_path, capsys):
    """Each point of a diverging learn sweep holds the tables and error.json
    of a learn run alone from its meta.json's effective config, byte for
    byte, and a meta.json with its own wall time."""
    import yaml
    cfg = _write(tmp_path, "c.yaml", DIVERGING_SWEEP)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 4
    for i in range(2):
        point = out / f"point_{i:03d}"
        meta = read_meta(point / "meta.json")
        assert meta["wall_time_s"] > 0.0
        echo = _write(tmp_path, f"point_{i}.yaml", yaml.safe_dump(meta["effective_config"]))
        alone = tmp_path / f"alone_{i}"
        assert main(["learn", "--config", echo, "--out", str(alone), "--quiet"]) == 4
        files = ["error.json", "trajectory.csv"]
        for d in (point, alone):
            assert sorted(f.name for f in d.iterdir() if f.name != "meta.json") == files
        for name in files:
            assert (point / name).read_bytes() == (alone / name).read_bytes(), (i, name)
    capsys.readouterr()


def test_sweep_writes_each_point_before_the_next_computes(tmp_path, monkeypatch):
    """Point i's tables and meta.json are on disk when point i + 1 starts."""
    out = tmp_path / "sw"
    written = []
    compute = experiments._compute_point

    def recording(run):
        written.append(sorted(p.parent.name for p in out.glob("point_*/meta.json")))
        return compute(run)

    monkeypatch.setattr(experiments, "_compute_point", recording)
    cfg = _write(tmp_path, "c.yaml",
                 "experiment: sweep\nrun: {steps: 30}\n"
                 "sweep: {parameter: physics.mu, values: [0.25, 0.5, 1.0], "
                 "experiment: compare}\n")
    assert main(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert written == [[], ["point_000"], ["point_000", "point_001"]]


def _sweep_peak_bytes(tmp_path, points):
    """tracemalloc's peak over an in-process compare sweep of ``points``
    points that each take 12000 steps of both twins."""
    values = ", ".join(str(0.004 + 0.001 * i) for i in range(points))
    cfg = parse_config(
        "experiment: sweep\n"
        "physics: {m: 20.0, hbar: 1.0, mu: 0.004}\n"
        "potential: {kind: polynomial, coefficients: [0.0, 0.0, -0.5, 0.0, 0.25]}\n"
        "initial: {kind: gaussian, x0: -1.6, u0: 0.0}\n"
        "run: {steps: 12000, stop_tol: 1.0e-200}\n"
        f"sweep: {{parameter: physics.mu, values: [{values}], experiment: compare}}\n")
    tracemalloc.start()
    try:
        result = run_experiment(cfg, out_dir=tmp_path / f"sweep_{points}")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0
    assert [p["quantum"]["steps_taken"] for p in result.meta["points"]] == [12000] * points
    return peak


def test_sweep_peak_memory_does_not_grow_with_its_points(tmp_path):
    """A sweep holds one point's tables at a time: six points peak at most
    a quarter above two."""
    two = _sweep_peak_bytes(tmp_path, 2)
    six = _sweep_peak_bytes(tmp_path, 6)
    assert six <= 1.25 * two, (two, six)


# --- entry point ----------------------------------------------------------------

def test_module_entry_point_subprocess(tmp_path):
    exe = shutil.which("quantum-descent")
    cmd = [exe] if exe else [sys.executable, "-m", "quantum_descent.cli"]
    proc = subprocess.run(cmd + ["learn", "--out", str(tmp_path / "sub"), "--quiet"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sub" / "trajectory.csv").exists()


def test_cli_import_leaves_scipy_linalg_unloaded():
    """Importing the CLI loads no scipy module at all, scipy.linalg included."""
    code = ("import sys, quantum_descent.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_dynamics_imports_without_the_learner():
    """dynamics names PotentialSpec only in annotations, so importing it
    loads no learner: the learner imports dynamics, not the other way round.
    The package's __init__ imports every module, so dynamics is imported
    here under a bare package object."""
    code = ("import sys, types\n"
            "package = types.ModuleType('quantum_descent')\n"
            "package.__path__ = [sys.argv[1]]\n"
            "sys.modules['quantum_descent'] = package\n"
            "import quantum_descent.dynamics\n"
            "print('quantum_descent.learner' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code, str(Path(experiments.__file__).parent)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_localized_packet_runs_leave_stderr_empty(tmp_path):
    """A coherent evolve and a field-sampled learn on the default 2048-point
    grid, where most points lie below the node floor, print nothing on
    stderr.  They run in a subprocess because pytest captures warnings
    raised in-process."""
    runs = {
        "evolve": "run: {dt: 1.0e-3, t_final: 0.05, snapshot_every: 10}\n",
        "learn": "disruptor: {kind: field_sampled}\n"
                 "initial: {kind: gaussian, x0: -2.0}\nrun: {steps: 3}\n",
    }
    for command, text in runs.items():
        cfg = _write(tmp_path, f"{command}.yaml", text)
        proc = subprocess.run([sys.executable, "-m", "quantum_descent.cli", command,
                               "--config", cfg, "--out", str(tmp_path / command), "--quiet"],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "", command


FAILING_RUNS_THAT_OVERFLOW = {
    "evolve": ("evolve", 3, "experiment: evolve\n" + OVERFLOWING_POTENTIAL
               + "initial: {kind: gaussian, x0: 0.0}\n"
               "run: {t_final: 0.1, dt: 0.01}\ngrid: {n: 256}\n"),
    "field_sampled_learn": ("learn", 3, "experiment: learn\n" + OVERFLOWING_POTENTIAL
                            + "initial: {kind: gaussian, x0: 0.0}\n"
                            "disruptor: {kind: field_sampled, pde_dt: 0.1}\n"
                            "run: {steps: 5}\ngrid: {n: 256}\n"),
    # the first update moves x to 5e300, where V overflows
    "tiny_mass_learn": ("learn", 4, "experiment: learn\nphysics: {m: 1.0e-300}\n"),
}


@pytest.mark.parametrize("name", FAILING_RUNS_THAT_OVERFLOW)
def test_a_failure_that_overflows_writes_only_its_report_to_stderr(tmp_path, name):
    """A run whose values overflow before a check stops it writes one stderr
    line, its error.json object, and no numpy warning ahead of it.  It runs
    in a subprocess because pytest captures warnings raised in-process."""
    command, code, text = FAILING_RUNS_THAT_OVERFLOW[name]
    cfg = _write(tmp_path, "c.yaml", text)
    out = tmp_path / "o"
    proc = subprocess.run([sys.executable, "-m", "quantum_descent.cli", command,
                           "--config", cfg, "--out", str(out), "--quiet"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert json.loads(lines[0]) == json.loads((out / "error.json").read_text())


# Gaussians that cannot be built, with the key their report names: a width
# whose square overflows, given or taken from the trap, one whose square
# underflows to 0, and a centre whose distance to the grid squares to infinity
UNBUILDABLE_GAUSSIANS = {
    "wide_sigma": ("initial: {kind: gaussian, x0: 0.0, sigma: 1.0e+155}\n", "initial.sigma"),
    "wide_trap_width": ("potential: {omega: 1.0e-310}\ninitial: {kind: gaussian, x0: 0.0}\n",
                        "potential.omega"),
    "narrow_sigma": ("initial: {kind: gaussian, x0: 0.0, sigma: 1.0e-200}\n", "initial.sigma"),
    "far_x0": ("initial: {kind: gaussian, x0: 1.0e+200}\n", "initial.x0"),
}
WAVE_RUNS = {
    "evolve": ("evolve", "run: {t_final: 0.1, dt: 0.01}\n"),
    "field_sampled_learn": ("learn", "disruptor: {kind: field_sampled, pde_dt: 0.1}\n"
                                     "run: {steps: 5}\n"),
}


@pytest.mark.parametrize("run", WAVE_RUNS)
@pytest.mark.parametrize("initial", UNBUILDABLE_GAUSSIANS)
def test_unbuildable_gaussian_writes_only_its_config_report_to_stderr(tmp_path, initial, run):
    """A Gaussian that overflows or underflows while it is built is a config
    error: exit 2 and one stderr line, the report, that names the key at
    fault, with no traceback or numpy warning ahead of it.  It runs in a
    subprocess because pytest captures warnings raised in-process."""
    command, text = WAVE_RUNS[run]
    initial_text, key = UNBUILDABLE_GAUSSIANS[initial]
    cfg = _write(tmp_path, "c.yaml", initial_text + text + "grid: {n: 256}\n")
    proc = subprocess.run([sys.executable, "-m", "quantum_descent.cli", command,
                           "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    report = json.loads(lines[0])
    assert report["exit_code"] == 2
    assert f"'{key}'" in report["error"]["message"]


def test_a_gaussian_whose_phase_overflows_keeps_its_cause(tmp_path, capsys):
    """A packet on the grid whose phase p0 (x - x0) / hbar overflows fails
    on its NaN norm, and its report says so: it has density on the grid, so
    it blames neither 'initial.x0' nor the width."""
    cfg = _write(tmp_path, "c.yaml", "physics: {hbar: 1.0e-10}\ngrid: {n: 256}\n"
                 "initial: {kind: gaussian, x0: 0.0, u0: 1.0e+300}\n"
                 "run: {t_final: 0.1, dt: 0.01}\n")
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    message = json.loads(lines[0])["error"]["message"]
    assert message.startswith("initial: cannot build the gaussian state:")
    assert "non-finite norm nan" in message
    assert "'initial.x0'" not in message and "no density" not in message


def test_a_run_imports_no_logging_thread_pool_or_numpy_polynomial(tmp_path):
    """Importing the CLI, loading a polynomial potential's config and running
    a 2-point compare sweep in-process load none of logging,
    concurrent.futures or numpy.polynomial."""
    cfg = _write(tmp_path, "c.yaml",
                 "experiment: sweep\nphysics: {m: 20.0}\n"
                 "potential: {kind: polynomial, coefficients: [0.0, 0.0, -0.5, 0.0, 0.25]}\n"
                 "initial: {kind: gaussian, x0: -1.5}\nrun: {steps: 50}\n"
                 "sweep: {parameter: physics.mu, values: [0.2, 0.4], experiment: compare}\n")
    code = ("import sys, quantum_descent.cli\n"
            "from quantum_descent.config import load_config\n"
            "from quantum_descent.experiments import run_experiment\n"
            "assert run_experiment(load_config(sys.argv[1]), sys.argv[2]).exit_code == 0\n"
            "print([m for m in ('logging', 'concurrent.futures', 'numpy.polynomial')\n"
            "       if m in sys.modules])\n")
    proc = subprocess.run([sys.executable, "-c", code, cfg, str(tmp_path / "o")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_subcommand_runs_without_scipy(tmp_path):
    """scipy is a test dependency only: with its import made to fail, each
    subcommand, and a field-sampled learn, still exits 0."""
    grid = "grid: {x_min: -10.0, x_max: 10.0, n: 256, periodic: true}\n"
    runs = {
        "learn": "run: {steps: 20}\n",
        "evolve": grid + "run: {t_final: 0.05, dt: 0.01, snapshot_every: 2}\n",
        "compare": "run: {steps: 20}\n",
        "figure1": grid + "run: {t_final: 0.1, dt: 0.02, steps: 20}\n",
        "field_sampled": grid + "disruptor: {kind: field_sampled, pde_dt: 0.1}\n"
                                "initial: {kind: gaussian, x0: -2.0}\nrun: {steps: 5}\n",
    }
    argvs = []
    for name, text in runs.items():
        command = "learn" if name == "field_sampled" else name
        cfg = _write(tmp_path, f"{name}.yaml", text)
        argvs.append([command, "--config", cfg, "--out", str(tmp_path / name), "--quiet"])
    code = ("import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from quantum_descent.cli import main\n"
            "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))\n")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0] * len(runs), proc.stderr
