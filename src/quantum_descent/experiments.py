"""Experiment orchestration: learn / evolve / compare / figure1 / sweep.

Each experiment is computed in memory first and persisted afterwards.  A
sweep computes, writes and drops one point at a time, in config order, so it
holds one point's tables plus every point's summary row and metadata, and
the text of the column blocks the last point's tables repeated, such as
compare's time axis (see :class:`~quantum_descent.output.ColumnTexts`).  Data
files are deterministic; only the wall-time field in the metadata varies
between identical runs.
"""

from __future__ import annotations

import platform
import re
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._version import __version__
from .config import ExperimentConfig
from .dynamics import EvolutionRecord, check_propagation, evolve
from .errors import ConfigError, NumericalError
from .fields import Wavefunction, gaussian_packet
from .learner import (FieldSampledDisruptor, LearnerRun, ZeroDisruptor,
                      run_learner, run_momentum_gd)
from .output import (OUTPUT_FORMATS, ColumnTexts, read_meta, read_table, write_meta,
                     write_tables)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_DIVERGED = 4

TRAJECTORY_HEADER = ["t", "x", "u", "V", "dis"]
POINT_DIR = re.compile(r"point_[0-9]{3,}")


@dataclass
class ComputedRun:
    """In-memory result of one experiment: tables keyed by file stem."""

    tables: dict
    meta: dict
    exit_code: int


@dataclass
class ExperimentResult:
    exit_code: int
    out_dir: Path
    files: tuple
    meta: dict


def _ground_state_width(cfg: ExperimentConfig) -> float:
    """Standard deviation of the density of the harmonic trap's ground state
    for mass m: its variance is hbar / (2 omega sqrt(m))."""
    omega, m, hbar = cfg.potential["omega"], cfg.physics.m, cfg.physics.hbar
    return 1.0 / np.sqrt(2.0 * omega * np.sqrt(m) / hbar)


def _initial_wavefunction(cfg: ExperimentConfig) -> Wavefunction:
    """The configured initial state; one that cannot be built is a config error.

    A coherent state is the Gaussian of the trap's ground-state width moving
    with p0 = m u0, and so is a Gaussian without a width in a harmonic trap.
    """
    init = cfg.initial
    harmonic = cfg.potential["kind"] == "harmonic"
    if init.kind == "coherent" and not harmonic:
        raise ConfigError("a coherent initial state needs a harmonic potential "
                          "(its width is set by the trap frequency)")
    grid = cfg.grid
    try:
        if init.kind != "custom":
            if init.kind == "coherent" or (init.sigma is None and harmonic):
                sigma = _ground_state_width(cfg)
            else:
                sigma = 1.0 if init.sigma is None else init.sigma
            if init.kind == "coherent" and (init.x0 - 4.0 * sigma < grid.x_min
                                            or init.x0 + 4.0 * sigma > grid.x_max):
                raise ValueError(
                    f"grid [{grid.x_min}, {grid.x_max}] too narrow for a packet at "
                    f"x_t={init.x0} with sigma={sigma:.4g} (needs 8 standard deviations)")
            return gaussian_packet(grid, init.x0, p0=cfg.p0, sigma=sigma,
                                   hbar=cfg.physics.hbar)
        # custom: tabulated (x, re, im), linearly interpolated onto the grid
        header, rows = read_table(Path(init.path))
        if header[:3] != ["x", "re", "im"]:
            raise ValueError(f"needs columns x,re,im, got {','.join(header)}")
        if rows.size == 0:
            raise ValueError("has a header but no data rows")
        if rows.ndim != 2 or rows.shape[1] < 3:
            raise ValueError(f"needs rows of three values x,re,im, got shape {rows.shape}")
        xs, re, im = rows[:, 0], rows[:, 1], rows[:, 2]
        values = np.interp(cfg.grid.x, xs, re) + 1j * np.interp(cfg.grid.x, xs, im)
        return Wavefunction(values, cfg.grid).normalized()
    except ValueError as err:
        source = f" from {init.path}" if init.kind == "custom" else ""
        raise ConfigError(f"initial: cannot build the {init.kind} state{source}: {err}") from err


def _builds_wave(cfg: ExperimentConfig) -> bool:
    """Whether the run builds and propagates a wavefunction.

    evolve and figure1 do, and so does a field-sampled disruptor unless
    hbar = 0 (it is then the zero disruptor, see :func:`_build_disruptor`,
    so learner-only runs keep hbar = 0 and any grid size).
    """
    return (cfg.experiment in ("evolve", "figure1")
            or (cfg.disruptor.kind == "field_sampled" and cfg.physics.hbar > 0.0))


def _check_propagation(cfg: ExperimentConfig) -> None:
    """Reject, naming the key, settings the wave propagator cannot run with
    (the first key that :func:`check_propagation` rejects), a Gaussian whose
    momentum p0 = m u0 overflows, and a field-sampled learner that starts
    off the grid its field lives on."""
    if not _builds_wave(cfg):
        return
    try:
        check_propagation(cfg.grid, cfg.physics)
    except ValueError as err:
        key = "physics.hbar" if cfg.physics.hbar <= 0.0 else "grid.n"
        raise ConfigError(f"'{key}': {err}") from err
    if cfg.initial.kind != "custom" and not np.isfinite(cfg.p0):
        raise ConfigError(f"'physics.m' = {cfg.physics.m} and 'initial.u0' = {cfg.initial.u0} "
                          f"give the momentum p0 = m * u0 = {cfg.p0}; it must be finite")
    x0, grid = cfg.initial.x0, cfg.grid
    if (cfg.experiment != "evolve" and cfg.disruptor.kind == "field_sampled"
            and not grid.contains(x0)):
        raise ConfigError(f"'initial.x0': a field-sampled learner samples its disruptor "
                          f"on the grid [{grid.x_min}, {grid.x_max}], so it must start "
                          f"there, got x0={x0}")


def _build_disruptor(cfg: ExperimentConfig):
    """The configured disruptor; at hbar = 0 a field-sampled one vanishes
    identically, so it is the zero disruptor and no wave is built."""
    if cfg.disruptor.kind == "zero" or cfg.physics.hbar == 0.0:
        return ZeroDisruptor()
    return FieldSampledDisruptor(_initial_wavefunction(cfg), cfg.build_potential(),
                                 cfg.physics, pde_dt=cfg.disruptor.pde_dt,
                                 macro_time=cfg.run.time_scale)


def _learner_meta(run: LearnerRun) -> dict:
    return {
        "outcome": run.outcome,
        "steps_taken": int(run.t[-1]),
        "final_x": float(run.x[-1]),
        "final_u": float(run.u[-1]),
    }


def _evolve_trajectory(rec: EvolutionRecord, cfg: ExperimentConfig) -> np.ndarray:
    v_vals = np.asarray(cfg.build_potential().evaluate(rec.x_mean), dtype=float)
    u_mean = rec.p_mean / cfg.physics.m
    return np.column_stack([rec.times, rec.x_mean, u_mean, v_vals, rec.dis_center])


def _density_table(rec: EvolutionRecord):
    header = ["x"] + [f"rho_t{k}" for k in range(len(rec.snapshot_times))]
    rows = np.column_stack([rec.grid.x, rec.densities])
    return header, rows


def _evolve_meta(rec: EvolutionRecord) -> dict:
    return {
        "snapshot_times": [float(t) for t in rec.snapshot_times],
        "norm_initial": float(rec.norm[0]),
        "norm_final": float(rec.norm[-1]),
        "norm_max_drift": float(np.max(np.abs(rec.norm - rec.norm[0]))),
        "final_x_mean": float(rec.x_mean[-1]),
        "final_p_mean": float(rec.p_mean[-1]),
    }


def _compute_learn(cfg: ExperimentConfig) -> ComputedRun:
    run = run_learner(cfg.initial.x0, cfg.initial.u0, cfg.build_potential(),
                      _build_disruptor(cfg), cfg.physics, steps=cfg.run.steps,
                      stop_tol=cfg.run.stop_tol, time_scale=cfg.run.time_scale)
    code = EXIT_DIVERGED if run.outcome == "diverged" else EXIT_OK
    return ComputedRun({"trajectory": (TRAJECTORY_HEADER, run.rows)},
                       _learner_meta(run), code)


def _compute_evolve(cfg: ExperimentConfig) -> ComputedRun:
    psi0 = _initial_wavefunction(cfg)
    rec = evolve(psi0, cfg.build_potential(), cfg.physics, cfg.run.dt, cfg.run.t_final,
                 cfg.run.snapshot_every)
    tables = {
        "trajectory": (TRAJECTORY_HEADER, _evolve_trajectory(rec, cfg)),
        "density": _density_table(rec),
    }
    return ComputedRun(tables, _evolve_meta(rec), EXIT_OK)


def _compute_compare(cfg: ExperimentConfig) -> ComputedRun:
    quantum = run_learner(cfg.initial.x0, cfg.initial.u0, cfg.build_potential(),
                          _build_disruptor(cfg), cfg.physics, steps=cfg.run.steps,
                          stop_tol=cfg.run.stop_tol, time_scale=cfg.run.time_scale)
    classical = run_momentum_gd(cfg.initial.x0, cfg.initial.u0, cfg.build_potential(),
                                alpha=cfg.physics.lam, beta=cfg.physics.beta,
                                steps=cfg.run.steps, stop_tol=cfg.run.stop_tol)
    rows_q = quantum.rows
    rows_c = classical.rows
    n = min(len(rows_q), len(rows_c))
    diff = rows_q[:n] - rows_c[:n]
    diff[:, 0] = rows_q[:n, 0]  # keep the shared time axis readable
    meta = {
        "quantum": _learner_meta(quantum),
        "classical": _learner_meta(classical),
        "max_abs_x_difference": float(np.max(np.abs(diff[:, 1]))),
        "max_abs_u_difference": float(np.max(np.abs(diff[:, 2]))),
        "compared_rows": int(n),
    }
    code = EXIT_OK
    if "diverged" in (quantum.outcome, classical.outcome):
        code = EXIT_DIVERGED
    tables = {
        "trajectory_quantum": (TRAJECTORY_HEADER, rows_q),
        "trajectory_classical": (TRAJECTORY_HEADER, rows_c),
        "difference": (TRAJECTORY_HEADER, diff),
    }
    return ComputedRun(tables, meta, code)


def _compute_figure1(cfg: ExperimentConfig) -> ComputedRun:
    """Density relaxation (main panel) plus the discrete learner inset."""
    pde = _compute_evolve(cfg)
    learner = _compute_learn(cfg)
    density_header, density_rows = pde.tables["density"]
    x = density_rows[:, 0]
    meta = {
        "pde": pde.meta,
        "learner": learner.meta,
        "density_argmax_first": float(x[int(np.argmax(density_rows[:, 1]))]),
        "density_argmax_last": float(x[int(np.argmax(density_rows[:, -1]))]),
    }
    tables = {
        "density": (density_header, density_rows),
        "trajectory": learner.tables["trajectory"],
    }
    return ComputedRun(tables, meta, max(pde.exit_code, learner.exit_code))


def _compute_point(cfg: ExperimentConfig) -> ComputedRun:
    computer = {"learn": _compute_learn, "evolve": _compute_evolve,
                "compare": _compute_compare, "figure1": _compute_figure1}[cfg.experiment]
    try:
        return computer(cfg)
    except NumericalError as err:
        meta = {"error": {"type": type(err).__name__, "message": str(err),
                          "step": err.step}}
        return ComputedRun({}, meta, EXIT_NUMERICAL)


def _run_sweep(cfg: ExperimentConfig, out_dir: Path, fmt: str) -> ComputedRun:
    sweep = cfg.sweep
    # validate every point before computing any of them: its propagation
    # settings and start, its potential and, where it builds one, its
    # initial state
    points = cfg.sweep_points()
    for value, point in zip(sweep.values, points):
        try:
            _check_propagation(point)
            point.build_potential()
            if _builds_wave(point):
                _initial_wavefunction(point)
        except ConfigError as err:
            raise ConfigError(f"sweep value {value} for {sweep.parameter}: {err}") from err

    # compute, write and drop one point at a time; keep its summary row and
    # meta, and the text of the columns its tables repeat (compare's time axis)
    summary_rows, point_meta, texts = [], [], ColumnTexts()
    for i, (value, point) in enumerate(zip(sweep.values, points)):
        comp = _compute_point(point)
        point_dir = out_dir / f"point_{i:03d}"
        point_dir.mkdir(parents=True, exist_ok=True)
        files = write_tables(point_dir, comp.tables, fmt, texts)
        write_meta(point_dir / "meta.json", _assemble_meta(point, point_dir, fmt, comp, files))
        point_meta.append({"index": i, "value": float(value), "directory": point_dir.name,
                           "exit_code": comp.exit_code, **comp.meta})
        out = comp.meta.get("learner") or comp.meta.get("quantum") or comp.meta
        # index, exit code and step count stay integers in the written table
        summary_rows.append([i, float(value), int(comp.exit_code),
                             int(out.get("steps_taken", -1)),
                             float(out.get("final_x", out.get("final_x_mean", np.nan))),
                             float(out.get("final_u", out.get("final_p_mean", np.nan)))])
        del comp

    codes = [meta["exit_code"] for meta in point_meta]
    exit_code = EXIT_NUMERICAL if EXIT_NUMERICAL in codes else (
        EXIT_DIVERGED if EXIT_DIVERGED in codes else EXIT_OK)
    header = ["index", "value", "exit_code", "steps", "final_x", "final_u"]
    meta = {"parameter": sweep.parameter, "sub_experiment": sweep.experiment,
            "points": point_meta}
    return ComputedRun({"sweep_summary": (header, summary_rows)}, meta, exit_code)


def _assemble_meta(cfg: ExperimentConfig, out_dir: Path, fmt: str,
                   comp: ComputedRun, files: list) -> dict:
    effective = cfg.effective_dict()
    effective["output"] = {"directory": str(out_dir), "format": fmt}
    return {
        "experiment": cfg.experiment,
        "effective_config": effective,
        "status": {EXIT_OK: "ok", EXIT_NUMERICAL: "numerical_failure",
                   EXIT_DIVERGED: "diverged"}[comp.exit_code],
        "files": sorted(files),
        "versions": {
            "quantum_descent": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        **comp.meta,
    }


def _earlier_meta(meta_path: Path) -> dict:
    """An earlier run's meta.json; a missing or unreadable one is empty."""
    try:
        meta = read_meta(meta_path)
    except (OSError, ValueError):
        return {}
    return meta if isinstance(meta, dict) else {}


def _earlier_tables(meta: dict) -> list:
    """The table files an earlier run's meta.json lists under ``files``.

    Only plain ``.csv`` and ``.json`` file names count, so nothing outside
    the directory or in a subdirectory is named.
    """
    files = meta.get("files")
    if not isinstance(files, list):
        return []
    return [name for name in files if isinstance(name, str) and Path(name).name == name
            and Path(name).suffix in (".csv", ".json") and name != "meta.json"]


def _earlier_points(meta: dict) -> list:
    """The point directories an earlier sweep's meta.json lists: plain
    ``point_NNN`` names only, so nothing but a direct subdirectory is named."""
    points = meta.get("points")
    if not isinstance(points, list):
        return []
    names = (point.get("directory") for point in points if isinstance(point, dict))
    return [name for name in names if isinstance(name, str) and POINT_DIR.fullmatch(name)]


def _remove_earlier_run(out_dir: Path) -> None:
    """Delete what the run before this one says it wrote into ``out_dir``.

    That is the tables and point directories its meta.json lists, then that
    meta.json and any error.json.  A point directory is cleared the same way
    and removed only if that leaves it empty, so files the runs did not
    write stay.
    """
    meta_path = out_dir / "meta.json"
    meta = _earlier_meta(meta_path)
    for name in _earlier_tables(meta):
        (out_dir / name).unlink(missing_ok=True)
    for name in _earlier_points(meta):
        point_dir = out_dir / name
        if point_dir.is_symlink() or not point_dir.is_dir():
            continue
        _remove_earlier_run(point_dir)
        try:
            point_dir.rmdir()
        except OSError:
            pass  # it holds files no run listed
    meta_path.unlink(missing_ok=True)
    (out_dir / "error.json").unlink(missing_ok=True)


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None,
                   fmt: str | None = None) -> ExperimentResult:
    """Run one configured experiment and persist its artifacts.

    ``out_dir`` and ``fmt`` override the config's output section (the CLI
    passes its --out/--format flags here).  Returns the exit status alongside
    the written file names; numerical failures are reported, not raised.
    """
    t0 = time.perf_counter()
    out_dir = Path(out_dir if out_dir is not None else cfg.output.directory)
    fmt = fmt if fmt is not None else cfg.output.format
    if fmt not in OUTPUT_FORMATS:
        raise ConfigError(f"output format must be {' or '.join(OUTPUT_FORMATS)}, got {fmt!r}")
    out_dir.mkdir(parents=True, exist_ok=True)
    # the directory describes this run only: drop an earlier run's data files
    # and reports first, so that a run failing before it writes them leaves
    # none behind
    _remove_earlier_run(out_dir)
    meta_path, error_path = out_dir / "meta.json", out_dir / "error.json"

    if cfg.experiment == "sweep":
        comp = _run_sweep(cfg, out_dir, fmt)
    else:
        _check_propagation(cfg)
        comp = _compute_point(cfg)

    files = write_tables(out_dir, comp.tables, fmt)
    meta = _assemble_meta(cfg, out_dir, fmt, comp, files)
    meta["wall_time_s"] = time.perf_counter() - t0
    write_meta(meta_path, meta)
    if comp.exit_code != EXIT_OK:
        report = {"exit_code": comp.exit_code, "status": meta["status"],
                  "error": comp.meta.get("error",
                                         {"type": "Divergence",
                                          "message": "trajectory left the guard region"})}
        write_meta(error_path, report)
        files.append("error.json")
    return ExperimentResult(comp.exit_code, out_dir, tuple(sorted(files + ["meta.json"])),
                            meta)
