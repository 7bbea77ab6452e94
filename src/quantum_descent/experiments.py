"""Experiment orchestration: learn / evolve / compare / figure1 / sweep.

Each experiment is prepared (validated and built once), computed in memory and
written by one code path, and a sweep point is such a run in its own
directory.  A sweep prepares every point, then computes, writes and drops one
point at a time, in config order, so it holds one point's tables plus every
point's summary row, metadata and initial state.  Data files are
deterministic; only the wall-time field in the metadata varies between
identical runs.
"""

from __future__ import annotations

import platform
import re
import time
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._version import __version__
from .config import ExperimentConfig
from .dynamics import EvolutionRecord, check_propagation, evolve
from .errors import ConfigError, NumericalError
from .fields import Wavefunction, gaussian_packet
from .learner import (DIVERGENCE_LIMIT, FieldSampledDisruptor, LearnerRun, ZeroDisruptor,
                      run_learner, run_momentum_gd)
from .output import OUTPUT_FORMATS, read_meta, read_table, write_meta, write_tables

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_DIVERGED = 4

# the numpy error state a run builds and computes under: numpy's overflow,
# invalid-value and division warnings would reach stderr ahead of the run's
# one-line report, and every non-finite value that matters is caught by a
# check that names its key or step (the initial state's norm and width, the
# norm, the disruptor's wavefunction, the gradient and the divergence guard)
_QUIET_NUMPY = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}

TRAJECTORY_HEADER = ["t", "x", "u", "V", "dis"]
POINT_DIR = re.compile(r"point_[0-9]{3,}")


@dataclass
class ComputedRun:
    """In-memory result of one experiment: tables keyed by file stem, and
    its sweep-summary row ``(steps, final_x, final_u)``, where steps is -1 if
    no learner ran.  A failed run's ``meta["error"]`` holds the ``type``,
    ``message`` and ``step`` of its failure.  ``compute_s`` and ``write_s``
    are the times spent computing it and writing its tables (a sweep's add
    up its points')."""

    tables: dict
    meta: dict
    exit_code: int
    summary: tuple = (-1, np.nan, np.nan)
    compute_s: float = 0.0
    write_s: float = 0.0


@dataclass
class ExperimentResult:
    exit_code: int
    out_dir: Path
    meta: dict

    @property
    def report(self) -> dict | None:
        """The failure report error.json holds; None for a run that exited 0."""
        return None if self.exit_code == EXIT_OK else {
            "exit_code": self.exit_code, "status": self.meta["status"], "error": self.meta["error"]}


class PreparedRun(NamedTuple):
    """A validated run, with the initial state (or None) it built."""
    cfg: ExperimentConfig
    psi0: Wavefunction | None


def _ground_state_width(cfg: ExperimentConfig) -> float:
    """Standard deviation of the density of the harmonic trap's ground state
    for mass m: its variance is hbar / (2 omega sqrt(m))."""
    omega, m, hbar = cfg.potential.omega, cfg.physics.m, cfg.physics.hbar
    return 1.0 / np.sqrt(2.0 * omega * np.sqrt(m) / hbar)


def _initial_wavefunction(cfg: ExperimentConfig) -> Wavefunction:
    """The configured initial state; one that cannot be built is a config error.

    A coherent state is the Gaussian of the trap's ground-state width moving
    with p0 = m u0, and so is a Gaussian without a width in a harmonic trap.
    """
    init = cfg.initial
    harmonic = cfg.potential.kind == "harmonic"
    if init.kind == "coherent" and not harmonic:
        raise ConfigError("a coherent initial state needs a harmonic potential "
                          "(its width is set by the trap frequency)")
    grid = cfg.grid
    try:
        if init.kind != "custom":
            if init.kind == "coherent" or (init.sigma is None and harmonic):
                sigma = _ground_state_width(cfg)
                width = f"the trap width {sigma:.4g} from 'potential.omega' = {cfg.potential.omega}"
            else:
                sigma = 1.0 if init.sigma is None else init.sigma
                width = f"'initial.sigma' = {sigma:.4g}"
            # the packet divides by sigma**2: a float's square raises where
            # overflowing, numpy's (the trap width's) is inf
            try:
                squared = sigma**2
            except OverflowError:
                squared = np.inf
            if squared == np.inf or squared == 0.0:
                raise ValueError(f"{width}, whose square "
                                 f"{'overflows' if squared else 'underflows to 0'}")
            if init.kind == "coherent" and (init.x0 - 4.0 * sigma < grid.x_min
                                            or init.x0 + 4.0 * sigma > grid.x_max):
                raise ValueError(
                    f"grid [{grid.x_min}, {grid.x_max}] too narrow for a packet at "
                    f"x_t={init.x0} with sigma={sigma:.4g} (needs 8 standard deviations)")
            # the density of the packet's real exponent: zero where the packet
            # is off the grid or narrower than a cell, NaN where it is 0/0
            modulus = np.exp(-((grid.x - init.x0) ** 2) / (4.0 * squared))
            if not np.sum(modulus * modulus) * grid.dx > 0.0:
                raise ValueError(
                    f"'initial.x0' = {init.x0} and {width} give a packet with no density "
                    f"on the grid [{grid.x_min}, {grid.x_max}] of {grid.n} points: it is "
                    f"off the grid or narrower than a cell")
            return gaussian_packet(grid, init.x0, p0=cfg.p0, sigma=sigma,
                                   hbar=cfg.physics.hbar)
        # custom: tabulated (x, re, im), linearly interpolated onto the grid
        # and zero outside the table's x range
        header, rows = read_table(Path(init.path))
        if header[:3] != ["x", "re", "im"]:
            raise ValueError(f"needs columns x,re,im, got {','.join(header)}")
        if rows.size == 0:
            raise ValueError("has a header but no data rows")
        if rows.ndim != 2 or rows.shape[1] < 3:
            raise ValueError(f"needs rows of three values x,re,im, got shape {rows.shape}")
        xs, re, im = rows[:, 0], rows[:, 1], rows[:, 2]
        if not np.all(np.diff(xs) > 0):
            raise ValueError("x samples must be strictly increasing")
        if not np.any((grid.x >= xs[0]) & (grid.x <= xs[-1])):
            raise ValueError(f"its x range [{xs[0]}, {xs[-1]}] holds no point of the grid "
                             f"[{grid.x_min}, {grid.x_max}] of {grid.n} points")
        values = (np.interp(grid.x, xs, re, left=0.0, right=0.0)
                  + 1j * np.interp(grid.x, xs, im, left=0.0, right=0.0))
        return Wavefunction(values, grid).normalized()
    except ValueError as err:
        source = f" from {init.path}" if init.kind == "custom" else ""
        raise ConfigError(f"initial: cannot build the {init.kind} state{source}: {err}") from err


def _prepare(cfg: ExperimentConfig) -> PreparedRun:
    """Build, where the run propagates a wave (evolve, figure1, and a
    field-sampled disruptor unless hbar = 0), its initial state; the parsed
    config has built its potential.  Reject, naming the key, for a wave,
    settings its propagator cannot run with (the first key that
    :func:`check_propagation` rejects), a Gaussian whose momentum p0 = m u0
    overflows, a field-sampled learner that starts off the grid its field
    lives on, and an initial state that cannot be built."""
    if cfg.experiment not in ("evolve", "figure1") and (
            cfg.disruptor.kind != "field_sampled" or cfg.physics.hbar <= 0.0):
        return PreparedRun(cfg, None)
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
    with np.errstate(**_QUIET_NUMPY):
        return PreparedRun(cfg, _initial_wavefunction(cfg))


def _build_disruptor(run: PreparedRun):
    """The configured disruptor, from the run's initial state; the zero one where
    the run built none (a field-sampled one at hbar = 0 vanishes identically)."""
    if run.cfg.disruptor.kind == "zero" or run.psi0 is None:
        return ZeroDisruptor()
    return FieldSampledDisruptor(run.psi0, run.cfg.potential.spec, run.cfg.physics,
                                 pde_dt=run.cfg.disruptor.pde_dt,
                                 macro_time=run.cfg.run.time_scale)


def _learner_meta(run: LearnerRun, disruptor=None) -> dict:
    """A learner's outcome and last state, and the propagator substep of a
    field-sampled ``disruptor``."""
    meta = {"outcome": run.outcome, "steps_taken": int(run.t[-1]),
            "final_x": float(run.x[-1]), "final_u": float(run.u[-1])}
    if isinstance(disruptor, FieldSampledDisruptor):
        meta["pde_substep"] = disruptor.dt
    return meta


_learner_summary = itemgetter("steps_taken", "final_x", "final_u")


def _divergence_code(meta: dict, runs: dict) -> int:
    """EXIT_DIVERGED, with ``meta["error"]`` naming the first of ``runs``
    ({name: LearnerRun}) to diverge and its trajectory row that left the
    stable region, if one did; EXIT_OK otherwise."""
    left = [(int(run.t[-1]), name, run.x[-1]) for name, run in runs.items()
            if run.outcome == "diverged"]
    if not left:
        return EXIT_OK
    step, name, x = min(left, key=itemgetter(0))
    meta["error"] = {"type": "Divergence", "step": step, "message": (
        f"the {name} left the stable region (|x| <= {DIVERGENCE_LIMIT:g}, and the "
        f"grid of a field-sampled disruptor) at step {step}: x = {x:.6g}")}
    return EXIT_DIVERGED


def _evolve_trajectory(rec: EvolutionRecord, run: PreparedRun) -> np.ndarray:
    v_vals = np.asarray(run.cfg.potential.spec.evaluate(rec.x_mean), dtype=float)
    u_mean = rec.p_mean / run.cfg.physics.m
    return np.column_stack([rec.times, rec.x_mean, u_mean, v_vals, rec.dis_center])


def _evolve_meta(rec: EvolutionRecord) -> dict:
    return {"snapshot_times": [float(t) for t in rec.snapshot_times],
            "norm_initial": float(rec.norm[0]), "norm_final": float(rec.norm[-1]),
            "norm_max_drift": float(np.max(np.abs(rec.norm - rec.norm[0]))),
            "final_x_mean": float(rec.x_mean[-1]), "final_p_mean": float(rec.p_mean[-1])}


def _compute_learn(run: PreparedRun) -> ComputedRun:
    cfg = run.cfg
    disruptor = _build_disruptor(run)
    learner = run_learner(cfg.initial.x0, cfg.initial.u0, cfg.potential.spec,
                          disruptor, cfg.physics, steps=cfg.run.steps,
                          stop_tol=cfg.run.stop_tol, time_scale=cfg.run.time_scale)
    meta = _learner_meta(learner, disruptor)
    return ComputedRun({"trajectory": (TRAJECTORY_HEADER, learner.rows)}, meta,
                       _divergence_code(meta, {"learner": learner}), _learner_summary(meta))


def _compute_evolve(run: PreparedRun) -> ComputedRun:
    cfg = run.cfg
    rec = evolve(run.psi0, cfg.potential.spec, cfg.physics, cfg.run.dt, cfg.run.t_final,
                 cfg.run.snapshot_every)
    trajectory = _evolve_trajectory(rec, run)
    tables = {
        "trajectory": (TRAJECTORY_HEADER, trajectory),
        "density": (["x"] + [f"rho_t{k}" for k in range(len(rec.snapshot_times))],
                    np.column_stack([rec.grid.x, rec.densities])),
    }
    # no learner: the summary's final state is the trajectory's last <x> and <p>/m
    return ComputedRun(tables, _evolve_meta(rec), EXIT_OK, (-1, *trajectory[-1, 1:3].tolist()))


def _compute_compare(run: PreparedRun) -> ComputedRun:
    cfg = run.cfg
    disruptor = _build_disruptor(run)
    quantum = run_learner(cfg.initial.x0, cfg.initial.u0, cfg.potential.spec,
                          disruptor, cfg.physics, steps=cfg.run.steps,
                          stop_tol=cfg.run.stop_tol, time_scale=cfg.run.time_scale)
    classical = run_momentum_gd(cfg.initial.x0, cfg.initial.u0, cfg.potential.spec,
                                alpha=cfg.physics.lam, beta=cfg.physics.beta,
                                steps=cfg.run.steps, stop_tol=cfg.run.stop_tol)
    rows_q = quantum.rows
    rows_c = classical.rows
    n = min(len(rows_q), len(rows_c))
    diff = rows_q[:n] - rows_c[:n]
    diff[:, 0] = rows_q[:n, 0]  # keep the shared time axis readable
    meta = {
        "quantum": _learner_meta(quantum, disruptor),
        "classical": _learner_meta(classical),
        "max_abs_x_difference": float(np.max(np.abs(diff[:, 1]))),
        "max_abs_u_difference": float(np.max(np.abs(diff[:, 2]))),
        "compared_rows": int(n),
    }
    code = _divergence_code(meta, {"quantum learner": quantum, "classical twin": classical})
    tables = {
        "trajectory_quantum": (TRAJECTORY_HEADER, rows_q),
        "trajectory_classical": (TRAJECTORY_HEADER, rows_c),
        "difference": (TRAJECTORY_HEADER, diff),
    }
    return ComputedRun(tables, meta, code, _learner_summary(meta["quantum"]))


def _compute_figure1(run: PreparedRun) -> ComputedRun:
    """Density relaxation (main panel) plus the discrete learner inset."""
    pde = _compute_evolve(run)
    learner = _compute_learn(run)
    density_header, density_rows = pde.tables["density"]
    x = density_rows[:, 0]
    meta = {
        "pde": pde.meta,
        "learner": learner.meta,
        "density_argmax_first": float(x[int(np.argmax(density_rows[:, 1]))]),
        "density_argmax_last": float(x[int(np.argmax(density_rows[:, -1]))]),
    }
    if "error" in learner.meta:
        meta["error"] = learner.meta.pop("error")
    tables = {
        "density": (density_header, density_rows),
        "trajectory": learner.tables["trajectory"],
    }
    return ComputedRun(tables, meta, max(pde.exit_code, learner.exit_code), learner.summary)


def _compute_point(run: PreparedRun) -> ComputedRun:
    computer = {"learn": _compute_learn, "evolve": _compute_evolve,
                "compare": _compute_compare, "figure1": _compute_figure1}[run.cfg.experiment]
    t0 = time.perf_counter()
    try:
        with np.errstate(**_QUIET_NUMPY):
            comp = computer(run)
    except NumericalError as err:
        meta = {"error": {"type": type(err).__name__, "message": str(err),
                          "step": err.step}}
        comp = ComputedRun({}, meta, EXIT_NUMERICAL)
    comp.compute_s = time.perf_counter() - t0
    return comp


def _run_sweep(cfg: ExperimentConfig, out_dir: Path, fmt: str) -> ComputedRun:
    """Compute and write each point of a sweep into its own directory; the
    sweep's computed run, whose table is its summary, is returned."""
    sweep = cfg.sweep
    # prepare every point before computing any of them
    runs = []
    for value, point in zip(sweep.values, cfg.sweep_points()):
        try:
            runs.append(_prepare(point))
        except ConfigError as err:
            raise ConfigError(f"sweep value {value} for {sweep.parameter}: {err}") from err

    # compute, write and drop one point at a time, each as a run alone; keep
    # its summary row and meta
    summary_rows, point_meta = [], []
    compute_s = write_s = 0.0
    for i, (value, run) in enumerate(zip(sweep.values, runs)):
        t0 = time.perf_counter()
        comp = _compute_point(run)
        point_dir = out_dir / f"point_{i:03d}"
        point_dir.mkdir(parents=True, exist_ok=True)
        _write_run(run.cfg, point_dir, fmt, comp, t0)
        compute_s += comp.compute_s
        write_s += comp.write_s
        point_meta.append({"index": i, "value": float(value), "directory": point_dir.name,
                           "exit_code": comp.exit_code, **comp.meta})
        # index, exit code and step count are ints, written as integers
        summary_rows.append([i, float(value), comp.exit_code, *comp.summary])
        del comp

    codes = [meta["exit_code"] for meta in point_meta]
    exit_code = EXIT_NUMERICAL if EXIT_NUMERICAL in codes else (
        EXIT_DIVERGED if EXIT_DIVERGED in codes else EXIT_OK)
    header = ["index", "value", "exit_code", "steps", "final_x", "final_u"]
    meta = {"parameter": sweep.parameter, "sub_experiment": sweep.experiment,
            "points": point_meta}
    if exit_code != EXIT_OK:
        # the first point that failed as the sweep did speaks for it
        first = point_meta[codes.index(exit_code)]
        failed = ", ".join(str(i) for i, code in enumerate(codes) if code != EXIT_OK)
        meta["error"] = {**first["error"], "message": (
            f"sweep points {failed} of {len(codes)} failed; point {first['index']} "
            f"({sweep.parameter} = {first['value']}): {first['error']['message']}")}
    return ComputedRun({"sweep_summary": (header, summary_rows)}, meta, exit_code,
                       compute_s=compute_s, write_s=write_s)


def _write_run(cfg: ExperimentConfig, out_dir: Path, fmt: str, comp: ComputedRun,
               t0: float) -> ExperimentResult:
    """Write a computed run into ``out_dir``: its tables, whose write time is
    added to ``comp.write_s``, then meta.json with the wall time since ``t0``
    and the times spent computing and writing tables, then, if it failed,
    error.json."""
    t_write = time.perf_counter()
    files = write_tables(out_dir, comp.tables, fmt)
    comp.write_s += time.perf_counter() - t_write
    effective = cfg.effective_dict()
    effective["output"] = {"directory": str(out_dir), "format": fmt}
    meta = {
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
        "compute_s": comp.compute_s,
        "write_s": comp.write_s,
        "wall_time_s": time.perf_counter() - t0,
    }
    write_meta(out_dir / "meta.json", meta)
    result = ExperimentResult(comp.exit_code, out_dir, meta)
    if result.report is not None:
        write_meta(out_dir / "error.json", result.report)
    return result


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
    the run's metadata; numerical failures are reported, not raised.
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
    if cfg.experiment == "sweep":
        comp = _run_sweep(cfg, out_dir, fmt)
    else:
        comp = _compute_point(_prepare(cfg))
    return _write_run(cfg, out_dir, fmt, comp, t0)
