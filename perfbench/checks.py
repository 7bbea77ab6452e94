"""Correctness checks on the files a run wrote.

No check imports the program: each one parses the written tables itself and
compares them with a reference built here, so a defect in the layer under test
cannot also hide in its own check.

* ``relax``: ``<x>(t)`` and ``<p>(t)`` against the closed-form damped
  oscillator, the disruptor at the packet centre against zero, and the norm
  of every density snapshot against the first.
* ``quantum-learn``: the learner update replayed bit for bit from the
  recorded disruptor column; every value finite.
* ``descent-sweep``: the classical twin replayed here from the potential's
  coefficients; quantum and classical twins equal bit for bit at every point
  (the paper's central claim), the quantum twin's disruptor zero, the
  expected row counts, and the sweep summary parsed numerically.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from workloads import GRID_N, GRID_X_MAX, GRID_X_MIN, SWEEP_COEFFS, Workload

# The split-step propagator is second order in dt; at dt = 1e-3 on this grid
# the <x> and <p> errors measure ~1e-7 and ~5e-7, so 1e-5 admits a reordered
# but equally accurate scheme and still catches a wrong one.
RELAX_X_TOL = 1.0e-5
RELAX_U_TOL = 1.0e-5
# A coherent packet stays a Gaussian centred on <x>, where the disruptor is
# zero; it measures ~3e-6 there.  Dis = x - <x> near the centre, so a
# stencil off by one cell (dx ~ 0.02) reads ~2e-2.
RELAX_DIS_TOL = 1.0e-4
# The replayed classical descent matches the program's bit for bit today; a
# reordered but equivalent gradient (x**3 - x) moved it by at most 8e-12 over
# 600 sweep points (seeds 0-149).
SWEEP_REPLAY_TOL = 1.0e-8
# the friction substep only rotates phases, so the norm moves by rounding only
RELAX_NORM_TOL = 1.0e-10

TRAJECTORY_HEADER = ["t", "x", "u", "V", "dis"]


class CheckFailure(Exception):
    """The run's output is wrong."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def _read_csv(path: Path) -> tuple[list, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, rows


def damped_oscillator(x0: float, p0: float, mu: float, omega: float,
                      t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x(t) and x'(t) of x'' + mu x' + omega^2 x = 0, x(0) = x0, x'(0) = p0.

    With m = 1 these are <x> and <p> of the Kostin packet.  Only the
    underdamped branch (mu < 2 omega), which is the one the relax workload
    draws from.
    """
    wd = math.sqrt(omega * omega - 0.25 * mu * mu)
    b = (p0 + 0.5 * mu * x0) / wd
    decay, cos, sin = np.exp(-0.5 * mu * t), np.cos(wd * t), np.sin(wd * t)
    x = decay * (x0 * cos + b * sin)
    return x, decay * (wd * (b * cos - x0 * sin)) - 0.5 * mu * x


def check_relax(wl: Workload, out: Path) -> dict:
    p = wl.params
    _require(p["mu"] < 2.0 * p["omega"], "relax reference covers underdamped runs only")
    header, traj = _read_csv(out / "trajectory.csv")
    _require(header == TRAJECTORY_HEADER, f"trajectory header {header}")
    _require(traj.shape == (p["steps"] + 1, 5), f"trajectory shape {traj.shape}")
    _require(bool(np.all(np.isfinite(traj))), "non-finite trajectory value")
    t = np.arange(p["steps"] + 1) * p["dt"]
    x_exact, u_exact = damped_oscillator(p["x0"], p["u0"], p["mu"], p["omega"], t)
    x_err = float(np.max(np.abs(traj[:, 1] - x_exact)))
    _require(x_err < RELAX_X_TOL, f"<x> off the damped oscillator by {x_err:.3e}")
    u_err = float(np.max(np.abs(traj[:, 2] - u_exact)))
    _require(u_err < RELAX_U_TOL, f"<p> off the damped oscillator by {u_err:.3e}")
    dis_center = float(np.max(np.abs(traj[:, 4])))
    _require(dis_center < RELAX_DIS_TOL, f"disruptor at the packet centre {dis_center:.3e}")

    header, dens = _read_csv(out / "density.csv")
    n_snap = p["steps"] // p["snapshot_every"] + 1
    _require(dens.shape == (GRID_N, 1 + n_snap), f"density shape {dens.shape}")
    _require(bool(np.all(np.isfinite(dens))), "non-finite density value")
    dx = (GRID_X_MAX - GRID_X_MIN) / GRID_N
    norms = dens[:, 1:].sum(axis=0) * dx
    norm_drift = float(np.max(np.abs(norms - norms[0])))
    _require(abs(norms[0] - 1.0) < RELAX_NORM_TOL, f"initial norm {norms[0]!r}")
    _require(norm_drift < RELAX_NORM_TOL, f"norm drift {norm_drift:.3e}")
    return {"x_err": x_err, "u_err": u_err, "norm_drift": norm_drift,
            "dis_center": dis_center}


def check_quantum_learn(wl: Workload, out: Path) -> dict:
    p = wl.params
    lines = (out / "trajectory.csv").read_text().splitlines()
    _require(lines[0].split(",") == TRAJECTORY_HEADER, f"trajectory header {lines[0]}")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    _require(len(rows) == p["steps"] + 1, f"{len(rows)} trajectory rows")
    _require(all(math.isfinite(v) for row in rows for v in row), "non-finite value")
    # the same float operations, in the same order, as the documented update
    # u' = beta u - lam V'(x) + dis, x' = x + u' with V = omega^2 x^2 / 2
    beta, lam, w2 = 1.0 - p["mu"], 1.0 / p["m"], float(p["omega"]) ** 2
    t, x, u = rows[0][0], rows[0][1], rows[0][2]
    _require((t, x, u) == (0.0, p["x0"], p["u0"]), "trajectory does not start at (x0, u0)")
    for k, (t, x_new, u_new, v_new, dis) in enumerate(rows[1:], start=1):
        u_ref = beta * u - lam * (w2 * x) + dis
        x_ref = x + u_ref
        _require(t == float(k) and u_new == u_ref and x_new == x_ref
                 and v_new == 0.5 * w2 * (x_ref * x_ref),
                 f"update {k} does not replay: x={x_new!r} vs {x_ref!r}")
        x, u = x_new, u_new
    _require(any(row[4] != 0.0 for row in rows[1:]),
             "disruptor is zero everywhere; the packet does not breathe")
    return {}


def replay_momentum_gd(x0: float, u0: float, mu: float, m: float,
                       steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Heavy-ball descent on the sweep's polynomial, computed here.

    u' = (1 - mu) u - V'(x) / m, x' = x + u', with V' evaluated by Horner's
    rule on the derivative of ``SWEEP_COEFFS`` (ascending powers).
    """
    dcoeffs = [k * c for k, c in enumerate(SWEEP_COEFFS)][1:]
    beta, lam = 1.0 - mu, 1.0 / m
    xs, us = [x0], [u0]
    x, u = x0, u0
    for _ in range(steps):
        g = 0.0
        for c in reversed(dcoeffs):
            g = g * x + c
        u = beta * u - lam * g
        x = x + u
        xs.append(x)
        us.append(u)
    return np.array(xs), np.array(us)


def check_descent_sweep(wl: Workload, out: Path) -> dict:
    p = wl.params
    steps, mus = p["steps"], p["mus"]
    header, summary = _read_csv(out / "sweep_summary.csv")
    _require(header == ["index", "value", "exit_code", "steps", "final_x", "final_u"],
             f"summary header {header}")
    _require(summary.shape == (len(mus), 6), f"summary shape {summary.shape}")
    # integer columns are written as floats; compare them as numbers
    _require(list(summary[:, 0]) == [float(i) for i in range(len(mus))], "summary index")
    _require(list(summary[:, 1]) == list(mus), "summary values out of config order")
    _require(bool(np.all(summary[:, 2] == 0.0)), "a sweep point failed")
    _require(bool(np.all(summary[:, 3] == float(steps))), "a point stopped early")
    t_expected = np.arange(steps + 1, dtype=float)
    for i in range(len(mus)):
        point = out / f"point_{i:03d}"
        tables = {}
        for stem in ("trajectory_quantum", "trajectory_classical", "difference"):
            header, rows = _read_csv(point / f"{stem}.csv")
            _require(header == TRAJECTORY_HEADER, f"{point.name}/{stem} header")
            _require(rows.shape == (steps + 1, 5), f"{point.name}/{stem} shape {rows.shape}")
            _require(bool(np.all(np.isfinite(rows))), f"{point.name}/{stem} non-finite")
            _require(np.array_equal(rows[:, 0], t_expected), f"{point.name}/{stem} time axis")
            tables[stem] = rows
        q, c = tables["trajectory_quantum"], tables["trajectory_classical"]
        x_ref, u_ref = replay_momentum_gd(p["x0"], p["u0"], mus[i], p["m"], steps)
        replay_err = float(max(np.max(np.abs(c[:, 1] - x_ref)), np.max(np.abs(c[:, 2] - u_ref))))
        _require(replay_err < SWEEP_REPLAY_TOL,
                 f"{point.name}: classical twin off the replayed descent by {replay_err:.3e}")
        _require(not np.any(q[:, 4]), f"{point.name}: nonzero disruptor in the quantum twin")
        _require(np.array_equal(q[:, 1:3], c[:, 1:3]),
                 f"{point.name}: twins differ, max |dx| = {np.max(np.abs(q[:, 1] - c[:, 1]))}")
        _require(not np.any(tables["difference"][:, 1:3]), f"{point.name}: nonzero difference")
        _require(float(np.max(np.abs(q[:, 1]))) <= p["reach"], f"{point.name}: left the wells")
        meta = json.loads((point / "meta.json").read_text())
        _require(meta["max_abs_x_difference"] == 0.0, f"{point.name}: meta reports a difference")
        _require(summary[i, 4] == q[-1, 1] and summary[i, 5] == q[-1, 2],
                 f"{point.name}: summary final state disagrees with the trajectory")
    return {}


CHECKS = {"relax": check_relax, "quantum-learn": check_quantum_learn,
          "descent-sweep": check_descent_sweep}


def check(wl: Workload, out: Path) -> dict:
    """Raise :class:`CheckFailure` unless the run in ``out`` is right.

    Returns the accuracy values the check measured.
    """
    try:
        return CHECKS[wl.name](wl, out)
    except (OSError, ValueError, KeyError, IndexError) as err:
        raise CheckFailure(f"unreadable output: {type(err).__name__}: {err}") from err
