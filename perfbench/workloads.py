"""Seeded workload generator.

Each workload is a YAML config for the public CLI plus the facts the checks
and the throughput metric need (experiment tag, work units per run, the drawn
parameters).  The seed only moves parameters inside ranges that keep the work
of a run fixed:

* every run takes its full step count (stop tolerances no run can reach);
* ``relax`` keeps ``mu > 0`` so the friction substep decomposes the field
  every step;
* the learner workloads keep ``lam * max V'' < 2 (1 + beta)`` over the region
  the trajectory can reach, so no run diverges;
* every friction value stays inside the program's ``0 <= mu <= 1``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("relax", "quantum-learn", "descent-sweep")

# shared by every workload: the program's default periodic grid
GRID_N = 2048
GRID_X_MIN, GRID_X_MAX = -20.0, 20.0

RELAX_DT = 1.0e-3
RELAX_STEPS = 2000
RELAX_SNAPSHOT_EVERY = 200

LEARN_STEPS = 30
LEARN_PDE_DT = 0.01
LEARN_SUBSTEPS = 100  # round(time_scale / pde_dt) with the default time_scale 1

SWEEP_STEPS = 12000
SWEEP_POINTS = 4
SWEEP_MASS = 20.0
# double well V = x^4/4 - x^2/2, minima at x = +-1
SWEEP_COEFFS = (0.0, 0.0, -0.5, 0.0, 0.25)

# far below anything a finite trajectory of these lengths reaches
UNREACHABLE_STOP_TOL = 1.0e-200


@dataclass(frozen=True)
class Workload:
    """One generated run: the config text and what the benchmark knows about it."""

    name: str
    experiment: str
    yaml_text: str
    units: int        # workload units per run (see README.md)
    params: dict      # drawn values, for the checks


def _f(v: float) -> str:
    # repr round-trips a double, so the program parses exactly the drawn value;
    # YAML 1.1 reads a float only with a '.' in the mantissa ("1e-200" is a string)
    text = repr(float(v))
    mantissa, e, exponent = text.partition("e")
    return text if "." in mantissa else f"{mantissa}.0{e}{exponent}"


def _relax(rng: random.Random) -> Workload:
    x0 = rng.uniform(-6.0, -3.0)
    u0 = rng.uniform(-0.5, 0.5)
    mu = rng.uniform(0.3, 0.9)
    t_final = RELAX_STEPS * RELAX_DT
    text = (
        "experiment: evolve\n"
        f"grid: {{x_min: {_f(GRID_X_MIN)}, x_max: {_f(GRID_X_MAX)}, n: {GRID_N}, periodic: true}}\n"
        f"physics: {{m: 1.0, hbar: 1.0, mu: {_f(mu)}}}\n"
        "potential: {kind: harmonic, omega: 1.0}\n"
        f"initial: {{kind: coherent, x0: {_f(x0)}, u0: {_f(u0)}}}\n"
        f"run: {{dt: {_f(RELAX_DT)}, t_final: {_f(t_final)}, "
        f"snapshot_every: {RELAX_SNAPSHOT_EVERY}, scheme: split_step_spectral}}\n"
    )
    return Workload("relax", "evolve", text, RELAX_STEPS,
                    {"x0": x0, "u0": u0, "mu": mu, "omega": 1.0, "dt": RELAX_DT,
                     "steps": RELAX_STEPS, "snapshot_every": RELAX_SNAPSHOT_EVERY})


def _quantum_learn(rng: random.Random) -> Workload:
    x0 = rng.uniform(-3.5, -2.0)
    u0 = rng.uniform(-0.3, 0.3)
    # below mu ~ 0.35 the breathing packet can push the learner into the
    # packet's tail, where the disruptor blows up and the run leaves the grid
    mu = rng.uniform(0.45, 0.7)
    # the coherent width of the unit trap is 1/sqrt(2) ~ 0.707: a wider packet
    # breathes, so the disruptor is nonzero along the run
    sigma = rng.uniform(0.9, 1.3)
    omega, m = 1.0, 1.0
    beta, lam = 1.0 - mu, 1.0 / m
    if not lam * omega * omega < 2.0 * (1.0 + beta):
        raise ValueError("quantum-learn parameters outside the stable region")
    text = (
        "experiment: learn\n"
        f"grid: {{x_min: {_f(GRID_X_MIN)}, x_max: {_f(GRID_X_MAX)}, n: {GRID_N}, periodic: true}}\n"
        f"physics: {{m: {_f(m)}, hbar: 1.0, mu: {_f(mu)}}}\n"
        f"potential: {{kind: harmonic, omega: {_f(omega)}}}\n"
        f"initial: {{kind: gaussian, x0: {_f(x0)}, u0: {_f(u0)}, sigma: {_f(sigma)}}}\n"
        f"disruptor: {{kind: field_sampled, pde_dt: {_f(LEARN_PDE_DT)}}}\n"
        f"run: {{steps: {LEARN_STEPS}, stop_tol: {_f(UNREACHABLE_STOP_TOL)}}}\n"
    )
    return Workload("quantum-learn", "learn", text, LEARN_STEPS,
                    {"x0": x0, "u0": u0, "mu": mu, "sigma": sigma, "omega": omega,
                     "m": m, "steps": LEARN_STEPS})


def _double_well_reach(x0: float, u0: float, m: float) -> float:
    """|x| bound of a damped trajectory started at (x0, u0) in the double well.

    Friction only removes energy, so V(x) stays below V(x0) + m u0^2 / 2; the
    bound solves x^4/4 - x^2/2 = E for the outer root.
    """
    energy = 0.25 * x0**4 - 0.5 * x0**2 + 0.5 * m * u0 * u0
    return math.sqrt(1.0 + math.sqrt(1.0 + 4.0 * energy))


def _descent_sweep(rng: random.Random) -> Workload:
    x0 = rng.uniform(-2.0, -1.3)
    u0 = rng.uniform(-0.05, 0.05)
    mus = sorted(rng.uniform(0.002, 0.012) for _ in range(SWEEP_POINTS))
    m = SWEEP_MASS
    lam = 1.0 / m
    # the discrete update is not exactly energy-decreasing: keep a 25% margin
    reach = 1.25 * _double_well_reach(x0, u0, m)
    max_curvature = 3.0 * reach * reach - 1.0
    if not lam * max_curvature < 2.0 * (1.0 + (1.0 - max(mus))):
        raise ValueError("descent-sweep parameters outside the stable region")
    values = ", ".join(_f(v) for v in mus)
    coeffs = ", ".join(_f(c) for c in SWEEP_COEFFS)
    text = (
        "experiment: sweep\n"
        f"grid: {{x_min: {_f(GRID_X_MIN)}, x_max: {_f(GRID_X_MAX)}, n: {GRID_N}, periodic: true}}\n"
        f"physics: {{m: {_f(m)}, hbar: 1.0, mu: {_f(mus[0])}}}\n"
        f"potential: {{kind: polynomial, coefficients: [{coeffs}]}}\n"
        f"initial: {{kind: gaussian, x0: {_f(x0)}, u0: {_f(u0)}}}\n"
        "disruptor: {kind: zero}\n"
        f"run: {{steps: {SWEEP_STEPS}, stop_tol: {_f(UNREACHABLE_STOP_TOL)}}}\n"
        f"sweep: {{parameter: physics.mu, values: [{values}], experiment: compare}}\n"
    )
    # both twins of every point take every step
    return Workload("descent-sweep", "sweep", text, 2 * SWEEP_STEPS * SWEEP_POINTS,
                    {"x0": x0, "u0": u0, "mus": mus, "m": m, "steps": SWEEP_STEPS,
                     "reach": reach})


_GENERATORS = {"relax": _relax, "quantum-learn": _quantum_learn,
               "descent-sweep": _descent_sweep}


def generate(name: str, seed: int) -> Workload:
    """The workload ``name`` drawn from ``seed``; equal seeds give equal text."""
    if name not in _GENERATORS:
        raise ValueError(f"unknown workload {name!r}, expected one of {WORKLOADS}")
    # mix the name in so that one seed draws independent values per workload
    return _GENERATORS[name](random.Random(f"{name}:{seed}"))
