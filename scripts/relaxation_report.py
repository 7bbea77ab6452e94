#!/usr/bin/env python3
"""How a packet relaxes to the ground state under friction, against t and mu.

usage: python scripts/relaxation_report.py [--mu MU ...] [--n N] [--dt DT]
                                           [--t-final T] [--every DT_PRINT]

Friction drains energy until V + Q is one constant E0 over the packet, so
the disruptor cancels the gradient there (Dis = V'/m) and the descent stops
in the ground state (README, "Where the descent ends").  For two settings on
N points of [-8, 8):

* double_well: V = 0.5 x^4 - x^2 - 0.15 x, hbar 0.6, m 1, a Gaussian of
  sigma 0.5 at -1.26;
* odd_trap: the harmonic trap, hbar = m = 1, the odd packet
  x exp(-x^2 / (2 * 1.3^2)), which friction takes to the ground state,
  not to the first excited one;

the script evolves the packet at each mu and prints, every DT_PRINT time
units,

* <H> - E0, with <T> from the spectrum;
* <V+Q>_rho - E0, whose floor is the dx^2 error of Q's stencil;
* Var_rho(V+Q);
* the stopping residual ||V'/m - Dis||_rho / ||V'/m||_rho, where
  ||f||_rho^2 = sum rho f^2 dx.

E0 is the lowest eigenvalue of the spectral-kinetic Hamiltonian on the same
grid, from a dense eigensolve.  It needs numpy and the package only.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from quantum_descent.dynamics import evolve  # noqa: E402
from quantum_descent.fields import (PhysicsParams, SpatialGrid, Wavefunction,  # noqa: E402
                                    gaussian_packet)
from quantum_descent.hydro import disruptor_field, quantum_potential  # noqa: E402
from quantum_descent.learner import PotentialSpec  # noqa: E402

# name: (potential, hbar, initial state on a grid)
SETTINGS = {
    "double_well": (PotentialSpec.polynomial([0.0, -0.15, -1.0, 0.0, 0.5]), 0.6,
                    lambda grid: gaussian_packet(grid, -1.26, sigma=0.5, hbar=0.6)),
    "odd_trap": (PotentialSpec.harmonic(1.0), 1.0,
                 lambda grid: Wavefunction(
                     (grid.x * np.exp(-grid.x ** 2 / (2.0 * 1.3 ** 2))).astype(complex),
                     grid).normalized()),
}
COLUMNS = ("t", "<H> - E0", "<V+Q> - E0", "Var(V+Q)", "residual")


def kinetic_energies(grid: SpatialGrid, params: PhysicsParams) -> np.ndarray:
    """hbar^2 k^2 / 2m at the grid's DFT frequencies."""
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
    return (params.hbar * k) ** 2 / (2.0 * params.m)


def ground_energy(grid: SpatialGrid, potential: PotentialSpec, params: PhysicsParams) -> float:
    """The lowest eigenvalue of the spectral-kinetic Hamiltonian on ``grid``."""
    kinetic = kinetic_energies(grid, params)
    H = np.fft.ifft(kinetic[:, None] * np.fft.fft(np.eye(grid.n), axis=0), axis=0).real
    return float(np.linalg.eigvalsh(H + np.diag(potential.evaluate(grid.x)))[0])


def row(values, grid, potential, params, e0) -> tuple:
    """The report's quantities, less t, for the state ``values``."""
    R = np.abs(values)
    rho = R * R * grid.dx
    v = potential.evaluate(grid.x)
    kinetic = np.sum(kinetic_energies(grid, params) * np.abs(np.fft.fft(values)) ** 2)
    energy = kinetic * grid.dx / grid.n + np.sum(v * rho)
    vq = v + quantum_potential(R, grid, params)
    mean = np.sum(rho * vq)
    force = potential.gradient(grid.x) / params.m
    gap = force - disruptor_field(R, grid, params)
    residual = np.sqrt(np.sum(rho * gap ** 2) / np.sum(rho * force ** 2))
    return energy - e0, mean - e0, np.sum(rho * (vq - mean) ** 2), residual


def report(name, mu, args) -> None:
    potential, hbar, initial = SETTINGS[name]
    grid = SpatialGrid(-8.0, 8.0, args.n)
    params = PhysicsParams(m=1.0, hbar=hbar, mu=mu)
    e0 = ground_energy(grid, potential, params)
    rec = evolve(initial(grid), potential, params, args.dt, args.t_final,
                 snapshot_every=max(1, round(args.every / args.dt)))
    print(f"\n{name}: mu = {mu:g}, E0 = {e0:.10f}, n = {grid.n}, dt = {args.dt:g}")
    print(f"{COLUMNS[0]:>8}" + "".join(f"{c:>14}" for c in COLUMNS[1:]))
    for t, values in zip(rec.snapshot_times, rec.snapshots):
        cells = row(values, grid, potential, params, e0)
        print(f"{t:8.3f}" + "".join(f"{c:14.4e}" for c in cells))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--mu", type=float, nargs="+", default=[0.3, 0.6],
                    help="friction values, each in [0, 1]")
    ap.add_argument("--n", type=int, default=512, help="grid points (a power of two)")
    ap.add_argument("--dt", type=float, default=0.01, help="time step")
    ap.add_argument("--t-final", type=float, default=40.0, help="time to relax for")
    ap.add_argument("--every", type=float, default=5.0, help="time between printed rows")
    args = ap.parse_args(argv)
    try:
        for name in SETTINGS:
            for mu in args.mu:
                report(name, mu, args)
    except ValueError as err:  # a friction, grid or time step the propagator rejects
        ap.error(str(err))
    return 0


if __name__ == "__main__":
    sys.exit(main())
