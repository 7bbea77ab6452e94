#!/usr/bin/env python3
"""Convergence study: propagator order and quantum-potential stencil order.

Part 1 propagates the damped coherent state at a sequence of halved time steps
and reports the max |<x>(t) - x_ode(t)| error against the closed-form damped
oscillator; the ratio between consecutive rows should sit near 4 (2nd-order
splitting).  Part 2 evaluates the quantum potential of the periodic amplitude
R = exp(kappa cos(k x)), k = 2 pi / L, on doubling grids against its closed
form Q = -(hbar^2/2m) k^2 (kappa^2 sin^2(k x) - kappa cos(k x)) over the whole
grid, seam included; the error ratio should also approach 4 (2nd-order
stencils).
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from quantum_descent.dynamics import damped_oscillator_closed_form, evolve
from quantum_descent.fields import PhysicsParams, SpatialGrid, gaussian_packet
from quantum_descent.hydro import quantum_potential
from quantum_descent.learner import PotentialSpec


def propagator_errors(dts, t_final=5.0, mu=1.0, omega=1.0, n=2048):
    grid = SpatialGrid(-20.0, 20.0, n)
    params = PhysicsParams(m=1.0, hbar=1.0, mu=mu)
    potential = PotentialSpec.harmonic(omega)
    # the trap's ground state at hbar = m = 1, displaced to -5
    psi0 = gaussian_packet(grid, -5.0, sigma=1.0 / np.sqrt(2.0 * omega))
    errors = []
    for dt in dts:
        rec = evolve(psi0, potential, params, dt, t_final, snapshot_every=10 ** 9)
        exact = np.array([damped_oscillator_closed_form(-5.0, 0.0, mu, omega, t)[0]
                          for t in rec.times])
        errors.append(float(np.max(np.abs(rec.x_mean - exact))))
    return errors


def quantum_potential_errors(sizes, kappa=1.5, length=12.0):
    errors = []
    params = PhysicsParams(m=1.3, hbar=0.7, mu=1.0)
    k = 2.0 * np.pi / length
    for n in sizes:
        grid = SpatialGrid(-0.5 * length, 0.5 * length, n)
        y = k * grid.x
        q = quantum_potential(np.exp(kappa * np.cos(y)), grid, params)
        exact = -(params.hbar ** 2 / (2.0 * params.m)) * k ** 2 * (
            kappa ** 2 * np.sin(y) ** 2 - kappa * np.cos(y))
        errors.append(float(np.max(np.abs(q - exact))))
    return errors


def report(label, xs, errors):
    print(f"\n{label}")
    print(f"{'parameter':>12} {'max error':>14} {'ratio':>8}")
    for i, (x, e) in enumerate(zip(xs, errors)):
        ratio = f"{errors[i - 1] / e:8.3f}" if i else "       -"
        print(f"{x:>12g} {e:14.4e} {ratio}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=int, default=3, help="number of refinement levels")
    ap.add_argument("--dt0", type=float, default=4e-3, help="coarsest time step")
    args = ap.parse_args()

    dts = [args.dt0 / 2 ** k for k in range(args.levels)]
    report("propagator vs damped-oscillator closed form (halving dt)",
           dts, propagator_errors(dts))

    sizes = [256 * 2 ** k for k in range(args.levels)]
    report("quantum potential vs periodic-amplitude closed form (doubling n)",
           sizes, quantum_potential_errors(sizes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
