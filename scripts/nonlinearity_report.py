#!/usr/bin/env python3
"""How far the Kostin evolution departs from linearity, against the friction mu.

usage: python scripts/nonlinearity_report.py [--mu MU ...]

The friction term mu (S - <S>) psi is the equation's one nonlinear term, so
the evolution U is linear at mu = 0 and departs from linearity as mu grows.
For two Gaussian packets a (at -3, p 0.3, sigma 1) and b (at 2, p -0.2,
sigma 0.8) in the harmonic trap, on 2048 points of [-20, 20), the script
evolves a + i b / 2, a and b for 200 steps of 0.005 (t = 1) and prints, as
JSON, the linearity residual

    || U(a + i b / 2) - U(a) - i U(b) / 2 || / || a + i b / 2 ||

at each mu: roundoff at mu = 0, and about 0.9 mu per unit time for small mu.
It needs numpy and the package only.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from quantum_descent.dynamics import KostinPropagator  # noqa: E402
from quantum_descent.fields import PhysicsParams, SpatialGrid, gaussian_packet  # noqa: E402
from quantum_descent.learner import PotentialSpec  # noqa: E402

GRID = SpatialGrid(-20.0, 20.0, 2048)
DT, STEPS = 0.005, 200


def residual(mu: float) -> float:
    """The linearity residual of the packet pair after STEPS steps at friction mu."""
    a = gaussian_packet(GRID, -3.0, p0=0.3, sigma=1.0).values
    b = gaussian_packet(GRID, 2.0, p0=-0.2, sigma=0.8).values
    prop = KostinPropagator(GRID, PotentialSpec.harmonic(1.0),
                            PhysicsParams(m=1.0, hbar=1.0, mu=mu), DT)
    states = [a + 0.5j * b, a, b]
    for _ in range(STEPS):
        states = [prop.step(values) for values in states]
    mixed, ua, ub = states
    return float(np.linalg.norm(mixed - ua - 0.5j * ub) / np.linalg.norm(a + 0.5j * b))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--mu", type=float, nargs="+", default=[0.0, 0.01, 0.05, 0.1, 0.3, 0.6, 1.0],
                    help="friction values, each in [0, 1]")
    args = ap.parse_args(argv)
    try:
        rows = [{"mu": mu, "residual": residual(mu)} for mu in args.mu]
    except ValueError as err:  # a friction outside [0, 1]
        ap.error(str(err))
    print(json.dumps({"dt": DT, "t": DT * STEPS, "rows": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
