#!/usr/bin/env python3
"""How far the field-sampled learner columns move when psi0 moves by one ulp.

usage: python scripts/ulp_sensitivity.py --out DIR

Runs the field-sampled learns of ``output_digest.py`` (``quantum_learn`` and
``field_sampled_hbar``) as configured, into DIR/<run>, and again through the
package API (Wavefunction, FieldSampledDisruptor, run_learner) with the
initial wavefunction moved by one ulp, into DIR/<run>_<move>: ``scale``
multiplies it by (1 + 2**-52) and ``turn`` by exp(i 2**-52), a global phase.
Prints, per run, move and column, the largest absolute difference from the
configured trajectory as JSON.  The learner feeds the disruptor back into
the packet it samples, so these columns amplify roundoff, by an amount that
depends on the direction of the change; a change that moves their bits can
be held to this yardstick: a difference from the parent no larger than the
parent's own response to a 1-ulp change of its input.

The API run without a move must reproduce the configured run to the
bit, or the yardstick would measure something else; if it does not, the
script exits 1.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from output_digest import CONFIGS  # noqa: E402  (puts the package on sys.path)
from quantum_descent.config import parse_config  # noqa: E402
from quantum_descent.experiments import TRAJECTORY_HEADER, run_experiment  # noqa: E402
from quantum_descent.fields import Wavefunction, gaussian_packet  # noqa: E402
from quantum_descent.learner import FieldSampledDisruptor, run_learner  # noqa: E402
from quantum_descent.output import read_table, write_table  # noqa: E402

RUNS = ("quantum_learn", "field_sampled_hbar")
ULP_MOVES = {"scale": 1.0 + 2.0**-52, "turn": np.exp(1j * 2.0**-52)}


def learner_rows(cfg, factor: complex) -> np.ndarray:
    """The trajectory of the configured learn with psi0 multiplied by ``factor``."""
    init = cfg.initial
    psi0 = gaussian_packet(cfg.grid, init.x0, p0=cfg.p0, sigma=init.sigma,
                           hbar=cfg.physics.hbar)
    disruptor = FieldSampledDisruptor(Wavefunction(psi0.values * factor, cfg.grid),
                                      cfg.potential.spec, cfg.physics,
                                      pde_dt=cfg.disruptor.pde_dt,
                                      macro_time=cfg.run.time_scale)
    run = run_learner(init.x0, init.u0, cfg.potential.spec, disruptor, cfg.physics,
                      steps=cfg.run.steps, stop_tol=cfg.run.stop_tol,
                      time_scale=cfg.run.time_scale)
    return run.rows


def sensitivity(out: Path) -> dict:
    report = {}
    for name in RUNS:
        cfg = parse_config(CONFIGS[name])
        run_experiment(cfg, out_dir=out / name)
        header, configured = read_table(out / name / "trajectory.csv")
        if not np.array_equal(learner_rows(cfg, 1.0), configured):
            raise SystemExit(f"{name}: the API run does not reproduce the configured run")
        report[name] = {}
        for move, factor in ULP_MOVES.items():
            moved = learner_rows(cfg, factor)
            (out / f"{name}_{move}").mkdir(parents=True, exist_ok=True)
            write_table(out / f"{name}_{move}", "trajectory", TRAJECTORY_HEADER, moved, "csv")
            n = min(len(moved), len(configured))
            report[name][move] = {
                column: float(np.max(np.abs(moved[:n, k] - configured[:n, k])))
                for k, column in enumerate(header)}
    return report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, help="directory the runs write into")
    args = ap.parse_args()
    print(json.dumps(sensitivity(Path(args.out)), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
