#!/usr/bin/env python3
"""Print the sha256 of every data file of a fixed set of runs, as JSON.

The set covers each experiment kind: a relaxing coherent packet recorded
every step, a learner driven by a field-sampled disruptor, a sweep of
zero-disruptor twins, the default learn, evolve, compare and figure1
runs, an evolve without friction (mu = 0), a field-sampled learn with
hbar = 0.7 and time_scale = 0.5, an evolve from the coherent state at
m = 2 and hbar = 0.5, and a compare in a quartic potential.  Each run writes
into its own directory under --out; meta.json is left out because it holds
the wall time.  A change meant to leave the output unchanged to the bit is
checked by running this on both commits and comparing the two documents:

    python scripts/output_digest.py --out /tmp/a > a.json   # on each commit
    diff a.json b.json
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from quantum_descent.config import default_config, parse_config
from quantum_descent.experiments import run_experiment

GRID = "grid: {x_min: -20.0, x_max: 20.0, n: 2048, periodic: true}\n"

CONFIGS = {
    "relax": (
        "experiment: evolve\n" + GRID
        + "physics: {m: 1.0, hbar: 1.0, mu: 0.55}\n"
        "potential: {kind: harmonic, omega: 1.0}\n"
        "initial: {kind: coherent, x0: -4.5, u0: 0.2}\n"
        "run: {dt: 0.001, t_final: 2.0, snapshot_every: 200, scheme: split_step_spectral}\n"
    ),
    "quantum_learn": (
        "experiment: learn\n" + GRID
        + "physics: {m: 1.0, hbar: 1.0, mu: 0.55}\n"
        "potential: {kind: harmonic, omega: 1.0}\n"
        "initial: {kind: gaussian, x0: -3.0, u0: 0.1, sigma: 1.1}\n"
        "disruptor: {kind: field_sampled, pde_dt: 0.01}\n"
        "run: {steps: 30, stop_tol: 1.0e-200}\n"
    ),
    "descent_sweep": (
        "experiment: sweep\n" + GRID
        + "physics: {m: 20.0, hbar: 1.0, mu: 0.005}\n"
        "potential: {kind: polynomial, coefficients: [0.0, 0.0, -0.5, 0.0, 0.25]}\n"
        "initial: {kind: gaussian, x0: -1.6, u0: 0.01}\n"
        "disruptor: {kind: zero}\n"
        "run: {steps: 12000, stop_tol: 1.0e-200}\n"
        "sweep: {parameter: physics.mu, values: [0.003, 0.006, 0.009, 0.012], "
        "experiment: compare}\n"
    ),
    "frictionless": (
        "experiment: evolve\n" + GRID
        + "physics: {m: 1.0, hbar: 1.0, mu: 0.0}\n"
        "potential: {kind: harmonic, omega: 1.0}\n"
        "initial: {kind: gaussian, x0: -3.0, u0: 0.4, sigma: 1.2}\n"
        "run: {dt: 0.002, t_final: 1.0, snapshot_every: 100}\n"
    ),
    "field_sampled_hbar": (
        "experiment: learn\n" + GRID
        + "physics: {m: 1.0, hbar: 0.7, mu: 0.5}\n"
        "potential: {kind: harmonic, omega: 1.0}\n"
        "initial: {kind: gaussian, x0: -2.5, u0: 0.0, sigma: 1.0}\n"
        "disruptor: {kind: field_sampled, pde_dt: 0.01}\n"
        "run: {steps: 40, time_scale: 0.5}\n"
    ),
    "coherent_hbar_m": (
        "experiment: evolve\n" + GRID
        + "physics: {m: 2.0, hbar: 0.5, mu: 0.3}\n"
        "potential: {kind: harmonic, omega: 1.0}\n"
        "initial: {kind: coherent, x0: -3.0, u0: 0.5}\n"
        "run: {dt: 0.001, t_final: 1.0, snapshot_every: 250}\n"
    ),
    "quartic_compare": (
        "experiment: compare\n" + GRID
        + "physics: {m: 1.0, hbar: 1.0, mu: 0.3}\n"
        "potential: {kind: quartic, c: 0.5}\n"
        "initial: {kind: gaussian, x0: -1.2, u0: 0.0}\n"
        "disruptor: {kind: zero}\n"
        "run: {steps: 400, stop_tol: 1.0e-200}\n"
    ),
}
DEFAULTS = ("learn", "evolve", "compare", "figure1")


def digest(out: Path) -> dict:
    """Run every config into ``out``; map each data file's path to its sha256."""
    runs = {name: parse_config(text) for name, text in CONFIGS.items()}
    runs.update({f"default_{tag}": default_config(tag) for tag in DEFAULTS})
    sums = {}
    for name, cfg in runs.items():
        result = run_experiment(cfg, out_dir=out / name)
        sums[f"{name}/exit_code"] = result.exit_code
        for path in sorted((out / name).rglob("*")):
            if path.is_file() and path.name != "meta.json":
                key = path.relative_to(out).as_posix()
                sums[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return sums


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, help="directory the runs write into")
    args = ap.parse_args()
    print(json.dumps(digest(Path(args.out)), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
