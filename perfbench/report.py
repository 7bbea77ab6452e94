"""Print every benchmark metric for all workloads, with a correctness verdict.

usage: python3 perfbench/report.py [--seed N] [--seconds S] [--trace]

Runs each workload of run.py in turn and prints one table row per metric and
workload: the end-to-end metrics, plus ``error_rate`` (failed runs over
attempted runs, which run.py reports as ``failed`` and ``attempted``).
With ``--trace`` it also runs each workload traced and prints the per-layer
metrics, tracing overhead included.  Exits with 0 only if every run passed.
"""

from __future__ import annotations

import argparse
import sys

import run
from workloads import WORKLOADS


def _rows(name: str, result: dict) -> list:
    rows = [(name, k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
    rows.append((name, "error_rate", result["failed"] / result["attempted"], "1"))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if not (run.SRC / "quantum_descent" / "__init__.py").is_file():
        print(f"no program source at {run.SRC}/quantum_descent", file=sys.stderr)
        return 2

    modes = (False, True) if args.trace else (False,)
    rows, verdicts = [], []
    for trace in modes:
        for name in WORKLOADS:
            result = run.measure(name, args.seed, args.seconds, trace)
            verdicts.append((name, trace, result["correct"]))
            rows.extend(_rows(name, result))

    print(f"\n{'workload':<15}{'metric':<30}{'value':>18}  unit")
    for name, metric, value, unit in rows:
        print(f"{name:<15}{metric:<30}{value:>18.6g}  {unit}")
    failed = [f"{n}{' (traced)' if t else ''}" for n, t, ok in verdicts if not ok]
    print(f"\nverdict: {'FAIL ' + ', '.join(failed) if failed else 'PASS'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
