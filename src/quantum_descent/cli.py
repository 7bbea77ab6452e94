"""Command-line harness.

Subcommands mirror the experiment tags: learn, evolve, compare, figure1,
sweep.  Every run writes columnar data plus meta.json into the output
directory.  Exit codes: 0 success, 2 config error, 3 numerical failure,
4 divergence detected (partial data is still written), 1 anything else.
Failures also emit a one-line JSON report on stderr: for exit 3 and 4 the
object the run's error.json holds.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import EXPERIMENTS, OUTPUT_FORMATS, default_config, load_config
from .errors import ConfigError
from .experiments import EXIT_CONFIG, ExperimentResult, run_experiment

_HELP = {
    "learn": "discrete learning trajectory (momentum descent with a disruptor)",
    "evolve": "dissipative wavefunction propagation with density snapshots",
    "compare": "learning trajectory vs. classical momentum descent twin",
    "figure1": "density relaxation panel plus learner inset (flagship run)",
    "sweep": "repeat an experiment over a list of parameter values",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantum-descent",
        description="Quantum trajectories as momentum gradient descent: "
                    "experiment runner.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=_HELP[name])
        p.add_argument("--config", metavar="PATH", default=None,
                       help="YAML config file (all-defaults run if omitted)")
        p.add_argument("--out", metavar="DIR", default=None,
                       help="output directory (overrides config)")
        p.add_argument("--format", choices=OUTPUT_FORMATS, default=None,
                       help="table file format (overrides config)")
        p.add_argument("--quiet", action="store_true",
                       help="suppress the run summary on stdout")
    return parser


def _print_report(report: dict) -> None:
    print(json.dumps(report, sort_keys=True), file=sys.stderr)


def _report_error(code: int, status: str, err: Exception) -> int:
    """Report a config or I/O error, where no run exists; returns its exit code."""
    _print_report({"exit_code": code, "status": status,
                   "error": {"message": str(err), "step": None}})
    return code


def _summarize(result: ExperimentResult) -> str:
    meta = result.meta
    bits = [f"{meta['experiment']}: status={meta['status']}"]
    if "outcome" in meta:
        bits.append(f"outcome={meta['outcome']} steps={meta['steps_taken']} "
                    f"final_x={meta['final_x']:.3e}")
    if "final_x_mean" in meta:
        bits.append(f"final_<x>={meta['final_x_mean']:.3e} "
                    f"norm_drift={meta['norm_max_drift']:.2e}")
    if "density_argmax_last" in meta:
        bits.append(f"density argmax {meta['density_argmax_first']:+.3f} -> "
                    f"{meta['density_argmax_last']:+.3f}")
    if "max_abs_x_difference" in meta:
        bits.append(f"max|x_q - x_c|={meta['max_abs_x_difference']:.3e}")
    if "points" in meta:
        bits.append(f"{len(meta['points'])} points over {meta['parameter']}")
    bits.append(f"-> {result.out_dir}")
    return "  ".join(bits)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = (load_config(args.config, experiment=args.command) if args.config is not None
               else default_config(args.command))
        result = run_experiment(cfg, out_dir=args.out, fmt=args.format)
    except ConfigError as err:
        return _report_error(EXIT_CONFIG, "config_error", err)
    except OSError as err:
        return _report_error(1, "io_error", err)

    if not args.quiet:
        print(_summarize(result))
    if result.report is not None:
        _print_report(result.report)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
