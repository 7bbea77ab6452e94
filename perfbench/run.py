"""Benchmark entry point for quantum-descent.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's YAML config from the seed, then runs the public CLI
on it in fresh processes, each run timed from process start to exit (all
files written), until ``--seconds`` have passed.  Every run's output is
checked (see checks.py); a nonzero exit code or a failed check counts as a
failed run.

``--trace 0`` measures the end-to-end metrics with tracing off.  Each
iteration times a fixed reference process, one set-up process (import the
package and load the config) and one full run; the set-up and run times are
scaled by the reference time to cancel the drift of a shared machine's speed
(see README.md).  ``--trace 1`` alternates untraced runs with runs of the
CLI under the outside-in tracer and reports the per-layer metrics; the gap
between the two median wall times is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the
program's source tree (``src/quantum_descent``) next to this directory the
benchmark prints no result and exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark's directory free of caches

import checks  # noqa: E402
from workloads import WORKLOADS, Workload, generate  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

RUN_TIMEOUT_S = 60.0
MIN_ITERATIONS = 3

SETUP_CODE = ("import sys, quantum_descent\n"
              "from quantum_descent.config import load_config\n"
              "load_config(sys.argv[1])\n")

# A fixed process that uses nothing of the program: interpreter start-up, a
# numpy import, FFTs and elementwise passes on 2048-point complex arrays, an
# interpreter loop and %.17e formatting -- the kinds of work the workloads do.
# Its time tracks the speed of the shared machine, which drifts by tens of
# percent within minutes; each iteration's times are scaled by the reference
# time of the same iteration to a machine on which it takes REFERENCE_NOMINAL_S.
REFERENCE_CODE = """
import numpy as np
x = np.exp(1j * np.linspace(0.0, 50.0, 2048))
k = np.exp(-1j * np.linspace(0.0, 1.0, 2048))
for _ in range(600):
    x = np.fft.ifft(k * np.fft.fft(x))
    x = x * np.exp(1j * 1e-3 * np.abs(x))
s = 0.0
for i in range(300000):
    s += (i % 7) * 0.5
text = ",".join("%.17e" % (i * 0.1) for i in range(80000))
"""
REFERENCE_NOMINAL_S = 0.5

PER_LAYER_UNITS = {
    "dynamics.steps": "count", "dynamics.step_s": "s", "dynamics.step_us": "us",
    "dynamics.evolve_self_s": "s", "dynamics.fft_flops.computed": "flop/step",
    "dynamics.bytes.computed": "B/step",
    "fields.polar_calls": "count", "fields.polar_s": "s", "fields.polar_per_step": "calls/step",
    "fields.node_warnings": "count",
    "derivatives.calls": "count", "derivatives.s": "s",
    "hydro.disruptor_calls": "count", "hydro.disruptor_s": "s", "hydro.sample_calls": "count",
    "learner.updates": "count", "learner.self_s": "s", "learner.update_us": "us",
    "learner.dis_samples": "count",
    "experiments.self_s": "s", "experiments.points": "count",
    "experiments.concurrency": "ratio", "experiments.point_wait_s": "s",
    "output.tables": "count", "output.bytes": "B", "output.write_s": "s",
    "output.mb_per_s": "MB/s",
    "config.load_s": "s", "cli.main_s": "s",
    "dynamics.x_err": "1", "dynamics.u_err": "1", "dynamics.norm_drift": "1",
    "hydro.dis_center": "1",
    "trace.overhead_s": "s", "trace.wall_s": "s",
}
# counts a traced run of one seed must repeat exactly
REPEATED_COUNTS = ("dynamics.steps", "fields.polar_calls", "hydro.disruptor_calls",
                   "learner.updates", "output.bytes")


class Runner:
    """Runs one workload's processes inside a private scratch directory."""

    def __init__(self, wl: Workload, work: Path):
        self.wl = wl
        self.work = work
        self.config = work / "config.yaml"
        self.config.write_text(wl.yaml_text)
        self.env = dict(os.environ)
        # the program's byte code is cached in src/ by the warm-up run, as an
        # installed package's would be, whatever the caller's environment says
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.serial = 0
        self.errors: list = []

    def _spawn(self, argv: list, stderr_path: Path) -> tuple[float, float, int]:
        """Run argv to completion; returns (wall seconds, peak RSS MB, exit code)."""
        with open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=self.work,
                                    stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
                killer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def _fail(self, what: str, stderr_path: Path) -> None:
        tail = stderr_path.read_text(errors="replace").strip().splitlines()[-3:]
        self.errors.append(f"{what}: {' | '.join(tail)}")

    def _time_code(self, what: str, code_text: str, *args: str) -> float | None:
        err = self.work / f"{what}.err"
        wall, _, code = self._spawn([sys.executable, "-c", code_text, *args], err)
        if code != 0:
            self._fail(f"{what} exited with {code}", err)
            return None
        return wall

    def setup(self) -> float | None:
        """Time one fresh process that imports the package and loads the config."""
        return self._time_code("set-up", SETUP_CODE, str(self.config))

    def reference(self) -> float | None:
        """Time one run of the fixed reference process."""
        return self._time_code("reference", REFERENCE_CODE)

    def run(self, traced: bool) -> dict | None:
        """One full CLI run, checked; None if it failed."""
        self.serial += 1
        out = self.work / f"out_{self.serial}"
        err = self.work / f"run_{self.serial}.err"
        summary = self.work / f"trace_{self.serial}.json"
        cli_args = [self.wl.experiment, "--config", str(self.config), "--out", str(out),
                    "--quiet"]
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(summary)] + cli_args
        else:
            argv = [sys.executable, "-m", "quantum_descent.cli"] + cli_args
        wall, rss, code = self._spawn(argv, err)
        try:
            if code != 0:
                self._fail(f"run exited with {code}", err)
                return None
            try:
                accuracy = checks.check(self.wl, out)
            except checks.CheckFailure as failure:
                self.errors.append(f"check failed: {failure}")
                return None
            result = {"wall_s": wall, "peak_rss_mb": rss, "accuracy": accuracy}
            if traced:
                result["layers"] = json.loads(summary.read_text())
            return result
        finally:
            shutil.rmtree(out, ignore_errors=True)
            err.unlink(missing_ok=True)
            summary.unlink(missing_ok=True)


def _spread(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"min={min(values):.6g} max={max(values):.6g} n={len(values)}"


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for ``seconds``; returns the result object."""
    wl = generate(name, seed)
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(wl, work)
        attempted = failed = 0
        untraced, traced = [], []

        def iterate(with_setup: bool, with_trace: bool) -> dict | None:
            nonlocal attempted, failed
            attempted += 1
            ref = runner.reference() if with_setup else 0.0
            setup = runner.setup() if with_setup else 0.0
            run = runner.run(with_trace)
            if ref is None or setup is None or run is None:
                failed += 1
                return None
            return {**run, "reference_s": ref, "setup_s": setup}

        # warm-up: compiles the package's byte code and fills the file cache
        iterate(with_setup=True, with_trace=False)
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < seconds or i < MIN_ITERATIONS + trace:
            with_trace = trace and i % 2 == 1
            run = iterate(with_setup=not trace, with_trace=with_trace)
            if run is not None:
                (traced if with_trace else untraced).append(run)
            elif not (untraced or traced):
                break  # nothing to measure; report the failure
            i += 1

        if trace:
            metrics, mismatched = _layer_metrics(wl, untraced, traced, runner)
            failed += mismatched
        else:
            metrics = _end_to_end(wl, untraced)
        for line in runner.errors[:5]:
            print(f"[{name}] FAILED {line}", file=sys.stderr)
        return {"correct": failed == 0 and bool(metrics), "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it


def _end_to_end(wl: Workload, runs: list) -> dict:
    """End-to-end metrics; times scaled by the reference run of the same iteration."""
    if not runs:
        return {}
    for key in ("wall_s", "setup_s", "reference_s"):
        values = [r[key] for r in runs]
        print(f"[{wl.name}] measured {key} median={statistics.median(values):.6f} {_spread(values)}")
    wall = statistics.median(r["wall_s"] * REFERENCE_NOMINAL_S / r["reference_s"] for r in runs)
    setup = statistics.median(r["setup_s"] * REFERENCE_NOMINAL_S / r["reference_s"] for r in runs)
    return {"wall_s": (wall, "s"),
            "setup_s": (setup, "s"),
            "units_per_s": (wl.units / (wall - setup), "1/s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB")}


def _layer_metrics(wl: Workload, untraced: list, traced: list,
                   runner: Runner) -> tuple[dict, int]:
    """Per-layer metrics, and how many traced runs broke a repeated count."""
    if not traced or not untraced:
        return {}, 0
    layers = [r["layers"] for r in traced]
    mismatched = 0
    for lay in layers[1:]:
        differ = [k for k in REPEATED_COUNTS if lay[k] != layers[0][k]]
        if differ:
            mismatched += 1
            runner.errors.append(f"counts {differ} differ between runs of one seed")
    # counts (ints) repeat exactly; times are the median over the traced runs
    metrics = {k: v if isinstance(v, int) else statistics.median(lay[k] for lay in layers)
               for k, v in layers[0].items()}
    accuracy = traced[-1]["accuracy"]
    for key in ("dynamics.x_err", "dynamics.u_err", "dynamics.norm_drift", "hydro.dis_center"):
        metrics[key] = accuracy.get(key.split(".")[1], 0.0)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    print(f"[{wl.name}] traced wall_s median={traced_wall:.6f}, untraced {untraced_wall:.6f}, "
          f"overhead {traced_wall - untraced_wall:+.6f} s over {len(traced)}/{len(untraced)} runs")
    return {k: (metrics[k], PER_LAYER_UNITS[k]) for k in PER_LAYER_UNITS}, mismatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "quantum_descent" / "__init__.py").is_file():
        print(f"no program source at {SRC}/quantum_descent; run from a full checkout",
              file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
