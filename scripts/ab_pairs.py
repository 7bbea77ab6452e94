#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload with alternating pairs.

usage: python scripts/ab_pairs.py PARENT_DIR CHANGE_DIR --workload W --seed S
                                  --pairs N --seconds T

Each pair runs ``perfbench/run.py --trace 0`` of both checkouts, each its own
copy, one after the other.  Even pairs run the parent first and odd pairs the
change first, so a drift of the machine's speed within a pair does not
favour one side.  Prints one JSON document: the end-to-end metrics of every
pair, and per metric the median and interquartile range of each side, the
number of pairs the change wins and a verdict (see :func:`verdict`).
Whether lower or higher is better, and the bound by which a metric may
worsen, are read from the change's ``BENCHMARK.json``.  A run that fails
its checks or prints no result stops the comparison with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def order(pair: int) -> tuple:
    """The sides in the order pair number ``pair`` runs them."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def parse_result(stdout: str) -> dict:
    """The metric values of one ``perfbench/run.py`` output; its last line is the result."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the benchmark printed no result")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        raise ValueError(f"the benchmark run was not correct: {result.get('failed')} of "
                         f"{result.get('attempted')} runs failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def median_iqr(values: list) -> dict:
    """Median and distance between the quartiles (inclusive method)."""
    if len(values) < 2:
        return {"median": values[0], "iqr": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "iqr": q3 - q1}


def verdict(stats: dict, bound: float) -> str:
    """One metric's verdict from its summary ``stats`` and its ``bound``, a
    fraction of the parent's median.

    "gain": the change wins at least 9 of 10 pairs and its median is better
    than the parent's by more than the parent's IQR.  "regression": its
    median is worse than the parent's by more than the bound.  "unresolved":
    the parent's IQR is wider than the bound.  "no change": anything else.
    """
    parent, change = stats["parent"], stats["change"]
    sign = 1.0 if stats["better"] == "higher" else -1.0
    better_by = sign * (change["median"] - parent["median"])
    limit = bound * abs(parent["median"])
    if 10 * stats["change_wins"] >= 9 * stats["pairs"] and better_by > parent["iqr"]:
        return "gain"
    if -better_by > limit:
        return "regression"
    if parent["iqr"] > limit:
        return "unresolved"
    return "no change"


def summarize(pairs: list, metrics: dict) -> dict:
    """Per metric: each side's median and IQR, the pairs the change wins and
    the verdict.

    ``pairs`` holds ``{"parent": {metric: value}, "change": {...}}`` items;
    ``metrics`` maps each metric to its ``BENCHMARK.json`` entry, whose
    "better" is "lower" or "higher" and whose "bound" is a fraction.
    """
    summary = {}
    for name, declared in metrics.items():
        direction = declared["better"]
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        if direction == "higher":
            wins = sum(c > p for p, c in zip(parent, change))
        else:
            wins = sum(c < p for p, c in zip(parent, change))
        stats = {"better": direction, "parent": median_iqr(parent),
                 "change": median_iqr(change), "change_wins": wins, "pairs": len(pairs)}
        stats["verdict"] = verdict(stats, declared["bound"])
        summary[name] = stats
    return summary


def end_to_end_metrics(checkout: Path) -> dict:
    """{metric: its entry} of the checkout's end-to-end metrics."""
    declared = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in declared["end_to_end"]}


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    try:
        return parse_result(done.stdout)
    except ValueError as err:
        tail = " | ".join(done.stderr.strip().splitlines()[-3:])
        raise ValueError(f"{checkout}: {err} (exit {done.returncode}; {tail})") from err


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = end_to_end_metrics(checkouts["change"])
    pairs = []
    try:
        for i in range(args.pairs):
            pair = {"pair": i, "first": order(i)[0]}
            for side in order(i):
                pair[side] = run_side(checkouts[side], args.workload, args.seed, args.seconds)
            pairs.append(pair)
            print(f"pair {i}: " + ", ".join(f"{side} {pair[side]}" for side in SIDES),
                  file=sys.stderr)
    except ValueError as err:
        print(f"ab_pairs: {err}", file=sys.stderr)
        return 1
    summary = summarize(pairs, metrics)
    for name, stats in summary.items():
        print(f"{name}: {stats['verdict']}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "pairs": pairs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
