#!/usr/bin/env python3
"""Compare the data files of two output trees, column by column, as JSON.

Both trees are laid out as ``output_digest.py --out`` writes them: one
directory per run, tables in CSV or JSON.  For every data file (meta.json is
left out: it holds the wall time) the report says whether the two files are
identical and, for a table that is not, gives per column the largest
absolute difference and that difference over the column's largest magnitude
on either side.  A change that alters bits states a tolerance and checks it
against the parent's files with:

    python scripts/output_digest.py --out /tmp/a > /dev/null   # on each commit
    python scripts/compare_outputs.py /tmp/a /tmp/b

Exits 1 when a data file exists on one side only, or when two tables differ
in header or shape; numeric differences are reported, not judged.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from quantum_descent.output import read_table


def data_files(root: Path) -> set:
    return {p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file() and p.name != "meta.json"}


def compare_tables(a: Path, b: Path) -> dict:
    """Per column: max |b - a| and that over max |column| of both sides."""
    header_a, rows_a = read_table(a)
    header_b, rows_b = read_table(b)
    if header_a != header_b:
        return {"identical": False, "mismatch": f"header {header_a} vs {header_b}"}
    if rows_a.shape != rows_b.shape:
        return {"identical": False, "mismatch": f"shape {rows_a.shape} vs {rows_b.shape}"}
    columns = {}
    for name, col_a, col_b in zip(header_a, rows_a.T, rows_b.T):
        delta = np.abs(col_b - col_a)
        delta[(col_a == col_b) | (np.isnan(col_a) & np.isnan(col_b))] = 0.0
        delta[np.isnan(delta)] = np.inf  # NaN on one side only
        max_abs = float(delta.max(initial=0.0))
        scale = float(np.nanmax(np.abs(np.concatenate((col_a, col_b))), initial=0.0))
        columns[name] = {"max_abs": max_abs, "max_rel": max_abs / scale if scale else 0.0}
    return {"identical": False, "columns": columns}


def compare(root_a: Path, root_b: Path) -> tuple:
    """(report, ok): the JSON report and whether both trees have the same files
    and the same table shapes."""
    files_a, files_b = data_files(root_a), data_files(root_b)
    report = {"only_in_a": sorted(files_a - files_b),
              "only_in_b": sorted(files_b - files_a), "files": {}}
    ok = files_a == files_b
    for key in sorted(files_a & files_b):
        a, b = root_a / key, root_b / key
        if a.read_bytes() == b.read_bytes():
            entry = {"identical": True}
        elif a.suffix in (".csv", ".json") and a.name != "error.json":
            entry = compare_tables(a, b)
        else:
            entry = {"identical": False}
        ok = ok and "mismatch" not in entry
        report["files"][key] = entry
    return report, ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("a", type=Path, help="output tree of the reference (parent) run")
    ap.add_argument("b", type=Path, help="output tree of the run to compare")
    args = ap.parse_args()
    report, ok = compare(args.a, args.b)
    print(json.dumps(report, indent=1, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
