"""Columnar result files: CSV/JSON tables and run metadata.

All floating-point values are written with 17 significant digits (``%.17e``)
so that re-parsing a file reproduces the in-memory float64 exactly and two
runs of the same config produce byte-identical files.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

FLOAT_FMT = "%.17e"


def _plain_rows(rows) -> list:
    """Rows as lists of Python bool, int and float values."""
    if isinstance(rows, np.ndarray):
        return rows.tolist()
    return [[v.item() if isinstance(v, np.generic) else v for v in row] for row in rows]


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it.

    A run killed mid-write leaves at most the temporary file, never a
    truncated file under the final name.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_csv_table(path: Path, header: list, rows) -> None:
    """Write a single-header-row CSV with '.' decimals and %.17e floats.

    Integer and bool columns are written as integers.  A column's type is
    that of its value in the first row.
    """
    rows = _plain_rows(rows)
    lines = [",".join(header)]
    if rows:
        fmt = ",".join("%d" if isinstance(v, int) else FLOAT_FMT for v in rows[0])
        lines += [fmt % tuple(row) for row in rows]
    _write_atomic(path, "\n".join(lines) + "\n")


def write_json_table(path: Path, header: list, rows) -> None:
    """JSON mirror of a CSV table: {"header": [...], "rows": [[...], ...]}.

    float64 values survive a json round-trip exactly (repr-based encoding).
    """
    payload = {"header": list(header), "rows": _plain_rows(rows)}
    _write_atomic(path, json.dumps(payload, indent=1) + "\n")


def write_table(directory: Path, stem: str, header: list, rows, fmt: str) -> Path:
    """Write one table in the requested format; returns the created path."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown table format {fmt!r}")
    path = directory / f"{stem}.{fmt}"
    if fmt == "csv":
        write_csv_table(path, header, rows)
    else:
        write_json_table(path, header, rows)
    return path


def read_table(path: Path) -> tuple:
    """Parse a table written by :func:`write_table` back to (header, float array)."""
    path = Path(path)
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        if not isinstance(payload, dict) or not {"header", "rows"} <= payload.keys():
            raise ValueError(f"{path} is not a table: it needs the keys header and rows")
        return list(payload["header"]), np.asarray(payload["rows"], dtype=float)
    lines = path.read_text().strip().splitlines()
    if not lines:
        raise ValueError(f"{path} is empty")
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, np.asarray(rows, dtype=float)


def write_meta(path: Path, meta: dict) -> None:
    """Write a JSON document with sorted keys (meta.json, error.json)."""
    _write_atomic(path, json.dumps(meta, sort_keys=True, indent=2) + "\n")


def read_meta(path: Path) -> dict:
    return json.loads(Path(path).read_text())
