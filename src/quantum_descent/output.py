"""Columnar result files: CSV/JSON tables and run metadata.

All floating-point values are written with 17 significant digits (``%.17e``)
in CSV and as Python's shortest round-trip repr in JSON, so that re-parsing a
file reproduces the in-memory float64 exactly and two runs of the same config
produce byte-identical files.  Text that would be the same is rendered once:
a float column holding one value is formatted once per CSV table, and a table
equal to an earlier one of the same :func:`write_tables` call is a copy of
that one's file.  Both formats stream a table to disk in blocks of about
CELLS_PER_BLOCK cells (:func:`block_rows` rows), so a block's text is
bounded whatever the table's width, and no table's text is held whole.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

OUTPUT_FORMATS = ("csv", "json")
FLOAT_FMT = "%.17e"
# cells of a table formatted and written at a time
CELLS_PER_BLOCK = 4096


def block_rows(width: int) -> int:
    """Rows of a ``width``-column table formatted and written at a time."""
    return max(1, CELLS_PER_BLOCK // width)


def _plain_rows(rows) -> list:
    """Rows as lists of Python bool, int and float values."""
    if isinstance(rows, np.ndarray):
        return rows.tolist()
    return [[v.item() if isinstance(v, np.generic) else v for v in row] for row in rows]


def _write_atomic(path: Path, chunks) -> None:
    """Write the text ``chunks`` to a temporary file beside ``path``, then rename it.

    A run killed mid-write leaves at most the temporary file, never a
    truncated file under the final name.  A whole text comes in a list: a
    bare string would be written one character at a time.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _constant_columns(rows) -> list:
    """Per column of a non-empty 2-D float64 array, its one value if every
    row holds the same bits there, else None; empty if no column does or
    the rows are not such an array."""
    if not (isinstance(rows, np.ndarray) and rows.dtype == np.float64
            and rows.ndim == 2 and len(rows)):
        return []
    # compared a block at a time, so no table-sized array is formed
    bits, same = rows.view(np.uint64), np.ones(rows.shape[1], dtype=bool)
    step = block_rows(rows.shape[1])
    for i in range(0, len(rows), step):
        same &= (bits[i:i + step] == bits[0]).all(axis=0)
        if not same.any():
            return []
    return [rows[0, j] if same[j] else None for j in range(rows.shape[1])]


def _cell_formats(rows) -> tuple:
    """Per column, the %-format of its CSV values or, for a float64 column
    that holds one value, that value's text; and the columns that are
    formatted (None for all of them).

    A column's format is that of its value in the first row: integers and
    bools as integers, anything else as ``%.17e``.
    """
    constant = _constant_columns(rows)
    if constant:
        cells = [FLOAT_FMT if v is None else (FLOAT_FMT % v).replace("%", "%%")
                 for v in constant]
        return cells, [j for j, v in enumerate(constant) if v is None]
    first = _plain_rows(rows[:1])[0] if len(rows) else []
    return ["%d" if isinstance(v, int) else FLOAT_FMT for v in first], None


def _table_chunks(header: list, rows, fmt: str):
    """The text of a table in ``fmt``: its head, its rows a block of
    :func:`block_rows` rows at a time, and its tail.

    A CSV row is one %-format (see :func:`_cell_formats`) applied to the
    values of the columns that are formatted.  A JSON table is the text of
    ``json.dumps({"header": header, "rows": rows}, indent=1)`` plus a
    newline; each block is ``json.dumps`` of its rows, indented one level
    deeper and without the brackets around them.
    """
    step = block_rows(len(header))
    if fmt == "csv":
        cells, columns = _cell_formats(rows)
        line = ",".join(cells) + "\n"
        yield ",".join(header) + "\n"
        for i in range(0, len(rows), step):
            block = rows[i:i + step]
            if columns is not None:
                block = block[:, columns]
            yield "".join([line % tuple(row) for row in _plain_rows(block)])
        return
    # the table without rows, cut after the "[" that opens them
    head = json.dumps({"header": list(header), "rows": []}, indent=1)[:-3]
    if not len(rows):
        yield head + "]\n}\n"
        return
    yield head + "\n"
    for i in range(0, len(rows), step):
        text = json.dumps(_plain_rows(rows[i:i + step]), indent=1)
        # a JSON string holds no raw newline, so this indents lines only
        yield (",\n " if i else " ") + text[2:-2].replace("\n", "\n ")
    yield "\n ]\n}\n"


def write_table(directory: Path, stem: str, header: list, rows, fmt: str) -> Path:
    """Write one table in the requested format; returns the created path."""
    if fmt not in OUTPUT_FORMATS:
        raise ValueError(f"unknown table format {fmt!r}")
    path = directory / f"{stem}.{fmt}"
    _write_atomic(path, _table_chunks(header, rows, fmt))
    return path


def _same_table(a: tuple, b: tuple) -> bool:
    """Whether two (header, rows) tables hold the same header and the same
    float64 rows to the bit (so -0.0 differs from 0.0 and equal NaNs match)."""
    (header_a, rows_a), (header_b, rows_b) = a, b
    return (list(header_a) == list(header_b)
            and all(isinstance(r, np.ndarray) and r.dtype == np.float64
                    for r in (rows_a, rows_b))
            and rows_a.shape == rows_b.shape
            and np.array_equal(rows_a.view(np.uint64), rows_b.view(np.uint64)))


def write_tables(directory: Path, tables: dict, fmt: str) -> list:
    """Write ``{stem: (header, rows)}`` in order; returns the file names.

    A table equal to an earlier one of the call (see :func:`_same_table`) is
    not rendered again: its file is an atomic copy of that one's, line by line.
    """
    names, written = [], []
    for stem, table in tables.items():
        source = next((path for earlier, path in written if _same_table(table, earlier)), None)
        if source is None:
            path = write_table(directory, stem, *table, fmt)
            written.append((table, path))
        else:
            path = directory / f"{stem}.{fmt}"
            with open(source) as lines:
                _write_atomic(path, lines)
        names.append(path.name)
    return names


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
    _write_atomic(path, [json.dumps(meta, sort_keys=True, indent=2), "\n"])


def read_meta(path: Path) -> dict:
    return json.loads(Path(path).read_text())
