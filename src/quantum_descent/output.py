"""Columnar result files: CSV/JSON tables and run metadata.

All floating-point values are written with 17 significant digits (``%.17e``)
in CSV and as Python's shortest round-trip repr in JSON, so that re-parsing a
file reproduces the in-memory float64 exactly and two runs of the same config
produce byte-identical files.  Text that would be the same is rendered once:
a table equal to an earlier one of the same :func:`write_tables` call is a
copy of that one's file; in CSV, a float column holding one value is
formatted once per table, a block of a float column whose bits recur in
another table of the call is formatted once and reused (see
:class:`ColumnTexts`, which a sweep carries through all its points), a block
of a column in which some row repeats the row before formats each distinct
value once, and a block with one column left to format is joined, not
formatted row by row.  Both formats stream a table to disk in blocks of
about CELLS_PER_BLOCK cells (:func:`block_rows` rows), so a block's text is
bounded whatever the table's width, and no table's text is held whole.
"""

from __future__ import annotations

import json
import os
from collections import Counter
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


def _is_float_array(rows) -> bool:
    return isinstance(rows, np.ndarray) and rows.dtype == np.float64 and rows.ndim == 2


def _blocks(rows, width: int):
    """The blocks of ``block_rows(width)`` rows a table is written in."""
    step = block_rows(width)
    return (rows[i:i + step] for i in range(0, len(rows), step))


class ColumnTexts:
    """CSV text of float64 column blocks that recur across tables, kept from
    one :func:`write_tables` call to the next.

    :meth:`expect` hashes the bits of every column block of a call's tables;
    a block whose hash turns up in two or more of them is a repeat.  The
    blocks are those a table is written in, so a column recurs this way in
    tables of one width.  A repeat's text is formatted once and kept under
    its exact bits, so a hash collision can cost formatting, never a wrong
    byte.  :meth:`drop_unused` then keeps only the blocks the call looked
    up, so the text held is bounded by one call's repeats.
    """

    def __init__(self):
        self._repeats: set = set()
        self._kept: dict = {}
        self._used: dict = {}

    def expect(self, tables) -> None:
        """Note the column blocks that recur among the rows of ``tables``."""
        counts = Counter()
        for rows in filter(_is_float_array, tables):
            width = rows.shape[1]
            counts.update({hash(block[:, j].tobytes())
                           for block in _blocks(rows, width) for j in range(width)})
        self._repeats = {h for h, n in counts.items() if n > 1}

    def lines(self, column: np.ndarray) -> list | None:
        """The text of each value of a block's column if the block recurs, else None."""
        key = column.tobytes()
        if hash(key) not in self._repeats:
            return None
        # kept as one string, a third of the memory of one string per value;
        # a block's text is never empty, so "or" passes on misses only
        text = (self._used.get(key) or self._kept.pop(key, None)
                or "\n".join([FLOAT_FMT % v for v in column.tolist()]))
        self._used[key] = text
        return text.split("\n")

    def drop_unused(self) -> None:
        """Keep only the text looked up since the last call."""
        self._kept, self._used = self._used, {}


def _constant_columns(rows: np.ndarray) -> list:
    """Per column of a 2-D float64 array, its one value if every row holds
    the same bits there, else None."""
    width = rows.shape[1]
    if not len(rows):
        return [None] * width
    # compared a block at a time, so no table-sized array is formed
    bits, same = rows.view(np.uint64), np.ones(width, dtype=bool)
    for block in _blocks(bits, width):
        same &= (block == bits[0]).all(axis=0)
        if not same.any():
            return [None] * width
    return [rows[0, j] if same[j] else None for j in range(width)]


def _distinct_texts(column: np.ndarray) -> list | None:
    """The text of each value of a block's float column if some row repeats
    the bits of the row before, each distinct bit pattern formatted once
    (so -0.0 and 0.0 stay apart), else None."""
    bits = column.view(np.uint64)
    if not (bits[1:] == bits[:-1]).any():
        return None
    distinct, where = np.unique(bits, return_inverse=True)
    texts = np.array([FLOAT_FMT % v for v in distinct.view(np.float64).tolist()], dtype=object)
    return texts[where].tolist()


def _float_csv_blocks(rows: np.ndarray, texts: ColumnTexts | None):
    """The CSV text of a 2-D float64 array's rows, a block at a time.

    A column of one value enters each row's template as its text formatted
    once.  The other columns of a block are zipped, each as text where it
    recurs in another table (see :class:`ColumnTexts`) or repeats a row
    (see :func:`_distinct_texts`), else as floats to format, and each row is
    one %-template applied to them.  A template of one field is the text
    around that field, joined over its values.
    """
    constant = [None if v is None else FLOAT_FMT % v for v in _constant_columns(rows)]
    for block in _blocks(rows, rows.shape[1]):
        cells, columns = [], []
        for j, text in enumerate(constant):
            if text is None:
                column = block[:, j]
                lines = (texts and texts.lines(column)) or _distinct_texts(column)
                text = field = FLOAT_FMT if lines is None else "%s"
                columns.append(column.tolist() if lines is None else lines)
            cells.append(text)
        line = ",".join(cells) + "\n"
        # a float's text holds no "%", so a line without columns is its own
        # text, and the field of a line with one column is its first "%"
        if not columns:
            yield line * len(block)
        elif len(columns) == 1:
            head, _, tail = line.partition(field)
            values = columns[0] if field == "%s" else [FLOAT_FMT % v for v in columns[0]]
            yield head + (tail + head).join(values) + tail
        else:
            yield "".join([line % row for row in zip(*columns)])


def _table_chunks(header: list, rows, fmt: str, texts: ColumnTexts | None):
    """The text of a table in ``fmt``: its head, its rows a block of
    :func:`block_rows` rows at a time, and its tail.

    A CSV float64 array is written by :func:`_float_csv_blocks`.  Other CSV
    rows are each one %-format, a column's format being that of its value in
    the first row: integers and bools as integers, anything else as
    ``%.17e``.  A JSON table is the text of
    ``json.dumps({"header": header, "rows": rows}, indent=1)`` plus a
    newline; each block is ``json.dumps`` of its rows, indented one level
    deeper and without the brackets around them.
    """
    if fmt == "csv":
        yield ",".join(header) + "\n"
        if _is_float_array(rows):
            yield from _float_csv_blocks(rows, texts)
            return
        first = _plain_rows(rows[:1])[0] if len(rows) else []
        line = ",".join("%d" if isinstance(v, int) else FLOAT_FMT for v in first) + "\n"
        for block in _blocks(rows, len(header)):
            yield "".join([line % tuple(row) for row in _plain_rows(block)])
        return
    # the table without rows, cut after the "[" that opens them
    head = json.dumps({"header": list(header), "rows": []}, indent=1)[:-3]
    if not len(rows):
        yield head + "]\n}\n"
        return
    yield head + "\n"
    for i, block in enumerate(_blocks(rows, len(header))):
        text = json.dumps(_plain_rows(block), indent=1)
        # a JSON string holds no raw newline, so this indents lines only
        yield (",\n " if i else " ") + text[2:-2].replace("\n", "\n ")
    yield "\n ]\n}\n"


def write_table(directory: Path, stem: str, header: list, rows, fmt: str,
                texts: ColumnTexts | None = None) -> Path:
    """Write one table in the requested format; returns the created path.

    ``texts`` holds the text of recurring CSV column blocks (see
    :class:`ColumnTexts`); without it every cell is formatted.
    """
    if fmt not in OUTPUT_FORMATS:
        raise ValueError(f"unknown table format {fmt!r}")
    path = directory / f"{stem}.{fmt}"
    _write_atomic(path, _table_chunks(header, rows, fmt, texts))
    return path


def _same_table(a: tuple, b: tuple) -> bool:
    """Whether two (header, rows) tables hold the same header and the same
    float64 rows to the bit (so -0.0 differs from 0.0 and equal NaNs match)."""
    (header_a, rows_a), (header_b, rows_b) = a, b
    return (list(header_a) == list(header_b)
            and _is_float_array(rows_a) and _is_float_array(rows_b)
            and rows_a.shape == rows_b.shape
            and np.array_equal(rows_a.view(np.uint64), rows_b.view(np.uint64)))


def write_tables(directory: Path, tables: dict, fmt: str,
                 texts: ColumnTexts | None = None) -> list:
    """Write ``{stem: (header, rows)}`` in order; returns the file names.

    A table equal to an earlier one of the call (see :func:`_same_table`) is
    not rendered again: its file is an atomic copy of that one's, 64 KiB of
    text at a time.  The CSV text of a float column block that recurs in the
    tables rendered is formatted once, and ``texts`` carries it on to the
    next call that passes it (a fresh store serves this call alone).
    """
    texts = ColumnTexts() if texts is None else texts
    originals, plan = [], []
    for stem, table in tables.items():
        source = next((earlier for earlier, original in originals
                       if _same_table(table, original)), None)
        if source is None:
            originals.append((stem, table))
        plan.append((stem, table, source))
    if fmt == "csv":
        texts.expect([rows for _, (_, rows) in originals])
    names = []
    for stem, table, source in plan:
        if source is None:
            path = write_table(directory, stem, *table, fmt, texts)
        else:
            path = directory / f"{stem}.{fmt}"
            with open(directory / f"{source}.{fmt}") as text:
                _write_atomic(path, iter(lambda: text.read(1 << 16), ""))
        names.append(path.name)
    texts.drop_unused()
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
