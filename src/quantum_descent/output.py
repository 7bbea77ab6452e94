"""Columnar result files: CSV/JSON tables and run metadata.

All floating-point values are written with 17 significant digits (``%.17e``)
in CSV and as Python's shortest round-trip repr in JSON, so that re-parsing a
file reproduces the in-memory float64 exactly and two runs of the same config
produce byte-identical files.  A CSV float table is rendered by numpy, not by
a Python format call per cell: :func:`render_cells` turns an array of floats
into the bytes of ``%.17e``, exact to the byte, and hands the few cells it
cannot decide exactly to ``%.17e`` one at a time.  Text that would be the same
is rendered once: a table equal to an earlier one of the same
:func:`write_tables` call is a copy of that one's file, and in CSV the
float columns after the last column whose value changes are rendered from
the first row only: a block renders the columns up to that one, and one
``bytes.replace`` puts the constant columns' text in at each row's end.
Both formats stream a table to disk in blocks of about CELLS_PER_BLOCK cells
(:func:`block_rows` rows), so a block's text is bounded whatever the table's
width, and no table's text is held whole.
"""

from __future__ import annotations

import functools
import json
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np

OUTPUT_FORMATS = ("csv", "json")
FLOAT_FMT = "%.17e"
# cells of a table formatted and written at a time
CELLS_PER_BLOCK = 4096

# A rendered cell is seven little-endian 32-bit words of ASCII, NUL-padded:
# the sign or NUL, the first digit, "." and the second digit; the next 16
# digits, four a word; "e", the exponent's sign and its first two digits; its
# third digit or NUL, the separator (SEPARATOR_BYTE) and two NULs.  A text
# that %.17e forms one cell at a time takes the first 25 bytes.
CELL_BYTES = 28
SEPARATOR_BYTE = 25
_WORD = np.dtype("<u4")
# the decades of |x| rendered by numpy; outside, the scaled products below
# could overflow or lose bits to underflow
_DECADES = range(-252, 253)
_RENDERED_MIN, _RENDERED_MAX = 1e-250, 1e250
# a scaled value whose fraction lies this near a half, as every 19-digit tie
# does, is rounded by %.17e; the product's error is below 1e-13
_TIE_GUARD = 2.0 ** -30
_DEKKER_SPLIT = 134217729.0  # 2**27 + 1


def block_rows(width: int) -> int:
    """Rows of a ``width``-column table formatted and written at a time."""
    return max(1, CELLS_PER_BLOCK // width)


def _plain_rows(rows) -> list:
    """Rows as lists of Python bool, int and float values."""
    if isinstance(rows, np.ndarray):
        return rows.tolist()
    return [[v.item() if isinstance(v, np.generic) else v for v in row] for row in rows]


def _write_atomic(path: Path, chunks) -> None:
    """Write the byte ``chunks`` to a temporary file beside ``path``, then rename it.

    A run killed mid-write leaves at most the temporary file, never a
    truncated file under the final name.  A whole text comes in a list: a
    bare bytes object would be written one byte at a time.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
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


def _split(a):
    """Dekker's split of ``a`` into a high and a low half of 26 bits each."""
    c = _DEKKER_SPLIT * a
    high = c - (c - a)
    return high, a - high


def _power_of_ten(p: int) -> tuple:
    """10**p as a double-double (hi, lo): hi is 10**p and lo the rest, each
    correctly rounded, from Python integers."""
    if p >= 0:
        hi = float(10 ** p)
        return hi, float(10 ** p - int(hi))
    # hi = num / den with den a power of two; the rest is 1 / 10**-p - hi
    hi = 1 / 10 ** -p
    num, den = hi.as_integer_ratio()
    return hi, (den - num * 10 ** -p) / (den * 10 ** -p)


def _words(texts) -> np.ndarray:
    """Texts of at most four ASCII bytes as NUL-padded little-endian words."""
    return np.frombuffer(b"".join(t.encode().ljust(4, b"\0") for t in texts), _WORD)


@functools.cache
def _render_tables() -> SimpleNamespace:
    """The read-only tables :func:`render_cells` looks up, built on its first
    call: per decade k, 10**(17 - k) as a double-double with its high part
    split, and the words of the exponent's text; the words of the first two
    digits around the point, and of each group of four digits."""
    hi, lo = np.array([_power_of_ten(17 - k) for k in _DECADES]).T
    hi_high, hi_low = _split(hi)
    exponents = ["e%+03d" % k for k in _DECADES]
    # "0000" to "9999" by broadcasting the ten digits to each place: built
    # from 10 000 strings, the table would take a MiB of transient objects
    quads = np.empty((10, 10, 10, 10, 4), np.uint8)
    for place in range(4):
        shape = [1, 1, 1, 1]
        shape[place] = 10
        quads[..., place] = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8).reshape(shape)
    tables = SimpleNamespace(
        hi=hi, hi_high=hi_high, hi_low=hi_low, lo=lo,
        lead=_words("\0%d.%d" % divmod(i, 10) for i in range(100)),
        quads=quads.view(_WORD).reshape(10000),
        exponent_head=_words(e[:4] for e in exponents),
        exponent_tail=_words(e[4:] for e in exponents))
    for table in vars(tables).values():
        table.setflags(write=False)
    return tables


def _scaled(a: np.ndarray, k: np.ndarray, tables) -> tuple:
    """``a * 10**(17 - k)`` as its floor (int64) and its fraction in [0, 1).

    The product with the high part of the power is exact (Dekker's two
    product); with the low part and its rounding, the error is below 1e-13
    where the product is below 1e19."""
    i = k - _DECADES.start
    hi, hi_high, hi_low = tables.hi[i], tables.hi_high[i], tables.hi_low[i]
    a_high, a_low = _split(a)
    product = a * hi
    rest = ((a_high * hi_high - product) + a_high * hi_low + a_low * hi_high) + a_low * hi_low
    rest += a * tables.lo[i]
    whole = np.floor(rest)
    return product.astype(np.int64) + whole.astype(np.int64), rest - whole


def _formatted(value: float) -> bytes:
    """The ``%.17e`` bytes of one value, for a cell render_cells cannot decide."""
    return (FLOAT_FMT % value).encode()


def render_cells(values: np.ndarray) -> np.ndarray:
    """The ``%.17e`` text of each float64 of ``values`` as a cell of
    CELL_BYTES bytes (see CELL_BYTES), in a uint8 array of shape
    ``values.shape + (CELL_BYTES,)``; the separator byte is NUL.

    The 18 digits of a value x in decade k are the round-half-even of
    ``|x| * 10**(17 - k)``.  k comes from log10 and is corrected once, for
    the product unrounded, to put it in [10**17, 10**18); one that rounds to
    10**18 is written as 1 in the next decade, as %.17e does.  A cell is
    formatted by %.17e alone where that cannot be decided exactly: x not
    finite, |x| outside [1e-250, 1e250] and not zero, or a product within
    2**-30 of a half.
    """
    tables = _render_tables()
    x = values.reshape(-1)
    a = np.abs(x)
    zero = a == 0
    exact = zero | ((a >= _RENDERED_MIN) & (a <= _RENDERED_MAX))
    a[zero | ~exact] = 1.0
    k = np.floor(np.log10(a)).astype(np.intp)
    digits, fraction = _scaled(a, k, tables)
    below, above = digits < 10 ** 17, digits >= 10 ** 18
    moved = below | above
    if moved.any():
        k += above
        k -= below
        digits[moved], fraction[moved] = _scaled(a[moved], k[moved], tables)
    digits += fraction > 0.5
    exact &= ((np.abs(fraction - 0.5) >= _TIE_GUARD)
              & (digits >= 10 ** 17) & (digits <= 10 ** 18))
    rolled = digits == 10 ** 18
    digits[rolled] = 10 ** 17
    k += rolled
    digits[zero] = 0
    k[zero] = 0

    # the digits as 2 + 4 + 4 and 4 + 4 (floor division by a constant is
    # several times faster than divmod)
    head = digits // 10 ** 8
    tail = digits - head * 10 ** 8
    middle = head // 10 ** 4
    lead = middle // 10 ** 4
    low = tail // 10 ** 4
    cells = np.empty((x.size, CELL_BYTES // 4), _WORD)
    cells[:, 0] = tables.lead.take(lead) + np.signbit(x) * _WORD.type(ord("-"))
    cells[:, 1] = tables.quads.take(middle - lead * 10 ** 4)
    cells[:, 2] = tables.quads.take(head - middle * 10 ** 4)
    cells[:, 3] = tables.quads.take(low)
    cells[:, 4] = tables.quads.take(tail - low * 10 ** 4)
    k -= _DECADES.start
    cells[:, 5] = tables.exponent_head.take(k)
    cells[:, 6] = tables.exponent_tail.take(k)
    cells = cells.view(np.uint8)
    for i in np.flatnonzero(~exact):
        text = _formatted(x[i])
        cells[i] = 0
        cells[i, :len(text)] = np.frombuffer(text, np.uint8)
    return cells.reshape(values.shape + (CELL_BYTES,))


def _constant_columns(rows: np.ndarray) -> np.ndarray:
    """Per column of a 2-D float64 array with rows, whether every row holds
    the bits of the first there."""
    bits, same = rows.view(np.uint64), np.ones(rows.shape[1], dtype=bool)
    # compared a block at a time, so no table-sized array is formed
    for block in _blocks(bits, rows.shape[1]):
        same &= (block == bits[0]).all(axis=0)
        if not same.any():
            break
    return same


def _float_csv_blocks(rows: np.ndarray):
    """The CSV bytes of a 2-D float64 array's rows, a block at a time.

    Row 0 is rendered once, for the text of the columns of one value.  A
    table of such columns alone repeats that row's text.  Otherwise a
    block renders its columns up to the last that changes together (see
    :func:`render_cells`), puts their separators in and drops the NULs that
    pad the cells; one ``bytes.replace`` then puts the text of the constant
    columns after those in at each row's end.
    """
    if not len(rows):
        return
    width = rows.shape[1]
    same = _constant_columns(rows)
    texts = [cell.tobytes().translate(None, b"\0") for cell in render_cells(rows[0])]
    if same.all():
        line = b",".join(texts) + b"\n"
        for block in _blocks(rows, width):
            yield line * len(block)
        return
    rendered = int(np.flatnonzero(~same)[-1]) + 1
    seps = np.full(rendered, ord(","), np.uint8)
    seps[-1] = ord("\n")
    tail = b"".join(b"," + text for text in texts[rendered:]) + b"\n"
    for block in _blocks(rows, width):
        cells = render_cells(block[:, :rendered])
        cells[..., SEPARATOR_BYTE] = seps
        data = cells.tobytes().translate(None, b"\0")
        yield data.replace(b"\n", tail) if rendered < width else data


def _table_chunks(header: list, rows, fmt: str):
    """The bytes of a table in ``fmt``: its head, its rows a block of
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
        yield (",".join(header) + "\n").encode()
        if _is_float_array(rows):
            yield from _float_csv_blocks(rows)
            return
        first = _plain_rows(rows[:1])[0] if len(rows) else []
        line = ",".join("%d" if isinstance(v, int) else FLOAT_FMT for v in first) + "\n"
        for block in _blocks(rows, len(header)):
            yield "".join([line % tuple(row) for row in _plain_rows(block)]).encode()
        return
    # the table without rows, cut after the "[" that opens them
    head = json.dumps({"header": list(header), "rows": []}, indent=1)[:-3]
    if not len(rows):
        yield (head + "]\n}\n").encode()
        return
    yield (head + "\n").encode()
    for i, block in enumerate(_blocks(rows, len(header))):
        text = json.dumps(_plain_rows(block), indent=1)
        # a JSON string holds no raw newline, so this indents lines only
        yield ((",\n " if i else " ") + text[2:-2].replace("\n", "\n ")).encode()
    yield b"\n ]\n}\n"


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
            and _is_float_array(rows_a) and _is_float_array(rows_b)
            and rows_a.shape == rows_b.shape
            and np.array_equal(rows_a.view(np.uint64), rows_b.view(np.uint64)))


def write_tables(directory: Path, tables: dict, fmt: str) -> list:
    """Write ``{stem: (header, rows)}`` in order; returns the file names.

    A table equal to an earlier one of the call (see :func:`_same_table`) is
    not rendered again: its file is an atomic copy of that one's bytes,
    64 KiB at a time.
    """
    originals, names = [], []
    for stem, table in tables.items():
        source = next((earlier for earlier, original in originals
                       if _same_table(table, original)), None)
        if source is None:
            originals.append((stem, table))
            path = write_table(directory, stem, *table, fmt)
        else:
            path = directory / f"{stem}.{fmt}"
            with open(directory / f"{source}.{fmt}", "rb") as data:
                _write_atomic(path, iter(lambda: data.read(1 << 16), b""))
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
    _write_atomic(path, [json.dumps(meta, sort_keys=True, indent=2).encode(), b"\n"])


def read_meta(path: Path) -> dict:
    return json.loads(Path(path).read_text())
