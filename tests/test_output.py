"""Table writers: exact float round-trips and byte determinism."""

import builtins
import io
import json
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantum_descent import output
from quantum_descent.output import (CELL_BYTES, CELLS_PER_BLOCK, SEPARATOR_BYTE,
                                    block_rows, read_meta, read_table, render_cells, write_meta,
                                    write_table, write_tables)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


@given(st.lists(st.tuples(finite_floats, finite_floats), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_csv_round_trip_is_exact(rows):
    import tempfile
    from pathlib import Path
    with tempfile.TemporaryDirectory() as d:
        arr = np.array(rows, dtype=float)
        path = write_table(Path(d), "table", ["a", "b"], arr, "csv")
        header, back = read_table(path)
        assert header == ["a", "b"]
        assert np.array_equal(back, arr)  # bit-exact, including signed zeros' values


@given(st.lists(st.tuples(finite_floats, finite_floats), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_json_round_trip_is_exact(rows):
    import tempfile
    from pathlib import Path
    with tempfile.TemporaryDirectory() as d:
        arr = np.array(rows, dtype=float)
        path = write_table(Path(d), "table", ["a", "b"], arr, "json")
        header, back = read_table(path)
        assert header == ["a", "b"]
        assert np.array_equal(back, arr)


def test_extreme_magnitudes_survive(tmp_path):
    arr = np.array([[5e-324, 1.7976931348623157e308],
                    [-2.2250738585072014e-308, 123456789.123456789]])
    path = write_table(tmp_path, "extreme", ["lo", "hi"], arr, "csv")
    _, back = read_table(path)
    assert np.array_equal(back, arr)


def test_csv_layout(tmp_path):
    arr = np.array([[1.0, 0.5], [2.0, 0.25]])
    path = write_table(tmp_path, "t", ["t", "x"], arr, "csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x"
    assert len(lines) == 3
    # scientific notation with 17 decimal digits and '.' separator
    assert lines[1] == "1.00000000000000000e+00,5.00000000000000000e-01"


def test_identical_rows_identical_bytes(tmp_path):
    arr = np.linspace(0, 1, 50).reshape(25, 2)
    p1 = write_table(tmp_path, "one", ["a", "b"], arr, "csv")
    p2 = write_table(tmp_path, "two", ["a", "b"], arr.copy(), "csv")
    assert p1.read_bytes() == p2.read_bytes()


def test_meta_round_trip_and_key_order(tmp_path):
    meta = {"zeta": 1.5, "alpha": {"nested": [1, 2, 3]}, "flag": True}
    write_meta(tmp_path / "meta.json", meta)
    assert read_meta(tmp_path / "meta.json") == meta
    text = (tmp_path / "meta.json").read_text()
    assert text.index('"alpha"') < text.index('"zeta"')  # sorted keys


class _FailingFileIO(io.FileIO):
    """A file that takes its first ``limit`` bytes, then fails as a full disk
    would; ``written`` counts the bytes it took."""

    def __init__(self, name, mode, limit):
        super().__init__(name, mode)
        self.limit, self.written = limit, 0

    def write(self, b):
        if self.written + len(b) <= self.limit:
            self.written += len(b)
            return super().write(b)
        taken = super().write(bytes(b[:self.limit - self.written]))
        self.written += taken
        raise OSError("disk full")


def _fail_writes_after(monkeypatch, limit):
    """Make every file opened for writing, except one whose name starts with
    ``kept.``, fail after ``limit`` bytes; returns the failing files opened."""
    real_open, opened = open, []

    def failing_open(file, mode="r", *args, **kwargs):
        if "w" not in mode or Path(file).name.startswith("kept."):
            return real_open(file, mode, *args, **kwargs)
        opened.append(_FailingFileIO(file, "w", limit))
        buffered = io.BufferedWriter(opened[-1])
        return buffered if "b" in mode else io.TextIOWrapper(buffered)

    monkeypatch.setattr(builtins, "open", failing_open)
    monkeypatch.setattr(io, "open", failing_open)
    return opened


TABLE = (["a"], np.arange(100.0).reshape(100, 1))


@pytest.mark.parametrize("write", [
    lambda d: write_table(d, "t", ["a"], np.arange(100.0).reshape(100, 1), "csv"),
    lambda d: write_table(d, "t", ["a"], np.arange(100.0).reshape(100, 1), "json"),
    lambda d: write_meta(d / "meta.json", {"k": list(range(100))}),
    # a duplicate table is a copy of the kept one's file, and the copy fails
    lambda d: write_tables(d, {"kept": TABLE, "t": (["a"], TABLE[1].copy())}, "csv"),
    lambda d: write_tables(d, {"kept": TABLE, "t": (["a"], TABLE[1].copy())}, "json"),
])
def test_failed_write_leaves_no_file_under_the_final_name(tmp_path, monkeypatch, write):
    """A write that fails after part of its text reached the disk leaves no
    file under the final name, and no temporary file either."""
    opened = _fail_writes_after(monkeypatch, 64)
    with pytest.raises(OSError):
        write(tmp_path)
    assert [f.written for f in opened] == [64]
    assert [p.name for p in tmp_path.iterdir() if not p.name.startswith("kept.")] == []


def _fail_in_the_second_block(tmp_path, monkeypatch, fmt, first_block):
    """Write a one-column table of two blocks and a row in ``fmt``, failing
    100 bytes after its head and first block, ``first_block`` bytes, reached
    the disk; no file is left."""
    n = 2 * block_rows(1) + 1
    limit = first_block + 100
    opened = _fail_writes_after(monkeypatch, limit)
    with pytest.raises(OSError):
        write_table(tmp_path, "t", ["a"], np.arange(float(n)).reshape(n, 1), fmt)
    assert [f.written for f in opened] == [limit]
    assert list(tmp_path.iterdir()) == []


def test_write_failing_in_a_later_block_leaves_no_file(tmp_path, monkeypatch):
    """A CSV table of three blocks whose write fails in its second block:
    the first block reached the disk, and no file is left."""
    first_block = len("a\n") + sum(len("%.17e\n" % v) for v in range(block_rows(1)))
    _fail_in_the_second_block(tmp_path, monkeypatch, "csv", first_block)


def test_json_write_failing_in_a_later_block_leaves_no_file(tmp_path, monkeypatch):
    """The same for a JSON table: its head and first block are the document
    of the first block's rows without the text that closes it."""
    rows = [[float(v)] for v in range(block_rows(1))]
    first_block = len(json.dumps({"header": ["a"], "rows": rows}, indent=1)) - len("\n ]\n}")
    _fail_in_the_second_block(tmp_path, monkeypatch, "json", first_block)


def test_block_rows_hold_a_fixed_number_of_cells():
    """A block holds CELLS_PER_BLOCK cells, rounded down to whole rows, and
    at least one row however wide the table."""
    assert block_rows(1) == CELLS_PER_BLOCK
    assert block_rows(12) == CELLS_PER_BLOCK // 12
    assert block_rows(CELLS_PER_BLOCK + 1) == 1


def _write_peak_bytes(tmp_path, n, k, fmt):
    """tracemalloc's peak above the start while write_table writes an
    ``n`` x ``k`` table of random floats, none of its columns constant."""
    rows = np.random.default_rng(n).standard_normal((n, k))
    header = [f"c{j}" for j in range(k)]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        write_table(tmp_path, f"t{n}x{k}", header, rows, fmt)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("shape", [(20480, 12), (2048, 48)], ids=["ten_times_the_rows",
                                                                  "four_times_the_columns"])
def test_write_peak_memory_does_not_grow_with_the_table(tmp_path, fmt, shape):
    """A table streams to disk a block of a fixed number of cells at a time:
    writing a 2048 x 12 table with ten times the rows, or four times the
    columns, peaks within a tenth of it."""
    small = _write_peak_bytes(tmp_path, 2048, 12, fmt)
    large = _write_peak_bytes(tmp_path, *shape, fmt)
    assert large <= 1.1 * small, (small, large)


# --- the float renderer against plain %.17e -----------------------------------


def ref_cell(value) -> str:
    """The per-cell reference: Python's correctly rounded ``%.17e``."""
    return "%.17e" % value


def ref_csv(header, rows) -> str:
    return "".join([",".join(header) + "\n"]
                   + [",".join(ref_cell(v) for v in row) + "\n" for row in rows.tolist()])


def _rendered(values) -> list:
    """The text of each cell render_cells makes of ``values``; every cell
    leaves its separator byte and the bytes after it NUL."""
    cells = render_cells(np.asarray(values, dtype=np.float64)).reshape(-1, CELL_BYTES)
    assert not cells[:, SEPARATOR_BYTE:].any()
    return [bytes(cell).replace(b"\0", b"").decode() for cell in cells]


def _assert_renders_the_reference(values):
    assert _rendered(values) == [ref_cell(v) for v in np.asarray(values).reshape(-1).tolist()]


# raw 64-bit patterns; the second half sets the exponent field to where the
# patterns are rare among all of them: zeros and subnormals (0), the edges
# of the normals and of the range rendered without %.17e (about 1e-250 and
# 1e250), infinities and NaNs of any payload (0x7ff)
float_bits = st.one_of(
    st.integers(0, 2 ** 64 - 1),
    st.builds(lambda sign, exponent, mantissa: sign << 63 | exponent << 52 | mantissa,
              st.integers(0, 1),
              st.sampled_from([0, 1, 2, 191, 192, 193, 1853, 1854, 1855, 0x7fe, 0x7ff]),
              st.one_of(st.integers(0, 2 ** 52 - 1), st.sampled_from([0, 1, 2 ** 52 - 1]))))


@given(st.lists(float_bits, min_size=1, max_size=64))
@settings(max_examples=400, deadline=None)
def test_render_cells_writes_the_bytes_of_percent_17e(bits):
    _assert_renders_the_reference(np.array(bits, dtype=np.uint64).view(np.float64))


@pytest.mark.parametrize("shape", [(0,), (1,), (3, 4), (2, 3, 5)])
def test_render_cells_keeps_the_shape_of_its_input(shape):
    values = np.random.default_rng(len(shape)).standard_normal(shape)
    assert render_cells(values).shape == shape + (CELL_BYTES,)
    _assert_renders_the_reference(values)


def test_render_cells_at_the_neighbours_of_powers_of_ten():
    """log10 can misjudge the decade of a value next to a power of ten."""
    nearest = np.array([float(f"1e{k}") for k in range(-320, 309)])
    values = np.concatenate([nearest, np.nextafter(nearest, 0.0), np.nextafter(nearest, np.inf)])
    _assert_renders_the_reference(np.concatenate([values, -values]))


def test_a_value_that_rounds_into_the_next_decade():
    """The double nearest 1e153 lies below 10**153, by less than half of an
    18th digit, so %.17e writes it as 1 in the next decade."""
    assert 1e153 < 10 ** 153
    assert _rendered([1e153, -1e153]) == ["1.00000000000000000e+153",
                                          "-1.00000000000000000e+153"]


def _is_tie(value) -> bool:
    """Whether ``value`` lies halfway between two 18-digit decimals: its
    exact digits, n * 5**j for n / 2**j, are 19 without trailing zeros and
    end in a 5."""
    n, d = abs(value).as_integer_ratio()
    digits = str(n * 5 ** (d.bit_length() - 1)).rstrip("0")
    return len(digits) == 19 and digits.endswith("5")


def _ties(count, seed):
    """Doubles n / 2**j, n odd, whose 19 significant digits n * 5**j end in
    a 5: %.17e rounds each to even at the 18th digit."""
    rng, ties = np.random.default_rng(seed), []
    while len(ties) < count:
        j = int(rng.integers(4, 27))
        low, high = -(-10 ** 18 // 5 ** j), min(10 ** 19 // 5 ** j, 2 ** 53)
        n = int(rng.integers(low, high)) | 1
        if n * 5 ** j < 10 ** 19:
            ties.append(n / 2 ** j * (-1) ** len(ties))
    assert all(map(_is_tie, ties))
    return np.array(ties)


def test_ties_of_the_eighteenth_digit_are_formatted_one_at_a_time():
    """A value within 2**-30 of a half at the 18th digit, as every tie is,
    goes to %.17e on its own; half of the ties round down and half up."""
    ties = _ties(3000, 5)
    with mock.patch.object(output, "_formatted", wraps=output._formatted) as formatted:
        _assert_renders_the_reference(ties)
    assert formatted.call_count == len(ties)
    last = [int(ref_cell(v).split("e")[0][-1]) for v in ties.tolist()]
    assert all(d % 2 == 0 for d in last)


def test_ordinary_values_are_rendered_without_a_format_call():
    """Zeros and finite values with |x| in [1e-250, 1e250] are rendered by
    numpy, unless they are ties (doubles near 1e14 with a binary fraction
    can be); the values outside go to %.17e, one at a time."""
    rng = np.random.default_rng(11)
    ordinary = np.concatenate([rng.standard_normal(4000) * 10.0 ** rng.integers(-240, 240, 4000),
                               [0.0, -0.0, 1e-250, -1e250, 0.5, 12000.0, 2.0 ** -52]])
    outside = np.array([np.nan, -np.inf, np.inf, 5e-324, -2.2250738585072014e-308, 1e-251,
                        1.7976931348623157e308, -1e300])
    with mock.patch.object(output, "_formatted", wraps=output._formatted) as formatted:
        _assert_renders_the_reference(np.concatenate([ordinary, outside]))
    ties = [v for v in ordinary.tolist() if _is_tie(v)]
    assert len(ties) < 10
    called = np.array([float(c.args[0]) for c in formatted.call_args_list])
    assert np.array_equal(called.view(np.uint64), np.array(ties + outside.tolist()).view(np.uint64))


def test_a_block_mixing_constant_recurring_and_formatted_cells(tmp_path):
    """A table of more than two blocks whose columns are constant (one of
    -0.0), shared with another table of the call, fresh, and fresh with
    cells rendered by %.17e alone (NaN, infinities, subnormals, a tie): each
    file holds the bytes of write_table alone and of the per-cell
    reference, and a constant column is rendered only in the first row."""
    n = 2 * block_rows(6) + 3
    rng = np.random.default_rng(3)
    t = np.arange(float(n))
    odd = rng.standard_normal(n)
    odd[np.arange(6) * (n // 6)] = [np.nan, np.inf, -np.inf, 5e-324, _ties(1, 0)[0], -1e300]
    rows = np.column_stack([t, np.full(n, -0.0), rng.standard_normal(n), odd,
                            np.full(n, np.nan), rng.standard_normal(n) * 1e-200])
    header = ["t", "zero", "x", "odd", "missing", "small"]
    tables = {"mixed": (header, rows),
              "shares_t": (["t", "a", "b", "c", "d", "e"],
                           np.column_stack([t, rng.standard_normal((n, 5))]))}
    with mock.patch.object(output, "render_cells", wraps=output.render_cells) as rendered, \
            mock.patch.object(output, "_formatted", wraps=output._formatted) as formatted:
        write_tables(tmp_path, tables, "csv")
    (tmp_path / "alone").mkdir()
    # per table, its first row, then each block's columns that are not constant
    step = block_rows(6)
    shapes = [(len(rows[i:i + step]), width) for i in range(0, n, step) for width in (4, 6)]
    assert sorted(c.args[0].shape for c in rendered.call_args_list) == sorted(
        [(6,), (6,)] + shapes)
    assert formatted.call_count >= 6
    for stem, table in tables.items():
        alone = write_table(tmp_path / "alone", stem, *table, "csv")
        data = (tmp_path / f"{stem}.csv").read_bytes()
        assert data == alone.read_bytes()
        assert data.decode() == ref_csv(*table)
