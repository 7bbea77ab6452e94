"""Table writers: exact float round-trips and byte determinism."""

import builtins
import io
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantum_descent.output import (CELLS_PER_BLOCK, ColumnTexts, block_rows, read_meta,
                                    read_table, write_meta, write_table, write_tables)

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
        return io.TextIOWrapper(io.BufferedWriter(opened[-1]))

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


def _blocks_of(column, width):
    """The bits of each block of ``column`` in a ``width``-column table."""
    step = block_rows(width)
    return sorted(column[i:i + step].tobytes() for i in range(0, column.size, step))


def test_a_time_axis_shared_across_calls_is_formatted_once(tmp_path):
    """A column that recurs in the tables of a call, such as compare's time
    axis, is formatted once per block and its text reused by a later call
    through the same store; after each call the store holds the text of
    that call's recurring blocks only, and every file holds the bytes of a
    table written alone."""
    n = 2 * block_rows(3) + 1
    t, rng = np.arange(float(n)), np.random.default_rng(7)

    def point():
        return {stem: (["t", "x", "u"], np.column_stack([t, rng.standard_normal((n, 2))]))
                for stem in ("quantum", "difference")}

    texts, kept = ColumnTexts(), []
    for i in range(2):
        tables = point()
        out = tmp_path / f"point_{i}"
        out.mkdir()
        write_tables(out, tables, "csv", texts)
        for stem, table in tables.items():
            alone = write_table(tmp_path, "alone", *table, "csv")
            assert (out / f"{stem}.csv").read_bytes() == alone.read_bytes()
        assert sorted(texts._kept) == _blocks_of(t, 3)
        kept.append(dict(texts._kept))
    # the second call looked the text up; formatting it again would make new strings
    assert all(kept[1][key] is text for key, text in kept[0].items())

    s = t[::-1].copy()
    shared = {stem: (["s", "x", "y"], np.column_stack([s, rng.standard_normal((n, 2))]))
              for stem in ("a", "b")}
    write_tables(tmp_path, shared, "csv", texts)
    assert sorted(texts._kept) == _blocks_of(s, 3)
    write_tables(tmp_path, {"alone": point()["quantum"]}, "csv", texts)
    assert texts._kept == {}
