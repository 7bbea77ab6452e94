"""The learner loop, the polynomial evaluation and the table writer against
the plain versions they replaced.

The learner runs on plain floats in one loop shared by both twins, reuses the
stop test's gradient as the next update's, and evaluates V once over the
finished trajectory; polynomials are evaluated by a Horner closure in numpy's
``polyval`` order, the gradient's coefficients are ``polyder``'s; CSV and JSON
tables alike are written in blocks of about ``CELLS_PER_BLOCK`` cells
(``block_rows(width)`` rows), a CSV row is formatted with one format string
and a CSV column of one value once, and a table equal to an earlier one of
the same ``write_tables`` call is a copy of its file, line by line.  None of
this changes an operation or its order, so every row, outcome and written
byte must equal what the plain versions give.  The plain
versions live here as references, down to one update of each twin
(``quantum_learn_step``, ``momentum_gd_step``) and a disruptor read from any
callable (``CallbackDisruptor``), which test_learner.py uses too; the tests
compare bits, not closeness.
"""

import json
import math
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantum_descent import output
from quantum_descent.errors import NumericalError
from quantum_descent.fields import PhysicsParams, build_grid, gaussian_packet
from quantum_descent.learner import (DIVERGENCE_LIMIT, FieldSampledDisruptor,
                                     PotentialSpec, ZeroDisruptor, run_learner,
                                     run_momentum_gd)
from quantum_descent.learner import _polyder
from quantum_descent.output import block_rows, write_table, write_tables

polyval = np.polynomial.polynomial.polyval
polyder = np.polynomial.polynomial.polyder

# --- references ---------------------------------------------------------------


@dataclass(frozen=True)
class RefState:
    """One point of the discrete trajectory, as one reference update takes
    and returns it."""

    t: int = 0
    x: float = 0.0
    u: float = 0.0
    dis_last: float = 0.0


class CallbackDisruptor:
    """Disruptor values supplied by an arbitrary callable of position."""

    def __init__(self, fn):
        self._fn = fn

    def sample(self, x):
        return float(self._fn(x))

    def contains(self, x):
        return True


def momentum_gd_step(state, objective, alpha, beta):
    """One heavy-ball update: u' = beta u - alpha dV/dx(x), x' = x + u'."""
    if alpha <= 0:
        raise ValueError(f"learning rate must be positive, got alpha={alpha}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"momentum factor must satisfy 0 <= beta <= 1, got beta={beta}")
    g = float(objective.gradient(state.x))
    if not np.isfinite(g):
        raise NumericalError(f"non-finite gradient {g} at x={state.x}", step=state.t)
    u_new = beta * state.u - alpha * g
    return RefState(t=state.t + 1, x=state.x + u_new, u=u_new, dis_last=0.0)


def quantum_learn_step(state, potential, dis, params, time_scale=1.0):
    """One disrupted learning update: u' = beta u - lam dV/dx(x) + Dis(x), x' = x + u'.

    With ``time_scale`` != 1 the gradient and disruptor terms are rescaled
    together; the default reproduces the unit-step update exactly, so a zero
    disruptor makes this bit-for-bit identical to ``momentum_gd_step`` with
    alpha = 1/m and beta = 1 - mu.
    """
    g = float(potential.gradient(state.x))
    if not np.isfinite(g):
        raise NumericalError(f"non-finite gradient {g} at x={state.x}", step=state.t)
    d = float(dis.sample(state.x))
    if time_scale == 1.0:
        u_new = params.beta * state.u - params.lam * g + d
    else:
        u_new = params.beta * state.u + time_scale * (d - params.lam * g)
    return RefState(t=state.t + 1, x=state.x + u_new, u=u_new, dis_last=d)


def ref_polynomial(coefficients):
    c = np.asarray(coefficients, dtype=float)
    dc = polyder(c)
    return PotentialSpec(lambda x: polyval(x, c), lambda x: polyval(x, dc))


def ref_run_learner(x0, u0, potential, dis, params, steps, stop_tol=1e-8, time_scale=1.0):
    """One quantum_learn_step per update, V and the stop gradient per row."""
    state = RefState(t=0, x=float(x0), u=float(u0), dis_last=0.0)
    rows = [[0.0, state.x, state.u, float(potential.evaluate(state.x)), 0.0]]
    outcome = "max_steps"
    for _ in range(steps):
        state = quantum_learn_step(state, potential, dis, params, time_scale=time_scale)
        rows.append([float(state.t), state.x, state.u, float(potential.evaluate(state.x)),
                     state.dis_last])
        if abs(state.x) > DIVERGENCE_LIMIT or not dis.contains(state.x):
            outcome = "diverged"
            break
        if abs(float(potential.gradient(state.x))) < stop_tol and abs(state.u) < stop_tol:
            outcome = "converged"
            break
    return np.array(rows), outcome, state


def ref_run_momentum_gd(x0, u0, objective, alpha, beta, steps, stop_tol=1e-8):
    """One momentum_gd_step per update, V and the stop gradient per row."""
    state = RefState(t=0, x=float(x0), u=float(u0), dis_last=0.0)
    rows = [[0.0, state.x, state.u, float(objective.evaluate(state.x)), 0.0]]
    outcome = "max_steps"
    for _ in range(steps):
        state = momentum_gd_step(state, objective, alpha, beta)
        rows.append([float(state.t), state.x, state.u, float(objective.evaluate(state.x)), 0.0])
        if abs(state.x) > DIVERGENCE_LIMIT:
            outcome = "diverged"
            break
        if abs(float(objective.gradient(state.x))) < stop_tol and abs(state.u) < stop_tol:
            outcome = "converged"
            break
    return np.array(rows), outcome, state


def ref_format_value(v):
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.17e" % float(v)


def ref_jsonable(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    return float(v)


def ref_csv_text(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(ref_format_value(v) for v in row))
    return "\n".join(lines) + "\n"


def ref_json_text(header, rows):
    payload = {"header": list(header), "rows": [[ref_jsonable(v) for v in row] for row in rows]}
    return json.dumps(payload, indent=1) + "\n"


def bits(a):
    """The float64 bit patterns of a scalar or array, so -0.0 != 0.0 and NaNs compare."""
    return np.asarray(a, dtype=np.float64).view(np.int64)


class Fence:
    """A callback disruptor defined only on |x| <= bound (a grid's domain)."""

    def __init__(self, fn, bound):
        self._fn = fn
        self._bound = bound

    def sample(self, x):
        return float(self._fn(x))

    def contains(self, x):
        return abs(x) <= self._bound


def assert_same_run(run, ref):
    ref_rows, ref_outcome, ref_state = ref
    assert run.rows.shape == ref_rows.shape
    assert np.array_equal(bits(run.rows), bits(ref_rows))
    assert run.outcome == ref_outcome
    last = RefState(t=run.t.size - 1, x=run.x[-1], u=run.u[-1], dis_last=run.dis[-1])
    assert last == ref_state


# --- polynomial evaluation -----------------------------------------------------

coefficients = st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=7)
any_float = st.floats(allow_nan=True, allow_infinity=True, width=64)


@given(coefficients, st.lists(any_float, min_size=1, max_size=20))
@settings(max_examples=200, deadline=None)
def test_horner_equals_polyval_bitwise(coeffs, xs):
    pot, ref = PotentialSpec.polynomial(coeffs), ref_polynomial(coeffs)
    arr = np.array(xs)
    with np.errstate(all="ignore"):
        for f, g in ((pot.evaluate, ref.evaluate), (pot.gradient, ref.gradient)):
            assert np.array_equal(bits(f(arr)), bits(g(arr)))
            for x in xs:
                value = f(x)
                assert type(value) is float  # scalars stay Python floats
                assert bits(value) == bits(g(x))


@given(st.lists(any_float, min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_derivative_coefficients_equal_polyder_bitwise(coeffs):
    """The gradient's coefficients are polyder's to the bit, a constant's
    (c_0 * 0: -0.0 for a negative c_0, NaN for an infinite one) included."""
    c = np.array(coeffs, dtype=float)
    with np.errstate(all="ignore"):
        got, want = _polyder(c), polyder(c)
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(bits(got), bits(want))


def _potentials(draw):
    kind = draw(st.sampled_from(["harmonic", "quartic", "polynomial", "tabulated"]))
    if kind == "harmonic":
        return PotentialSpec.harmonic(draw(st.floats(0.1, 3.0)))
    if kind == "quartic":
        return PotentialSpec.quartic(draw(st.floats(0.1, 3.0)))
    if kind == "polynomial":
        return PotentialSpec.polynomial(draw(coefficients))
    xs = np.linspace(-10.0, 10.0, draw(st.integers(2, 50)))
    return PotentialSpec.tabulated(xs, np.cos(xs) + 0.1 * xs * xs)


@given(st.data(), st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_potential_over_an_array_equals_per_point_values(data, xs):
    """V over a finished trajectory equals V evaluated point by point."""
    pot = _potentials(data.draw)
    arr = np.array(xs)
    whole = np.asarray(pot.evaluate(arr), dtype=float)
    assert np.array_equal(bits(whole), bits([float(pot.evaluate(x)) for x in xs]))


# --- learner runs ----------------------------------------------------------------


@st.composite
def learner_cases(draw):
    coeffs = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5))
    m = draw(st.floats(0.5, 20.0))
    mu = draw(st.floats(0.0, 1.0))
    x0 = draw(st.floats(-3.0, 3.0))
    u0 = draw(st.floats(-0.5, 0.5))
    steps = draw(st.integers(1, 300))
    stop_tol = draw(st.sampled_from([1e-200, 1e-8, 1e-3, 1e-1]))
    time_scale = draw(st.sampled_from([1.0, 0.5, 0.1, 1.7]))
    amp = draw(st.sampled_from([0.0, 1e-3, 0.05]))
    bound = draw(st.sampled_from([math.inf, 4.0]))
    return coeffs, PhysicsParams(m=m, mu=mu), x0, u0, steps, stop_tol, time_scale, amp, bound


@given(learner_cases())
@settings(max_examples=300, deadline=None)
def test_run_learner_equals_per_step_loop_bitwise(case):
    coeffs, params, x0, u0, steps, stop_tol, time_scale, amp, bound = case

    def dis():
        return Fence(lambda x: amp * math.sin(3.0 * x), bound)

    with np.errstate(all="ignore"):
        run = run_learner(x0, u0, PotentialSpec.polynomial(coeffs), dis(), params, steps,
                          stop_tol=stop_tol, time_scale=time_scale)
        ref = ref_run_learner(x0, u0, ref_polynomial(coeffs), dis(), params, steps,
                              stop_tol=stop_tol, time_scale=time_scale)
    assert_same_run(run, ref)


@given(learner_cases())
@settings(max_examples=300, deadline=None)
def test_run_momentum_gd_equals_per_step_loop_bitwise(case):
    coeffs, params, x0, u0, steps, stop_tol, _, _, _ = case
    with np.errstate(all="ignore"):
        run = run_momentum_gd(x0, u0, PotentialSpec.polynomial(coeffs), params.lam,
                              params.beta, steps, stop_tol=stop_tol)
        ref = ref_run_momentum_gd(x0, u0, ref_polynomial(coeffs), params.lam, params.beta,
                                  steps, stop_tol=stop_tol)
    assert_same_run(run, ref)


HILL = [0.0, 0.0, -0.5]  # V = -x^2/2 pushes outward
BOWL = [0.0, 0.0, 0.5]


@pytest.mark.parametrize("outcome, coeffs, dis, steps", [
    ("converged", BOWL, ZeroDisruptor(), 500),
    ("max_steps", BOWL, ZeroDisruptor(), 5),
    ("diverged", HILL, ZeroDisruptor(), 500),           # |x| crosses the guard
    ("diverged", HILL, Fence(lambda x: 0.0, 8.0), 500),  # leaves the disruptor's domain
    ("converged", BOWL, CallbackDisruptor(lambda x: 0.0), 500),
])
@pytest.mark.parametrize("time_scale", [1.0, 0.25])
def test_every_outcome_matches_the_reference(outcome, coeffs, dis, steps, time_scale):
    params = PhysicsParams(m=1.0, mu=0.5)
    run = run_learner(-5.0, 0.0, PotentialSpec.polynomial(coeffs), dis, params, steps,
                      stop_tol=1e-8, time_scale=time_scale)
    ref = ref_run_learner(-5.0, 0.0, ref_polynomial(coeffs), dis, params, steps,
                          stop_tol=1e-8, time_scale=time_scale)
    assert run.outcome == outcome
    assert_same_run(run, ref)
    classical = run_momentum_gd(-5.0, 0.0, PotentialSpec.polynomial(coeffs), params.lam,
                                params.beta, steps, stop_tol=1e-8)
    assert_same_run(classical, ref_run_momentum_gd(-5.0, 0.0, ref_polynomial(coeffs),
                                                   params.lam, params.beta, steps,
                                                   stop_tol=1e-8))


@given(wall=st.floats(1.5, 50.0), x0=st.floats(-1.0, 1.0).filter(lambda v: abs(v) > 1e-3),
       mu=st.floats(0.0, 1.0), time_scale=st.sampled_from([1.0, 0.3]))
@settings(max_examples=100, deadline=None)
def test_numerical_error_step_matches_the_reference(wall, x0, mu, time_scale):
    """A gradient that turns non-finite fails at the same step with the same message."""
    pot = PotentialSpec(lambda x: -0.5 * np.square(x),
                        lambda x: -x if abs(x) < wall else math.nan)
    params = PhysicsParams(m=1.0, mu=mu)
    failures = []
    for fn in (lambda: run_learner(x0, 0.0, pot, ZeroDisruptor(), params, 10_000,
                                   time_scale=time_scale),
               lambda: ref_run_learner(x0, 0.0, pot, ZeroDisruptor(), params, 10_000,
                                       time_scale=time_scale),
               lambda: run_momentum_gd(x0, 0.0, pot, params.lam, params.beta, 10_000),
               lambda: ref_run_momentum_gd(x0, 0.0, pot, params.lam, params.beta, 10_000)):
        with pytest.raises(NumericalError) as err:
            fn()
        failures.append((err.value.step, str(err.value)))
    assert failures[0] == failures[1]
    assert failures[2] == failures[3]
    assert failures[0][0] is not None


def test_field_sampled_run_equals_the_reference():
    grid = build_grid(-10.0, 10.0, 128)
    psi0 = gaussian_packet(grid, x0=-2.0, sigma=1.1)
    params = PhysicsParams(m=1.0, hbar=1.0, mu=0.5)
    pot = PotentialSpec.polynomial(BOWL)

    def dis():
        return FieldSampledDisruptor(psi0, pot, params, pde_dt=0.1, macro_time=0.5)

    run = run_learner(-2.0, 0.1, pot, dis(), params, 15, time_scale=0.5)
    ref = ref_run_learner(-2.0, 0.1, ref_polynomial(BOWL), dis(), params, 15, time_scale=0.5)
    assert np.any(run.dis != 0.0)
    assert_same_run(run, ref)


@pytest.mark.parametrize("alpha, beta", [(0.0, 0.5), (1.0, 1.5), (1.0, -0.1)])
def test_run_momentum_gd_rejects_what_the_step_rejects(alpha, beta):
    with pytest.raises(ValueError):
        momentum_gd_step(RefState(), PotentialSpec.polynomial(BOWL), alpha, beta)
    with pytest.raises(ValueError):
        run_momentum_gd(1.0, 0.0, PotentialSpec.polynomial(BOWL), alpha, beta, steps=3)


# --- table writer ----------------------------------------------------------------

KINDS = {
    "float": any_float,
    "np_float": any_float.map(np.float64),
    "int": st.integers(-10**30, 10**30),
    "np_int": st.integers(-2**63, 2**63 - 1).map(np.int64),
    "bool": st.booleans(),
    "np_bool": st.booleans().map(np.bool_),
}


@st.composite
def mixed_tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=6))
    n = draw(st.integers(0, 12))
    rows = [[draw(KINDS[k]) for k in kinds] for _ in range(n)]
    return [f"c{i}" for i in range(len(kinds))], rows


@given(mixed_tables())
@settings(max_examples=200, deadline=None)
def test_mixed_rows_write_the_reference_bytes(tmp_path_factory, table):
    header, rows = table
    d = tmp_path_factory.mktemp("mixed")
    assert write_table(d, "t", header, rows, "csv").read_text() == ref_csv_text(header, rows)
    assert write_table(d, "t", header, rows, "json").read_text() == ref_json_text(header, rows)


@given(st.integers(0, 40), st.integers(1, 8), st.data())
@settings(max_examples=200, deadline=None)
def test_float_arrays_write_the_reference_bytes(tmp_path_factory, n, k, data):
    values = data.draw(st.lists(any_float, min_size=n * k, max_size=n * k))
    rows = np.array(values, dtype=float).reshape(n, k)
    header = [f"c{i}" for i in range(k)]
    d = tmp_path_factory.mktemp("arrays")
    assert write_table(d, "t", header, rows, "csv").read_text() == ref_csv_text(header, rows)
    assert write_table(d, "t", header, rows, "json").read_text() == ref_json_text(header, rows)


@pytest.mark.parametrize("rows", [[], np.empty((0, 3))])
@pytest.mark.parametrize("fmt, ref", [("csv", ref_csv_text), ("json", ref_json_text)])
def test_empty_tables_write_the_reference_bytes(tmp_path, rows, fmt, ref):
    header = ["a", "b", "c"]
    assert write_table(tmp_path, "t", header, rows, fmt).read_text() == ref(header, rows)


# values of the columns that hold one value: the signed zeros, which print
# differently, NaN, the infinities, the smallest subnormal and a generic float
CONSTANTS = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -0.1234567890123456)


@st.composite
def float_table(draw, rows=st.sampled_from((0, 1, 2, 9))):
    """A float64 table of 0, 1 or more rows whose columns each hold one value
    of CONSTANTS or arbitrary floats."""
    n = draw(rows)
    columns = [np.full(n, draw(st.sampled_from(CONSTANTS))) if draw(st.booleans())
               else np.array(draw(st.lists(any_float, min_size=n, max_size=n)), dtype=float)
               for _ in range(draw(st.integers(1, 5)))]
    header = [f"c{i}" for i in range(len(columns))]
    return header, np.column_stack(columns).reshape(n, len(columns))


def _one_ulp_apart(rows, cell):
    """A copy of ``rows`` with one cell moved to the next float (NaN stays)."""
    rows = rows.copy()
    flat = rows.reshape(-1)
    flat[cell] = np.nextafter(flat[cell], 1.0 if flat[cell] == 0.0 else 0.0)
    return rows


def _zero_sign_flipped(rows, cell):
    """A copy of ``rows`` whose cell is a zero of the other sign than before."""
    rows = rows.copy()
    flat = rows.reshape(-1)
    flat[cell] = -0.0 if math.copysign(1.0, flat[cell]) > 0 else 0.0
    return rows


@st.composite
def table_sets(draw):
    """Tables of one write_tables call: new float tables, integer arrays, and
    earlier tables copied exactly, one ulp apart, with one zero's sign
    flipped or under another header."""
    tables = [draw(float_table())]
    for _ in range(draw(st.integers(0, 5))):
        how = draw(st.sampled_from(("new", "int", "same", "ulp", "zero", "header")))
        header, rows = draw(st.sampled_from(tables))
        cell = draw(st.integers(0, max(rows.size - 1, 0)))
        if how == "new":
            header, rows = draw(float_table())
        elif how == "int":
            n = draw(st.integers(0, 5))
            values = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=2 * n,
                                   max_size=2 * n))
            header, rows = ["i", "j"], np.array(values, dtype=np.int64).reshape(n, 2)
        elif how == "same" or rows.dtype != np.float64 or rows.size == 0:
            rows = rows.copy()
        elif how == "ulp":
            rows = _one_ulp_apart(rows, cell)
        elif how == "zero":
            rows = _zero_sign_flipped(rows, cell)
        else:
            header = header[:-1] + ["other"]
        tables.append((header, rows))
    return {f"t{i}": table for i, table in enumerate(tables)}


def _renders_expected(tables):
    """How many tables differ from every earlier one in header or float64
    bits; tables of another dtype are never copies."""
    seen, renders = set(), 0
    for header, rows in tables.values():
        key = (tuple(header), rows.shape, rows.tobytes()) if rows.dtype == np.float64 else None
        renders += key is None or key not in seen
        seen.add(key)
    return renders


@given(table_sets(), st.sampled_from(("csv", "json")))
@settings(max_examples=300, deadline=None)
def test_write_tables_writes_the_reference_bytes(tmp_path_factory, tables, fmt):
    """Every file of a write_tables call holds the per-cell writer's bytes,
    and a table is rendered again unless an earlier one of the call has its
    header and bits: -0.0 against 0.0 and floats one ulp apart are not
    copies, NaNs of one bit pattern are."""
    d = tmp_path_factory.mktemp("tables")
    ref = {"csv": ref_csv_text, "json": ref_json_text}[fmt]
    with mock.patch.object(output, "write_table", wraps=output.write_table) as rendered:
        names = write_tables(d, tables, fmt)
    assert names == [f"{stem}.{fmt}" for stem in tables]
    assert sorted(p.name for p in d.iterdir()) == sorted(names)
    for stem, (header, rows) in tables.items():
        assert (d / f"{stem}.{fmt}").read_text() == ref(header, rows), stem
    assert rendered.call_count == _renders_expected(tables)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("second", [
    lambda rows: rows.copy(),
    lambda rows: rows * [1.0, -1.0],
    lambda rows: _one_ulp_apart(rows, 1),
    lambda rows: rows.astype(np.int64),
], ids=["duplicate", "zero_sign", "one_ulp", "integer"])
def test_twin_tables_write_the_reference_bytes(tmp_path, fmt, second):
    """A table with a constant column beside a duplicate, a near duplicate or
    its integer version: each file holds the per-cell writer's bytes, and
    only the exact duplicate is a copy."""
    header = ["t", "zero"]
    first = np.column_stack([np.arange(5.0), np.zeros(5)])
    tables = {"a": (header, first), "b": (header, second(first))}
    with mock.patch.object(output, "write_table", wraps=output.write_table) as rendered:
        write_tables(tmp_path, tables, fmt)
    ref = {"csv": ref_csv_text, "json": ref_json_text}[fmt]
    for stem, (h, rows) in tables.items():
        assert (tmp_path / f"{stem}.{fmt}").read_text() == ref(h, rows)
    assert rendered.call_count == _renders_expected(tables)


# row counts around a table's block size as (blocks, rows more): none, one,
# one short of and over a block boundary, and over two
BLOCK_ROWS = {"empty": (0, 0), "one": (0, 1), "block_less_one": (1, -1), "block": (1, 0),
              "block_and_one": (1, 1), "two_blocks_and_one": (2, 1)}
# the width of each kind of _block_table
BLOCK_WIDTH = {"constant": 4, "int": 2, "mixed": 4, "wide": 12}


def _block_table(kind, n):
    """A table of ``n`` rows: float64 columns beside constant ones, an int64
    array, mixed rows of Python and numpy values, or a density-shaped float64
    table of twelve columns, one of them constant, whose block size does not
    divide the cell budget."""
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    if kind == "wide":
        return ["x"] + [f"rho_t{k}" for k in range(11)], np.column_stack(
            [np.arange(float(n)), np.full(n, 0.25), rng.standard_normal((n, 10))])
    if kind == "constant":
        return ["t", "zero", "x", "c"], np.column_stack(
            [np.arange(float(n)), np.full(n, -0.0), x, np.full(n, 5e-324)])
    if kind == "int":
        return ["i", "j"], rng.integers(-2**63, 2**63 - 1, size=(n, 2), dtype=np.int64)
    return ["i", "x", "flag", "y"], [[i, float(v), i % 3 == 0, np.float64(-v)]
                                     for i, v in enumerate(x)]


@pytest.mark.parametrize("count", BLOCK_ROWS)
@pytest.mark.parametrize("kind", BLOCK_WIDTH)
def test_tables_across_block_boundaries_write_the_reference_bytes(tmp_path, kind, count):
    blocks, more = BLOCK_ROWS[count]
    header, rows = _block_table(kind, blocks * block_rows(BLOCK_WIDTH[kind]) + more)
    assert len(header) == BLOCK_WIDTH[kind]
    for fmt, ref in (("csv", ref_csv_text), ("json", ref_json_text)):
        assert write_table(tmp_path, "t", header, rows, fmt).read_text() == ref(header, rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_duplicate_of_a_multi_block_table_is_a_copy(tmp_path, fmt):
    """A duplicate of a table longer than one block is copied from the first
    one's file, not rendered again, and holds the same reference bytes."""
    header, rows = _block_table("constant", 2 * block_rows(BLOCK_WIDTH["constant"]) + 1)
    tables = {"a": (header, rows), "b": (header, rows.copy())}
    with mock.patch.object(output, "write_table", wraps=output.write_table) as rendered:
        write_tables(tmp_path, tables, fmt)
    ref = {"csv": ref_csv_text, "json": ref_json_text}[fmt](header, rows)
    assert (tmp_path / f"a.{fmt}").read_text() == (tmp_path / f"b.{fmt}").read_text() == ref
    assert rendered.call_count == 1
