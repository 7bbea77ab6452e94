"""The learner loop, the polynomial evaluation and the table writer against
the plain versions they replaced.

The learner runs on plain floats in one loop shared by both twins, reuses the
stop test's gradient as the next update's, and evaluates V once over the
finished trajectory; polynomials are evaluated by a generated straight-line
Horner function in numpy's ``polyval`` order, the gradient's coefficients are
``polyder``'s; CSV and JSON tables alike are written in blocks of about
``CELLS_PER_BLOCK`` cells (``block_rows(width)`` rows), a CSV float block is
rendered by numpy into the bytes of ``%.17e``, a CSV column of one value
once, in the first row, and spliced into every block as text, and a table
equal to an earlier one of the same ``write_tables`` call is a copy of its
file.  None of this changes an
operation or its order, so every row, outcome and written byte must equal
what the plain versions give.  The plain
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
from quantum_descent.fields import PhysicsParams, SpatialGrid, gaussian_packet
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
# any float, with the values whose sums and products overflow or are NaN drawn often
any_coefficients = st.lists(st.one_of(any_float, st.sampled_from(
    [math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, -0.0])), min_size=1, max_size=9)


def nan_blind_bits(a):
    """The bits of a scalar with every NaN as numpy's NaN.  Of two NaN
    addends, x86 returns the first, sign and all, and CPython passes
    two floats to the machine in one order before it specializes an
    addition and in the other after: one function's scalar NaN changes sign
    after a few calls, the Horner loop's as well.  %.17e and JSON write
    every NaN alike."""
    return bits(np.nan if math.isnan(a) else a)


@given(any_coefficients, st.lists(any_float, min_size=1, max_size=20))
@settings(max_examples=400, deadline=None)
def test_horner_equals_polyval_bitwise(coeffs, xs):
    """The generated polynomial and its derivative equal polyval to the bit
    for any coefficients: infinite and NaN ones, and ones whose derivative
    overflows (1e308 * 4).  Over an array every bit matches, NaN payloads
    included, and a scalar stays a Python float.  With finite coefficients
    a scalar matches every bit too: at most one NaN arises (x's, or the
    machine's from inf * 0 or inf - inf), so no two NaNs meet.  An infinite
    or NaN coefficient can bring a second one, and then a scalar matches
    all but a NaN's sign."""
    arr = np.array(xs)
    same = bits if all(map(math.isfinite, coeffs)) else nan_blind_bits
    with np.errstate(all="ignore"):
        pot, ref = PotentialSpec.polynomial(coeffs), ref_polynomial(coeffs)
        for f, g in ((pot.evaluate, ref.evaluate), (pot.gradient, ref.gradient)):
            assert np.array_equal(bits(f(arr)), bits(g(arr)))
            for x in xs:
                value = f(x)
                assert type(value) is float  # scalars stay Python floats
                assert same(value) == same(g(x))


@pytest.mark.parametrize("size", [63, 64, 65, 129, 500])
def test_a_polynomial_past_one_statement_equals_polyval_bitwise(size):
    """A polynomial of more coefficients than one generated expression nests
    (_HORNER_NESTING) goes on in further statements, in polyval's order."""
    coeffs = np.random.default_rng(size).standard_normal(size)
    pot, ref = PotentialSpec.polynomial(coeffs), ref_polynomial(coeffs)
    xs = np.linspace(-1.1, 1.1, 23)
    for f, g in ((pot.evaluate, ref.evaluate), (pot.gradient, ref.gradient)):
        assert np.array_equal(bits(f(xs)), bits(g(xs)))
        assert [bits(f(x)) for x in xs.tolist()] == [bits(g(x)) for x in xs.tolist()]


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


@given(learner_cases(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_run_learner_equals_per_step_loop_bitwise(case, zero):
    """A sampled disruptor and the zero one, whose constant the loop adds
    without sampling it, both give the per-step loop's bits."""
    coeffs, params, x0, u0, steps, stop_tol, time_scale, amp, bound = case

    def dis():
        return ZeroDisruptor() if zero else Fence(lambda x: amp * math.sin(3.0 * x), bound)

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


def test_the_sign_of_zero_separates_the_twins():
    """The zero disruptor adds +0.0 and the classical twin adds nothing, so
    from u0 = -0.0 on a flat V the first velocity is +0.0 in one and -0.0 in
    the other."""
    params = PhysicsParams(m=1.0, mu=0.5)
    flat = PotentialSpec.polynomial([1.0])
    quantum = run_learner(-1.0, -0.0, flat, ZeroDisruptor(), params, 3)
    classical = run_momentum_gd(-1.0, -0.0, flat, params.lam, params.beta, 3)
    assert bits(quantum.u[1]) == bits(0.0)
    assert bits(classical.u[1]) == bits(-0.0)
    assert_same_run(quantum, ref_run_learner(-1.0, -0.0, ref_polynomial([1.0]),
                                             ZeroDisruptor(), params, 3))
    assert_same_run(classical, ref_run_momentum_gd(-1.0, -0.0, ref_polynomial([1.0]),
                                                   params.lam, params.beta, 3))


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
    grid = SpatialGrid(-10.0, 10.0, 128)
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
# quiet NaNs of two payloads: one text, other bits
NANS = tuple(np.array([0x7FF8000000000000, 0x7FF8000000000001], dtype=np.uint64)
             .view(np.float64))


def _float_column(draw, n):
    """``n`` values: one of CONSTANTS, values of a pool of two or three of
    CONSTANTS and NANS, so rows repeat the row before them but the column
    does not hold one value, or arbitrary floats."""
    kind = draw(st.sampled_from(("constant", "pool", "any")))
    if kind == "constant":
        return np.full(n, draw(st.sampled_from(CONSTANTS)))
    if kind == "pool":
        pool = draw(st.lists(st.sampled_from(CONSTANTS + NANS), min_size=2, max_size=3))
        return np.array([draw(st.sampled_from(pool)) for _ in range(n)], dtype=float)
    return np.array(draw(st.lists(any_float, min_size=n, max_size=n)), dtype=float)


@st.composite
def float_table(draw, rows=st.sampled_from((0, 1, 2, 9))):
    """A float64 table of 0, 1 or more rows of 1 to 5 columns (see
    :func:`_float_column`)."""
    n = draw(rows)
    columns = [_float_column(draw, n) for _ in range(draw(st.integers(1, 5)))]
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
def sharing_table(draw, rows):
    """A float table holding one to three columns of ``rows``, all cut short
    or none, each as it is, one ulp apart, with one zero's sign flipped or
    with a NaN of either payload in one cell, among 0 to 3 new columns, so
    its width differs from that of ``rows`` or not."""
    n = draw(st.sampled_from((len(rows), draw(st.integers(0, len(rows))))))
    columns = []
    for j in draw(st.lists(st.integers(0, rows.shape[1] - 1), min_size=1, max_size=3)):
        column = rows[:n, j].copy()
        cell = draw(st.integers(0, max(n - 1, 0)))
        how = draw(st.sampled_from(("same", "same", "ulp", "zero", "nan")))
        if n and how == "ulp":
            column = _one_ulp_apart(column, cell)
        elif n and how == "zero":
            column = _zero_sign_flipped(column, cell)
        elif n and how == "nan":
            column[cell] = draw(st.sampled_from(NANS))
        columns.append(column)
    for _ in range(draw(st.integers(0, 3))):
        column = np.array(draw(st.lists(any_float, min_size=n, max_size=n)), dtype=float)
        columns.insert(draw(st.integers(0, len(columns))), column)
    return [f"s{i}" for i in range(len(columns))], np.column_stack(columns).reshape(n, len(columns))


@st.composite
def table_sets(draw):
    """Tables of one write_tables call: new float tables, integer arrays,
    earlier tables copied exactly, one ulp apart, with one zero's sign
    flipped or under another header, and tables sharing a column with an
    earlier one (see :func:`sharing_table`)."""
    tables = [draw(float_table())]
    for _ in range(draw(st.integers(0, 5))):
        how = draw(st.sampled_from(("new", "int", "same", "ulp", "zero", "header",
                                    "column")))
        header, rows = draw(st.sampled_from(tables))
        cell = draw(st.integers(0, max(rows.size - 1, 0)))
        if how == "new":
            header, rows = draw(float_table())
        elif how == "column" and rows.dtype == np.float64 and rows.size:
            header, rows = draw(sharing_table(rows))
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
    copies, NaNs of one bit pattern are.  Tables that share columns with an
    earlier one are written as the per-cell writer would, whatever the
    tables' widths and lengths and the NaN payloads."""
    ref = {"csv": ref_csv_text, "json": ref_json_text}[fmt]
    d = tmp_path_factory.mktemp("tables")
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
BLOCK_WIDTH = {"constant": 4, "int": 2, "mixed": 4, "wide": 12, "converged": 5}


def _block_table(kind, n):
    """A table of ``n`` rows: float64 columns beside constant ones, an int64
    array, mixed rows of Python and numpy values, a density-shaped float64
    table of twelve columns, one of them constant, whose block size does not
    divide the cell budget, or a trajectory that settles a third of the way
    in, so that its x, u and V repeat the row before across a block
    boundary, u in runs of either zero's sign."""
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    if kind == "converged":
        t = np.arange(float(n))
        settled = t >= n // 3
        u = np.where(t // 7 % 2, -0.0, 0.0)
        return ["t", "x", "u", "V", "dis"], np.column_stack(
            [t, np.where(settled, -1.0, x), np.where(settled, u, rng.standard_normal(n)),
             np.where(settled, -0.25, rng.standard_normal(n)), np.zeros(n)])
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
