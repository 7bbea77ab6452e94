"""Finite-difference and spectral derivative checks.

The central stencils are the workhorses behind the hydrodynamic fields, so
their order of accuracy is pinned down here against closed forms: exactness on
low-degree polynomials, 2nd-order convergence on smooth functions, and
spectral accuracy for periodic data.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantum_descent.derivatives import (central_from_increments,
                                         first_derivative, second_derivative)
from quantum_descent.fields import build_grid


def _periodic_grid(n):
    return build_grid(0.0, 2.0 * np.pi, n, periodic=True)


# --- exactness on polynomials (the stencils' design order) ------------------

def test_first_derivative_exact_on_quadratic_nonperiodic():
    grid = build_grid(-1.0, 2.0, 41)
    f = 0.5 * grid.x**2 - 3.0 * grid.x + 1.0
    df = first_derivative(f, grid.dx, periodic=False)
    assert np.allclose(df, grid.x - 3.0, atol=1e-12)


def test_second_derivative_exact_on_cubic_nonperiodic():
    # the one-sided boundary stencil has error ~ h^2 f'''' -> exact for cubics
    grid = build_grid(-1.0, 2.0, 41)
    f = grid.x**3 - grid.x**2 + 4.0
    d2f = second_derivative(f, grid.dx, periodic=False)
    assert np.allclose(d2f, 6.0 * grid.x - 2.0, atol=1e-10)


# --- 2nd-order convergence on smooth data -----------------------------------

@pytest.mark.parametrize("op,exact", [
    (first_derivative, np.cos),
    (second_derivative, lambda x: -np.sin(x)),
])
def test_central_second_order_convergence_periodic(op, exact):
    errs = []
    for n in (128, 256):
        grid = _periodic_grid(n)
        err = np.max(np.abs(op(np.sin(grid.x), grid.dx, periodic=True) - exact(grid.x)))
        errs.append(err)
    ratio = errs[0] / errs[1]
    assert 3.5 < ratio < 4.5


def test_one_sided_boundaries_second_order():
    errs = []
    for n in (101, 201):
        grid = build_grid(0.0, 1.0, n)
        df = first_derivative(np.exp(grid.x), grid.dx, periodic=False)
        errs.append(abs(df[0] - 1.0))  # boundary point only
    assert 3.3 < errs[0] / errs[1] < 4.7


# --- increment-based central stencil ----------------------------------------

def test_central_from_increments_matches_direct():
    grid = build_grid(-2.0, 2.0, 65)
    f = np.tanh(grid.x)
    inc = np.diff(f)
    direct = first_derivative(f, grid.dx, periodic=False)
    rebuilt = central_from_increments(inc, grid.dx, periodic=False)
    assert np.allclose(rebuilt, direct, rtol=1e-13, atol=1e-13)


def test_central_from_increments_periodic_seam():
    """A sawtooth-like unwrapped signal: increments carry the seam, not f."""
    n = 64
    grid = _periodic_grid(n)
    f = 3.0 * grid.x  # unwrapped linear phase, NOT periodic as raw values
    inc = np.append(np.diff(f), 3.0 * grid.dx)  # seam increment from the slope
    df = central_from_increments(inc, grid.dx, periodic=True)
    assert np.allclose(df, 3.0, atol=1e-12)


@given(c=st.floats(-10, 10, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_constant_has_zero_derivative(c):
    grid = _periodic_grid(64)
    f = np.full(64, c)
    assert np.allclose(first_derivative(f, grid.dx, periodic=True), 0.0, atol=1e-12)
    assert np.allclose(second_derivative(f, grid.dx, periodic=True), 0.0, atol=1e-9)


@given(a=st.floats(-3, 3, allow_nan=False), b=st.floats(-3, 3, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_derivative_linearity(a, b):
    grid = _periodic_grid(64)
    f, g = np.sin(grid.x), np.cos(2.0 * grid.x)
    lhs = first_derivative(a * f + b * g, grid.dx, periodic=True)
    rhs = a * first_derivative(f, grid.dx, periodic=True) \
        + b * first_derivative(g, grid.dx, periodic=True)
    assert np.allclose(lhs, rhs, atol=1e-10)


@given(columns=st.integers(1, 6), periodic=st.booleans(),
       values=st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=48, max_size=48))
@settings(max_examples=50, deadline=None)
def test_stencils_act_along_axis_0(columns, periodic, values):
    """A 2-D array is differentiated column by column, each column to the bits
    of the call on that column alone: the disruptor of a block of stencil
    windows relies on it."""
    rows = 48 // columns
    f = np.array(values[:rows * columns]).reshape(columns, rows).T
    for op in (first_derivative, second_derivative):
        out = op(f, 0.3, periodic)
        for c in range(columns):
            assert np.array_equal(out[:, c], op(f[:, c].copy(), 0.3, periodic))
