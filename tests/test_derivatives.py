"""Finite-difference derivative checks.

The wrapped central stencils are the workhorses behind the hydrodynamic
fields, so their order of accuracy is pinned down here against closed forms:
2nd-order convergence on smooth periodic functions, the seam increment of an
unwrapped phase, linearity, and the column-by-column action on 2-D arrays.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantum_descent.derivatives import (central_from_increments,
                                         first_derivative, second_derivative)
from quantum_descent.fields import SpatialGrid


def _periodic_grid(n):
    return SpatialGrid(0.0, 2.0 * np.pi, n)


# --- 2nd-order convergence on smooth data -----------------------------------

@pytest.mark.parametrize("op,exact", [
    (first_derivative, np.cos),
    (second_derivative, lambda x: -np.sin(x)),
])
def test_central_second_order_convergence_periodic(op, exact):
    errs = []
    for n in (128, 256):
        grid = _periodic_grid(n)
        err = np.max(np.abs(op(np.sin(grid.x), grid.dx) - exact(grid.x)))
        errs.append(err)
    ratio = errs[0] / errs[1]
    assert 3.5 < ratio < 4.5


# --- increment-based central stencil ----------------------------------------

def test_central_from_increments_matches_direct():
    grid = _periodic_grid(65)
    f = np.tanh(2.0 * np.sin(grid.x))
    inc = np.append(np.diff(f), f[0] - f[-1])  # the seam increment wraps
    direct = first_derivative(f, grid.dx)
    rebuilt = central_from_increments(inc, grid.dx)
    assert np.allclose(rebuilt, direct, rtol=1e-13, atol=1e-13)


def test_central_from_increments_periodic_seam():
    """A sawtooth-like unwrapped signal: increments carry the seam, not f."""
    n = 64
    grid = _periodic_grid(n)
    f = 3.0 * grid.x  # unwrapped linear phase, NOT periodic as raw values
    inc = np.append(np.diff(f), 3.0 * grid.dx)  # seam increment from the slope
    df = central_from_increments(inc, grid.dx)
    assert np.allclose(df, 3.0, atol=1e-12)


@given(c=st.floats(-10, 10, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_constant_has_zero_derivative(c):
    grid = _periodic_grid(64)
    f = np.full(64, c)
    assert np.allclose(first_derivative(f, grid.dx), 0.0, atol=1e-12)
    assert np.allclose(second_derivative(f, grid.dx), 0.0, atol=1e-9)


@given(a=st.floats(-3, 3, allow_nan=False), b=st.floats(-3, 3, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_derivative_linearity(a, b):
    grid = _periodic_grid(64)
    f, g = np.sin(grid.x), np.cos(2.0 * grid.x)
    lhs = first_derivative(a * f + b * g, grid.dx)
    rhs = a * first_derivative(f, grid.dx) + b * first_derivative(g, grid.dx)
    assert np.allclose(lhs, rhs, atol=1e-10)


@given(columns=st.integers(1, 6),
       values=st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=48, max_size=48))
@settings(max_examples=50, deadline=None)
def test_stencils_act_along_axis_0(columns, values):
    """A 2-D array is differentiated column by column, each column to the bits
    of the call on that column alone: the disruptor of a block of stencil
    windows relies on it."""
    rows = 48 // columns
    f = np.array(values[:rows * columns]).reshape(columns, rows).T
    for op in (first_derivative, second_derivative):
        out = op(f, 0.3)
        for c in range(columns):
            assert np.array_equal(out[:, c], op(f[:, c].copy(), 0.3))
