"""Quantum potential and the quantum disruptor field.

The curvature of the amplitude field generates the quantum potential

    Q = -(hbar^2 / 2m) * (d2R/dx2) / R,

and its negative gradient per unit mass is the disruptor

    Dis = (hbar^2 / 2m^2) * d/dx[(d2R/dx2) / R] = -(1/m) * dQ/dx,

the term that perturbs the discrete learning update.  Dis is computed as
-(1/m) dQ/dx (one derivative of an already regularized field) rather than by
three nested derivative passes; the two forms agree algebraically and the test
suite asserts the equivalence.  Both fields are plain float arrays on the
points of the periodic grid, with the wrapped central stencils of
:mod:`.derivatives`; :func:`sample_field` interpolates such an array at one
position.  Dis at one position needs R at :data:`WINDOW` points only, a
width that follows from the stencils' reach (:func:`locate_window`).  The
stencils act along the first axis, so a (WINDOW, K) stack of such windows
gives K fields in one call, each equal to the bits of its own.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .derivatives import REACH, first_derivative, second_derivative
from .fields import EPS_NODE, PhysicsParams, SpatialGrid

# Dis at a node reads Q at +-REACH and Q reads R at +-REACH again, so the
# window's row of the first interpolation node of a position is NODE, and
# the window holds NODE rows on each side of that node and the next one
NODE = 2 * REACH
WINDOW = 2 * NODE + 2


def quantum_potential(R: np.ndarray, grid: SpatialGrid, params: PhysicsParams) -> np.ndarray:
    """Q = -(hbar^2/2m) (d2R/dx2) / max(R, eps) on the grid.

    The amplitude in the denominator is floored at the node constant so the
    result stays finite through nodes and deep tails.
    """
    R = np.asarray(R, dtype=float)
    lap = second_derivative(R, grid.dx)
    denom = np.maximum(R, EPS_NODE)
    return -(params.hbar**2 / (2.0 * params.m)) * lap / denom


def disruptor_field(R: np.ndarray, grid: SpatialGrid, params: PhysicsParams) -> np.ndarray:
    """Dis = (hbar^2/2m^2) d/dx[(d2R/dx2)/R], evaluated as -(1/m) dQ/dx.

    R may also hold the amplitudes of a run of consecutive grid points (see
    :func:`locate_window`); the values at the run's two ends then wrap to
    the run's other end instead of reading their neighbours on the grid.  A 2-D R holds such
    runs as columns: the derivatives act along axis 0, so each column of
    the result equals the call on that column alone, to the bit.
    """
    q = quantum_potential(R, grid, params)
    return -first_derivative(q, grid.dx) / params.m


def _cell(grid: SpatialGrid, x: float) -> tuple:
    """The cell j0 of x, from point j0 to the next (wrapped), and x's fraction of it."""
    if not grid.contains(x):  # also false for NaN and infinities
        raise ValueError(f"x={x} outside grid domain [{grid.x_min}, {grid.x_max}]")
    t = (x - grid.x_min) / grid.dx  # >= 0, as x >= x_min
    j0 = min(math.floor(t), grid.n - 1)
    return j0, t - j0


def interpolate(lo, hi, frac):
    """(1 - frac) lo + frac hi: the linear interpolation of :func:`sample_field`.

    Elementwise on arrays, so a block of samples gets the bits of one
    :func:`sample_field` call each.
    """
    return (1.0 - frac) * lo + frac * hi


def sample_field(values: np.ndarray, grid: SpatialGrid, x: float) -> float:
    """Linear interpolation at position x of a field given on the grid's points.

    x must lie inside [x_min, x_max]; the last cell, from point n - 1 to
    x_max, wraps around to the first point.  A field known only on the
    WINDOW points of a window goes through :func:`locate_window` and
    :func:`interpolate` instead.
    """
    j0, frac = _cell(grid, x)
    return float(interpolate(values[j0], values[(j0 + 1) % grid.n], frac))


def locate_window(grid: SpatialGrid, x: float) -> tuple:
    """WINDOW consecutive grid points whose amplitudes fix Dis at the nodes of
    x, and x's fraction of the way between those nodes.

    Dis at a point reads Q at REACH points on each side and Q reads R at
    REACH on each side of its own, so the interpolation nodes j0 and j0 + 1
    of x need R at j0 - NODE .. j0 + 1 + NODE, wrapped around the seam.
    Returns ``(window, frac)``, the window a read-only slice of the index
    ring of the grid's size: the nodes are the points ``window[NODE]`` and
    ``window[NODE + 1]``, so the field that :func:`disruptor_field` returns
    for ``R[window]`` is sampled at x as ``interpolate(dis[NODE],
    dis[NODE + 1], frac)``.  That equals the full-grid field sampled at x by
    :func:`sample_field`, to the bit: interior stencil values do not depend
    on the length of the array, and the values in the NODE rows at each end
    of the window, which alone can differ, are never read.
    """
    j0, frac = _cell(grid, x)
    return _ring(grid.n)[j0:j0 + WINDOW], frac


@cache
def _ring(n: int) -> np.ndarray:
    """Indices (k - NODE) % n of an n-point grid, k < n + WINDOW; built once per n."""
    ring = (np.arange(n + WINDOW) - NODE) % n
    ring.setflags(write=False)
    return ring
