"""Quantum potential and the quantum disruptor field.

The curvature of the amplitude field generates the quantum potential

    Q = -(hbar^2 / 2m) * (d2R/dx2) / R,

and its negative gradient per unit mass is the disruptor

    Dis = (hbar^2 / 2m^2) * d/dx[(d2R/dx2) / R] = -(1/m) * dQ/dx,

the term that perturbs the discrete learning update.  Dis is computed as
-(1/m) dQ/dx (one derivative of an already regularized field) rather than by
three nested derivative passes; the two forms agree algebraically and the test
suite asserts the equivalence.  Both fields are plain float arrays on the
grid's points, with the central stencils of :mod:`.derivatives`;
:func:`sample_field` interpolates such an array at one position.  Dis at one
position needs R at six points only (:func:`stencil_window`).  The stencils
act along the first axis, so a (6, K) stack of such windows gives K fields
in one call, each equal to the bits of its own.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .derivatives import first_derivative, second_derivative
from .fields import EPS_NODE, PhysicsParams, SpatialGrid

logger = logging.getLogger(__name__)

# points of the amplitude window that fixes Dis at one position
WINDOW = 6


def quantum_potential(R: np.ndarray, grid: SpatialGrid, params: PhysicsParams) -> np.ndarray:
    """Q = -(hbar^2/2m) (d2R/dx2) / max(R, eps) on the grid.

    The amplitude in the denominator is floored at the node constant so the
    result stays finite through nodes and deep tails; the number of floored
    points is logged as a diagnostic.
    """
    R = np.asarray(R, dtype=float)
    lap = second_derivative(R, grid.dx, grid.periodic)
    denom = np.maximum(R, EPS_NODE)
    n_floored = int(np.count_nonzero(R < EPS_NODE))
    if n_floored:
        logger.debug("quantum_potential: floored %d of %d amplitude points", n_floored, R.size)
    return -(params.hbar**2 / (2.0 * params.m)) * lap / denom


def disruptor_field(R: np.ndarray, grid: SpatialGrid, params: PhysicsParams) -> np.ndarray:
    """Dis = (hbar^2/2m^2) d/dx[(d2R/dx2)/R], evaluated as -(1/m) dQ/dx.

    R may also hold the amplitudes of a run of consecutive grid points (see
    :func:`stencil_window`); the values at the run's two ends then read the
    run's edge instead of their neighbours on the grid.  A 2-D R holds such
    runs as columns: the derivatives act along axis 0, so each column of
    the result equals the call on that column alone, to the bit.
    """
    q = quantum_potential(R, grid, params)
    return -first_derivative(q, grid.dx, grid.periodic) / params.m


def _nodes(grid: SpatialGrid, x: float) -> tuple:
    """The interpolation nodes j0, j1 of x on the grid and x's fraction of the way."""
    if not grid.contains(x):  # also false for NaN and infinities
        raise ValueError(f"x={x} outside grid domain [{grid.x_min}, {grid.x_max}]")
    t = (x - grid.x_min) / grid.dx
    j = math.floor(t)
    if grid.periodic:
        j0 = min(max(j, 0), grid.n - 1)
        j1 = (j0 + 1) % grid.n
    else:
        j0 = min(max(j, 0), grid.n - 2)
        j1 = j0 + 1
    return j0, j1, t - j0


def interpolate(lo, hi, frac):
    """(1 - frac) lo + frac hi: the linear interpolation of :func:`sample_field`.

    Elementwise on arrays, so a block of samples gets the bits of one
    :func:`sample_field` call each.
    """
    return (1.0 - frac) * lo + frac * hi


def sample_field(values: np.ndarray, grid: SpatialGrid, x: float, first: int = 0) -> float:
    """Linear interpolation at position x of a field given on the grid's points.

    x must lie inside [x_min, x_max]; on a periodic grid the last cell wraps
    around to the first point.  ``values[i]`` is the field at grid point
    ``first + i`` (modulo n on a periodic grid), so a field known only on the
    six points of :func:`stencil_window` can be sampled as well.  Samples of
    many windows at once go through :func:`locate_window` and
    :func:`interpolate` instead.
    """
    j0, j1, frac = _nodes(grid, x)
    n = grid.n
    return float(interpolate(values[(j0 - first) % n], values[(j1 - first) % n], frac))


def locate_window(grid: SpatialGrid, x: float) -> tuple:
    """The six indices of :func:`stencil_window`, where x sits among them, and
    x's fraction of the way between its nodes.

    Returns ``(window, i0, frac)``: x's interpolation nodes j0 and j1 are the
    points ``window[i0]`` and ``window[i0 + 1]``, so the field that
    :func:`disruptor_field` returns for ``R[window]`` is sampled at x as
    ``interpolate(dis[i0], dis[i0 + 1], frac)``, to the bit of
    :func:`sample_field`.
    """
    j0, _, frac = _nodes(grid, x)
    n = grid.n
    first = j0 - 2 if grid.periodic else min(max(j0 - 2, 0), n - WINDOW)
    return np.arange(first, first + WINDOW) % n, j0 - first, frac


def stencil_window(grid: SpatialGrid, x: float) -> np.ndarray:
    """Indices of six consecutive grid points whose amplitudes fix Dis at the nodes of x.

    Dis at a point reads Q at its two neighbours and Q reads R at its own, so
    the interpolation nodes j0 and j0 + 1 of x need R at j0 - 2 .. j0 + 3.  The
    run wraps around a periodic grid.  On a non-periodic grid it is moved
    inside [0, n - 1] instead (it starts at min(max(j0 - 2, 0), n - 6)), so
    that every window has six points and windows stack: next to an end, the
    nodes then read the one-sided stencils at grid point 0 or n - 1, the same
    ones the full grid uses.  :func:`disruptor_field` of those amplitudes,
    read by :func:`sample_field` with ``first`` the run's first index, equals
    the full-grid field sampled at x to the bit: interior stencil values do
    not depend on the length of the array, and the values at the run's two
    ends, which alone can differ, are never read on a periodic grid and on a
    non-periodic one only where they are the grid's own ends.
    """
    return locate_window(grid, x)[0]
