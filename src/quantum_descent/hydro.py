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
position.  Dis at one position needs R at six points only
(:func:`locate_window`).  The stencils act along the first axis, so a (6, K)
stack of such windows gives K fields in one call, each equal to the bits of
its own.
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
    lap = second_derivative(R, grid.dx)
    denom = np.maximum(R, EPS_NODE)
    n_floored = int(np.count_nonzero(R < EPS_NODE))
    if n_floored:
        logger.debug("quantum_potential: floored %d of %d amplitude points", n_floored, R.size)
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


def _nodes(grid: SpatialGrid, x: float) -> tuple:
    """The interpolation nodes j0, j1 of x on the grid and x's fraction of the way."""
    if not grid.contains(x):  # also false for NaN and infinities
        raise ValueError(f"x={x} outside grid domain [{grid.x_min}, {grid.x_max}]")
    t = (x - grid.x_min) / grid.dx
    j0 = min(max(math.floor(t), 0), grid.n - 1)
    return j0, (j0 + 1) % grid.n, t - j0


def interpolate(lo, hi, frac):
    """(1 - frac) lo + frac hi: the linear interpolation of :func:`sample_field`.

    Elementwise on arrays, so a block of samples gets the bits of one
    :func:`sample_field` call each.
    """
    return (1.0 - frac) * lo + frac * hi


def sample_field(values: np.ndarray, grid: SpatialGrid, x: float) -> float:
    """Linear interpolation at position x of a field given on the grid's points.

    x must lie inside [x_min, x_max]; the last cell, from point n - 1 to
    x_max, wraps around to the first point.  A field known only on the six
    points of a window goes through :func:`locate_window` and
    :func:`interpolate` instead.
    """
    j0, j1, frac = _nodes(grid, x)
    return float(interpolate(values[j0], values[j1], frac))


def locate_window(grid: SpatialGrid, x: float) -> tuple:
    """Six consecutive grid points whose amplitudes fix Dis at the nodes of x,
    where x sits among them, and x's fraction of the way between its nodes.

    Dis at a point reads Q at its two neighbours and Q reads R at its own, so
    the interpolation nodes j0 and j0 + 1 of x need R at j0 - 2 .. j0 + 3,
    wrapped around the seam.  Returns ``(window, i0, frac)``: the nodes are
    the points ``window[i0]`` and ``window[i0 + 1]``, so the field that
    :func:`disruptor_field` returns for ``R[window]`` is sampled at x as
    ``interpolate(dis[i0], dis[i0 + 1], frac)``.  That equals the full-grid
    field sampled at x by :func:`sample_field`, to the bit: interior stencil
    values do not depend on the length of the array, and the values at the
    window's two ends, which alone can differ, are never read.
    """
    j0, _, frac = _nodes(grid, x)
    first = j0 - 2
    return np.arange(first, first + WINDOW) % grid.n, j0 - first, frac
