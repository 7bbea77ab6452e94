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
:func:`sample_field` interpolates such an array at one position.
"""

from __future__ import annotations

import logging

import numpy as np

from .derivatives import first_derivative, second_derivative
from .fields import EPS_NODE, PhysicsParams, SpatialGrid

logger = logging.getLogger(__name__)


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
        logger.debug("quantum_potential: floored %d of %d amplitude points", n_floored, grid.n)
    return -(params.hbar**2 / (2.0 * params.m)) * lap / denom


def disruptor_field(R: np.ndarray, grid: SpatialGrid, params: PhysicsParams) -> np.ndarray:
    """Dis = (hbar^2/2m^2) d/dx[(d2R/dx2)/R], evaluated as -(1/m) dQ/dx."""
    q = quantum_potential(R, grid, params)
    return -first_derivative(q, grid.dx, grid.periodic) / params.m


def sample_field(values: np.ndarray, grid: SpatialGrid, x: float) -> float:
    """Linear interpolation at position x of a field given on the grid's points.

    x must lie inside [x_min, x_max]; on a periodic grid the last cell wraps
    around to the first point.
    """
    if not np.isfinite(x) or not grid.contains(x):
        raise ValueError(f"x={x} outside grid domain [{grid.x_min}, {grid.x_max}]")
    t = (x - grid.x_min) / grid.dx
    j = int(np.floor(t))
    if grid.periodic:
        j0 = min(max(j, 0), grid.n - 1)
        j1 = (j0 + 1) % grid.n
    else:
        j0 = min(max(j, 0), grid.n - 2)
        j1 = j0 + 1
    frac = t - j0
    return float((1.0 - frac) * values[j0] + frac * values[j1])
