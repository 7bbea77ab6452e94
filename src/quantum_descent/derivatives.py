"""Finite-difference derivatives on uniform periodic 1-D grids.

All stencils are 2nd-order central differences that read :data:`REACH`
points on each side of a point and wrap around the grid's seam: point 0's
left neighbour is point n - 1.  Each is one expression on the array padded
along axis 0 with ``REACH`` rows wrapped from its other end, so a 2-D array
is differentiated column by column, each column to the bits of the call on
that column alone; the disruptor of a block of stencil windows relies on this.
"""

from __future__ import annotations

import numpy as np

# points a stencil reads on each side of the point it differentiates at
REACH = 1


def _wrapped(f: np.ndarray) -> np.ndarray:
    """f with REACH rows of its other end added at each end of axis 0."""
    return np.concatenate((f[-REACH:], f, f[:REACH]))


def first_derivative(values: np.ndarray, dx: float) -> np.ndarray:
    """d/dx of ``values`` sampled with spacing ``dx`` along axis 0."""
    f = _wrapped(np.asarray(values))
    return (f[2:] - f[:-2]) / (2.0 * dx)


def second_derivative(values: np.ndarray, dx: float) -> np.ndarray:
    """d2/dx2 of ``values`` sampled with spacing ``dx`` along axis 0."""
    f = _wrapped(np.asarray(values))
    return (f[2:] - 2.0 * f[1:-1] + f[:-2]) / (dx * dx)


def central_from_increments(increments: np.ndarray, dx: float) -> np.ndarray:
    """Central first derivative built from neighbour increments d_j = f[j+1] - f[j].

    Averaging two adjacent increments reproduces the 2nd-order central stencil,
    (f[j+1] - f[j-1]) / 2dx, but lets the caller supply a wrap-safe increment at
    the seam (needed for unwrapped phases, which are not periodic even when the
    underlying wavefunction is).  ``increments`` has length n along axis 0,
    with increments[-1] the seam value f[0] - f[n - 1].
    """
    d = _wrapped(np.asarray(increments, dtype=float))
    return (d[1:-1] + d[:-2]) / (2.0 * dx)
