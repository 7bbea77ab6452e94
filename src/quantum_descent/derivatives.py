"""Finite-difference derivatives on uniform periodic 1-D grids.

All stencils are 2nd-order central differences that wrap around the grid's
seam: point 0's left neighbour is point n - 1.  :func:`first_derivative` and
:func:`second_derivative` slice along axis 0 only, so a 2-D array is
differentiated column by column, each column to the bits of the call on that
column alone; the disruptor of a block of stencil windows relies on this.
"""

from __future__ import annotations

import numpy as np


def first_derivative(values: np.ndarray, dx: float) -> np.ndarray:
    """d/dx of ``values`` sampled with spacing ``dx`` along axis 0."""
    f = np.asarray(values)
    out = np.empty_like(f, dtype=np.result_type(f, float))
    out[1:-1] = f[2:] - f[:-2]
    out[0] = f[1] - f[-1]
    out[-1] = f[0] - f[-2]
    out /= 2.0 * dx
    return out


def second_derivative(values: np.ndarray, dx: float) -> np.ndarray:
    """d2/dx2 of ``values`` sampled with spacing ``dx`` along axis 0."""
    f = np.asarray(values)
    out = np.empty_like(f, dtype=np.result_type(f, float))
    out[1:-1] = f[2:] - 2.0 * f[1:-1] + f[:-2]
    out[0] = f[1] - 2.0 * f[0] + f[-1]
    out[-1] = f[0] - 2.0 * f[-1] + f[-2]
    out /= dx * dx
    return out


def central_from_increments(increments: np.ndarray, dx: float) -> np.ndarray:
    """Central first derivative built from neighbour increments d_j = f[j+1] - f[j].

    Averaging two adjacent increments reproduces the 2nd-order central stencil,
    (f[j+1] - f[j-1]) / 2dx, but lets the caller supply a wrap-safe increment at
    the seam (needed for unwrapped phases, which are not periodic even when the
    underlying wavefunction is).  ``increments`` has length n, with
    increments[-1] the seam value f[0] - f[n - 1].
    """
    d = np.asarray(increments, dtype=float)
    out = np.empty(d.size, dtype=float)
    np.add(d[1:], d[:-1], out=out[1:])
    out[0] = d[0] + d[-1]
    out /= 2.0 * dx
    return out
