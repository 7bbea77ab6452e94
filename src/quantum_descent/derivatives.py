"""Finite-difference derivatives on uniform 1-D grids.

All stencils are 2nd-order central differences: periodic grids wrap the
stencil, non-periodic grids fall back to one-sided 2nd-order stencils at the
two boundary points.
"""

from __future__ import annotations

import numpy as np


def first_derivative(values: np.ndarray, dx: float, periodic: bool) -> np.ndarray:
    """d/dx of ``values`` sampled with spacing ``dx``."""
    f = np.asarray(values)
    out = np.empty_like(f, dtype=np.result_type(f, float))
    if periodic:
        out[1:-1] = f[2:] - f[:-2]
        out[0] = f[1] - f[-1]
        out[-1] = f[0] - f[-2]
        out /= 2.0 * dx
        return out
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * dx)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * dx)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * dx)
    return out


def second_derivative(values: np.ndarray, dx: float, periodic: bool) -> np.ndarray:
    """d2/dx2 of ``values`` sampled with spacing ``dx``."""
    f = np.asarray(values)
    out = np.empty_like(f, dtype=np.result_type(f, float))
    dx2 = dx * dx
    if periodic:
        out[1:-1] = f[2:] - 2.0 * f[1:-1] + f[:-2]
        out[0] = f[1] - 2.0 * f[0] + f[-1]
        out[-1] = f[0] - 2.0 * f[-1] + f[-2]
        out /= dx2
        return out
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / dx2
    out[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / dx2
    out[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / dx2
    return out


def central_from_increments(increments: np.ndarray, dx: float, periodic: bool) -> np.ndarray:
    """Central first derivative built from neighbour increments d_j = f[j+1] - f[j].

    Averaging two adjacent increments reproduces the 2nd-order central stencil,
    (f[j+1] - f[j-1]) / 2dx, but lets the caller supply a wrap-safe increment at
    a periodic seam (needed for unwrapped phases, which are not periodic even
    when the underlying wavefunction is).  For periodic input ``increments`` has
    length n with increments[-1] the seam value; otherwise length n - 1.
    """
    d = np.asarray(increments, dtype=float)
    if periodic:
        out = np.empty(d.size, dtype=float)
        np.add(d[1:], d[:-1], out=out[1:])
        out[0] = d[0] + d[-1]
        out /= 2.0 * dx
        return out
    n = d.size + 1
    out = np.empty(n, dtype=float)
    out[1:-1] = (d[1:] + d[:-1]) / (2.0 * dx)
    # one-sided 2nd-order ends, rewritten in increment form
    out[0] = (3.0 * d[0] - d[1]) / (2.0 * dx)
    out[-1] = (3.0 * d[-1] - d[-2]) / (2.0 * dx)
    return out
