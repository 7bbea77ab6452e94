"""Spatial grid, wavefunction storage, and the polar (Madelung) decomposition.

The grid is uniform and periodic: n points from x_min with spacing
(x_max - x_min) / n, x_max being the seam where it wraps back to x_min.  The
wave propagator's FFTs and the wrapped stencils of :mod:`.derivatives` both
rely on that.  A complex field psi on the grid is split as
psi = R * exp(i S / hbar) into a nonnegative amplitude R and a real
action-valued phase S.  From these the hydrodynamic fields follow: density
rho = R^2, flow velocity u = dS/dx / m, and trajectory momentum p = m * u.
The decomposition works on the raw complex array; :class:`Wavefunction` is
the validated form at the package boundary.  Observables are plain Riemann
sums over the grid.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .derivatives import central_from_increments
from .errors import NodeDominatedError, NodeDominatedWarning

logger = logging.getLogger(__name__)

# Density floor below which arg(psi) is treated as undefined.  Points under the
# floor inherit the phase of the nearest valid neighbour.
EPS_NODE = 1e-12

MIN_GRID_POINTS = 8


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic 1-D position grid, x_j = x_min + j * dx.

    The n points exclude x_max, the seam that wraps back to x_min, so the
    spacing is dx = (x_max - x_min) / n.
    """

    x_min: float
    x_max: float
    n: int
    dx: float = field(init=False)

    def __post_init__(self):
        dx = (self.x_max - self.x_min) / self.n
        object.__setattr__(self, "dx", dx)
        xs = self.x_min + dx * np.arange(self.n)
        xs.setflags(write=False)
        object.__setattr__(self, "_x", xs)

    @property
    def x(self) -> np.ndarray:
        """Grid point positions (read-only array of length n)."""
        return self._x

    def contains(self, x: float) -> bool:
        return self.x_min <= x <= self.x_max


def build_grid(x_min: float, x_max: float, n: int) -> SpatialGrid:
    """Validate and construct a :class:`SpatialGrid`."""
    if not (np.isfinite(x_min) and np.isfinite(x_max)):
        raise ValueError(f"grid bounds must be finite, got [{x_min}, {x_max}]")
    if x_max <= x_min:
        raise ValueError(f"x_max must exceed x_min, got [{x_min}, {x_max}]")
    n = int(n)
    if n < MIN_GRID_POINTS:
        raise ValueError(f"grid needs at least {MIN_GRID_POINTS} points, got {n}")
    return SpatialGrid(float(x_min), float(x_max), n)


@dataclass(frozen=True)
class PhysicsParams:
    """Mass, Planck constant, and friction.

    beta (momentum retention) and lam (learning rate) are always derived as
    beta = 1 - mu and lam = 1/m; they are properties, never stored.
    """

    m: float = 1.0
    hbar: float = 1.0
    mu: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.m) and self.m > 0):
            raise ValueError(f"mass must be positive, got m={self.m}")
        if not (np.isfinite(self.hbar) and self.hbar >= 0):
            raise ValueError(f"hbar must be nonnegative, got hbar={self.hbar}")
        if not (np.isfinite(self.mu) and 0.0 <= self.mu <= 1.0):
            raise ValueError(f"friction must satisfy 0 <= mu <= 1, got mu={self.mu}")

    @property
    def beta(self) -> float:
        return 1.0 - self.mu

    @property
    def lam(self) -> float:
        return 1.0 / self.m


@dataclass(frozen=True)
class Wavefunction:
    """Complex amplitudes on a grid.  Values are frozen after construction."""

    values: np.ndarray
    grid: SpatialGrid

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (self.grid.n,):
            raise ValueError(f"values shape {v.shape} does not match grid n={self.grid.n}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def normalized(self) -> "Wavefunction":
        """Rescale so that sum |psi|^2 dx = 1; the norm must be finite and positive."""
        total = norm(self)
        if not np.isfinite(total):
            raise ValueError(f"cannot normalize a wavefunction of non-finite norm {total}")
        if total <= 0.0:
            raise ValueError("cannot normalize a zero wavefunction")
        return Wavefunction(self.values / np.sqrt(total), self.grid)


@dataclass(frozen=True)
class MadelungFields:
    """Polar fields of a wavefunction: amplitude R, action phase S and density rho.

    The velocity u and the momentum p are derived from S on first read, so a
    caller that needs only S and rho pays nothing for them.  The arrays are
    not frozen; treat them as read-only, since u is derived from S when read.
    ``span`` is (first, last), the first and the last point whose density
    clears the node floor: outside it S is constant, S[:first] = S[first]
    and S[last + 1:] = S[last].
    """

    R: np.ndarray
    S: np.ndarray
    rho: np.ndarray
    grid: SpatialGrid
    params: PhysicsParams
    # psi at the first and the last grid point, for the seam increment of u
    ends: tuple = field(repr=False)
    span: tuple = field(repr=False)

    @cached_property
    def u(self) -> np.ndarray:
        """Flow velocity dS/dx / m from a wrap-safe central stencil."""
        grid = self.grid
        S = self.S
        # Unwrapped S is not periodic even for a periodic psi (nonzero winding),
        # so the seam increment is taken from the wavefunction itself.
        inc = np.empty(grid.n)
        np.subtract(S[1:], S[:-1], out=inc[:-1])
        if self.rho[0] >= EPS_NODE and self.rho[-1] >= EPS_NODE:
            first, last = self.ends
            inc[-1] = self.params.hbar * float(np.angle(first * np.conj(last)))
        else:
            inc[-1] = 0.0
        return central_from_increments(inc, grid.dx) / self.params.m

    @cached_property
    def p(self) -> np.ndarray:
        """Trajectory momentum m * u."""
        return self.params.m * self.u


def norm(psi: Wavefunction) -> float:
    """Total probability sum |psi_j|^2 dx."""
    v = psi.values
    return float(np.sum(v.real * v.real + v.imag * v.imag) * psi.grid.dx)


def _unwrap(theta: np.ndarray, out: np.ndarray) -> None:
    """Write ``np.unwrap(theta)`` of a 1-D phase into ``out``.

    The same mod/copyto/cumsum operations as numpy's unwrap with its default
    period 2*pi, without the axis handling, so the result is equal to the bit.
    numpy zeroes the correction wherever |d theta| < pi, so the mod arithmetic
    runs on the remaining jumps only, and without jumps the cumulative
    correction is all zeros: numpy's result is then theta + 0.0.
    """
    dd = theta[1:] - theta[:-1]
    jumps = np.flatnonzero(~(np.abs(dd) < np.pi))
    out[0] = theta[0]
    if not jumps.size:
        np.add(theta[1:], 0.0, out=out[1:])  # + 0.0 turns -0.0 into 0.0, as numpy's does
        return
    d = dd[jumps]
    c = np.mod(d + np.pi, 2.0 * np.pi)
    c -= np.pi
    np.copyto(c, np.pi, where=(c == -np.pi) & (d > 0))
    c -= d
    correction = np.zeros_like(dd)
    correction[jumps] = c
    np.add(theta[1:], correction.cumsum(), out=out[1:])


def polar_decompose(values: np.ndarray, grid: SpatialGrid, params: PhysicsParams) -> MadelungFields:
    """Split the complex amplitudes ``values`` on ``grid`` into Madelung fields.

    The phase is S = hbar * arg(psi), unwrapped left to right starting from the
    leftmost point whose density clears the node floor; neighbour jumps larger
    than pi*hbar are folded back by 2*pi*hbar.  Sub-floor points inherit the
    phase of their nearest valid neighbour, and the global constant is fixed so
    that S = 0 at the density maximum.  R, S and rho are computed here; u and
    p when first read (see :class:`MadelungFields`).

    Reports node-dominated input (more than half of the grid below the node
    floor) with a warning -- a well-localized packet on a wide grid does this
    legitimately -- and raises :class:`NodeDominatedError` only when fewer
    than two points carry usable phase.
    """
    if params.hbar <= 0.0:
        raise ValueError("polar decomposition needs hbar > 0 (phase is undefined at hbar = 0)")
    R = np.abs(values)
    rho = R * R
    valid = rho >= EPS_NODE
    kept = np.flatnonzero(valid)
    n_invalid = grid.n - kept.size
    if kept.size < 2:
        raise NodeDominatedError(
            f"node-dominated wavefunction: {n_invalid} of {grid.n} points below the "
            f"density floor {EPS_NODE:g}; no usable phase information"
        )
    if n_invalid > 0.5 * grid.n:
        logger.debug("node-dominated decomposition: %d of %d points below %g",
                     n_invalid, grid.n, EPS_NODE)
        warnings.warn(
            "node-dominated wavefunction: over half the grid is below the density "
            f"floor {EPS_NODE:g}; sub-floor phases are filled from neighbours",
            NodeDominatedWarning, stacklevel=2,
        )

    # The phase is only needed between the first and the last valid point;
    # the tails outside that span take the phase of its end points.
    first, last = int(kept[0]), int(kept[-1])
    S = np.empty(grid.n, dtype=float)
    span = S[first:last + 1]
    z = values[first:last + 1]
    theta = np.arctan2(z.imag, z.real)  # np.angle(z)
    if kept.size == span.size:
        _unwrap(theta, span)
    else:
        # interior nodes: unwrap across them, then give each the phase of its
        # nearest valid neighbour (ties go to the left one)
        kept -= first
        unwrapped = np.empty(kept.size)
        _unwrap(theta[kept], unwrapped)
        span[kept] = unwrapped
        gaps = np.flatnonzero(~valid[first:last + 1])
        pos = np.searchsorted(kept, gaps)
        left, right = kept[pos - 1], kept[pos]
        span[gaps] = span[np.where(gaps - left <= right - gaps, left, right)]
    # scale and anchor the span, then fill the tails: the density maximum
    # lies inside the span (and is its first occurrence there too)
    span *= params.hbar
    span -= span[int(np.argmax(rho[first:last + 1]))]
    S[:first] = span[0]
    S[last + 1:] = span[-1]

    return MadelungFields(R=R, S=S, rho=rho, grid=grid, params=params,
                          ends=(values[0], values[-1]), span=(first, last))


def expectation_position(psi: Wavefunction) -> float:
    """<x> = sum x_j rho_j dx."""
    v = psi.values
    rho = v.real * v.real + v.imag * v.imag
    return float(np.sum(psi.grid.x * rho) * psi.grid.dx)


def momentum_weights(grid: SpatialGrid, params: PhysicsParams) -> np.ndarray:
    """Weights w with <p> = sum_k w_k |F_k|^2 for the DFT F = fft(psi) on ``grid``.

    w_k = (hbar dx / n) k_k with k = 2 pi fftfreq(n, dx): Parseval's form of
    <psi| -i hbar d/dx |psi> with the spectral derivative.  For even n the
    Nyquist bin gets weight 0, the odd-derivative convention: the derivative
    then maps a real psi to a real one, so a real psi has <p> = 0 even where
    the periodic seam cuts it.
    """
    if params.hbar <= 0.0:
        raise ValueError("momentum weights need hbar > 0")
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
    if grid.n % 2 == 0:
        k[grid.n // 2] = 0.0
    return k * (params.hbar * grid.dx / grid.n)


def spectral_momentum(spectrum: np.ndarray, weights: np.ndarray) -> float:
    """<p> = sum_k w_k |F_k|^2 from a state's DFT and :func:`momentum_weights`."""
    return float(np.vdot(spectrum, weights * spectrum).real)


def expectation_momentum(psi: Wavefunction, params: PhysicsParams) -> float:
    """<p> = <psi| -i hbar d/dx |psi> from the DFT of psi.

    Since Im(psi* psi') = R^2 S' / hbar, this equals the hydrodynamic momentum
    sum rho_j S'_j dx of the polar fields, with a spectral derivative.
    """
    return spectral_momentum(np.fft.fft(psi.values), momentum_weights(psi.grid, params))


def expectation_phase(fields: MadelungFields) -> float:
    """Density-weighted mean action <S> = sum S_j rho_j dx."""
    return float((fields.S * fields.rho).sum() * fields.grid.dx)


def gaussian_packet(grid: SpatialGrid, x0: float, p0: float = 0.0, sigma: float = 1.0,
                    hbar: float = 1.0) -> Wavefunction:
    """Normalized Gaussian packet whose density has standard deviation sigma."""
    if sigma <= 0:
        raise ValueError(f"packet width must be positive, got sigma={sigma}")
    if hbar <= 0:
        raise ValueError(f"packet phase needs hbar > 0, got hbar={hbar}")
    x = grid.x
    psi = np.exp(-((x - x0) ** 2) / (4.0 * sigma**2) + 1j * p0 * (x - x0) / hbar)
    return Wavefunction(psi, grid).normalized()


def plane_wave(grid: SpatialGrid, k: float) -> Wavefunction:
    """exp(i k x) / sqrt(L) on the grid."""
    length = grid.x_max - grid.x_min
    return Wavefunction(np.exp(1j * k * grid.x) / np.sqrt(length), grid)
