"""Spatial grid, wavefunction storage, and the polar (Madelung) decomposition.

The grid is uniform and periodic: n points from x_min with spacing
(x_max - x_min) / n, x_max being the seam where it wraps back to x_min.  The
wave propagator's FFTs and the wrapped stencils of :mod:`.derivatives` both
rely on that.  A complex field psi on the grid is split as
psi = R * exp(i S / hbar) into a nonnegative amplitude R, a real
action-valued phase S and the density rho = R^2.  S is integrated from the
angles between neighbouring amplitudes, so it does not wrap where arg(psi)
does.  The friction substep of the propagator reads S and rho; the flow
velocity u = dS/dx / m is not computed here.  The decomposition works on
the raw complex array; :class:`Wavefunction` is the validated form at the
package boundary.  The momentum <p> is read from the state's DFT
(:func:`momentum_weights`, :func:`spectral_momentum`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import NodeDominatedError

# Density floor below which arg(psi) is treated as undefined.  Points under the
# floor inherit the phase of the nearest valid neighbour.
EPS_NODE = 1e-12

MIN_GRID_POINTS = 8


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic 1-D position grid, x_j = x_min + j * dx.

    The n points exclude x_max, the seam that wraps back to x_min, so the
    spacing is dx = (x_max - x_min) / n.  The bounds, coerced to float, must be
    finite and increasing, and n an integer of at least MIN_GRID_POINTS.
    """

    x_min: float = -20.0
    x_max: float = 20.0
    n: int = 2048
    dx: float = field(init=False)

    def __post_init__(self):
        x_min, x_max, n = float(self.x_min), float(self.x_max), operator.index(self.n)
        if not (np.isfinite(x_min) and np.isfinite(x_max)):
            raise ValueError(f"grid bounds must be finite, got [{x_min}, {x_max}]")
        if x_max <= x_min:
            raise ValueError(f"x_max must exceed x_min, got [{x_min}, {x_max}]")
        if n < MIN_GRID_POINTS:
            raise ValueError(f"grid needs at least {MIN_GRID_POINTS} points, got {n}")
        dx = (x_max - x_min) / n
        xs = x_min + dx * np.arange(n)
        xs.setflags(write=False)
        for name, value in zip(("x_min", "x_max", "n", "dx", "_x"), (x_min, x_max, n, dx, xs)):
            object.__setattr__(self, name, value)

    @property
    def x(self) -> np.ndarray:
        """Grid point positions (read-only array of length n)."""
        return self._x

    def contains(self, x: float) -> bool:
        return self.x_min <= x <= self.x_max


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


@dataclass
class MadelungFields:
    """Polar fields of a wavefunction: amplitude R, action phase S and density rho.

    Neither the instance nor its arrays are frozen (one is built on every
    friction substep); treat both as read-only.  ``span`` is (first, last),
    the first and the last point whose density clears the node floor:
    outside it S is constant, S[:first] = S[first] and S[last + 1:] = S[last].
    """

    R: np.ndarray
    S: np.ndarray
    rho: np.ndarray
    span: tuple


def norm(psi: Wavefunction) -> float:
    """Total probability sum |psi_j|^2 dx."""
    v = psi.values
    return float(np.sum(v.real * v.real + v.imag * v.imag) * psi.grid.dx)


def polar_decompose(values: np.ndarray, grid: SpatialGrid, params: PhysicsParams) -> MadelungFields:
    """Split the complex amplitudes ``values`` on ``grid`` into Madelung fields.

    The phase is integrated from neighbour increments over the valid span,
    S_j = S_{j-1} + hbar * arg(psi_j conj(psi_{j-1})), between consecutive
    points whose density clears the node floor; each increment is the
    principal angle in (-pi*hbar, pi*hbar], so exactly opposite neighbours
    step by +pi*hbar.  Sub-floor points inherit the phase of their nearest
    valid neighbour, and the global constant is fixed so that S = 0 at the
    density maximum.

    Raises :class:`NodeDominatedError` when fewer than two points clear the
    node floor; every other state decomposes silently, however much of the
    grid lies below the floor (a localized packet on a wide grid).
    """
    if params.hbar <= 0.0:
        raise ValueError("polar decomposition needs hbar > 0 (phase is undefined at hbar = 0)")
    R = np.abs(values)
    rho = R * R
    valid = rho >= EPS_NODE
    kept = np.flatnonzero(valid)
    if kept.size < 2:
        raise NodeDominatedError(
            f"node-dominated wavefunction: {grid.n - kept.size} of {grid.n} points below "
            f"the density floor {EPS_NODE:g}; no usable phase information"
        )

    # The phase is only needed between the first and the last valid point;
    # the tails outside that span take the phase of its end points.
    first, last = int(kept[0]), int(kept[-1])
    S = np.empty(grid.n, dtype=float)
    span = S[first:last + 1]
    gapless = kept.size == span.size
    # increments between consecutive valid points; + 0.0 turns a -0.0
    # imaginary part into 0.0, so exactly opposite neighbours step by +pi
    z = values[first:last + 1] if gapless else values[kept]
    step = z[1:] * np.conj(z[:-1])
    phase = span if gapless else np.empty(kept.size)
    phase[0] = 0.0
    # the cumulative sum, without np.cumsum's dispatch
    np.add.accumulate(np.arctan2(step.imag + 0.0, step.real), out=phase[1:])
    if not gapless:
        # interior nodes: give each the phase of its nearest valid neighbour
        # (ties go to the left one)
        kept -= first
        span[kept] = phase
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

    return MadelungFields(R=R, S=S, rho=rho, span=(first, last))


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
