"""Time evolution of the open (dissipative) quantum system.

The wavefunction obeys a nonlinear Schrodinger equation with a friction term
proportional to the fluctuating part of the phase action,

    i hbar dpsi/dt = -(hbar^2/2m) d2psi/dx2 + V psi + mu (S - <S>) psi,

where S = hbar arg(psi) and <S> is its density-weighted mean.  Since the
friction term is real it only rotates local phases, so the propagation is norm
preserving by construction.  The integrator is 2nd-order Strang splitting
(half kinetic step in frequency space, full potential-plus-friction phase
step with S re-extracted at the midpoint, half kinetic step), so it runs on
grids of a power-of-two number of points.

The position-space substep i hbar dpsi/dt = [V + mu (S - <S>)] psi freezes
the density, so it is solved in closed form (solving it exactly rather than
freezing S over the step is what keeps the Strang composition second order):
<S> drifts by -<V> dt and the centred phase relaxes toward -(V - <V>)/mu at
rate mu.  With d = 1 - exp(-mu dt) and the density-weighted means
S_bar = <S>, v_bar = <V> at its start, it rotates psi by exp(i phi / hbar) with

    phi = -v_bar dt - (S - S_bar + (V - v_bar)/mu) d
        = [d S_bar + v_bar (d/mu - dt)]  -  d S  -  (d/mu) V.

The split step applies it as three factors: the scalar exp(i alpha) with
alpha = [d S_bar + v_bar (d/mu - dt)] / hbar, the phase factor
exp(-i d S / hbar), and the potential factor P_V = exp(-i (d/mu) V / hbar).
P_V is the same on every step, so it is computed once per propagator.  Its
phase is -(d/mu) V and not -V dt because of that relaxation: over one
substep V turns the phase by (d/mu) V, which tends to V dt only as mu -> 0
(and is exactly -V dt at mu = 0, where d/mu is taken as dt and the substep
is P_V alone).  The phase factor needs
trigonometry only where S varies: :func:`~quantum_descent.fields.polar_decompose`
makes S constant outside the packet's valid span, so cos and sin run on that
span and each tail is multiplied by the factor of its span end as a scalar.

For a harmonic trap V = omega^2 x^2 / 2 and a particle of mass m, the
fixed-width Gaussian packet of the trap's ground-state width

    psi(x, t) = (m Omega / pi hbar)^(1/4)
                exp(-(m Omega / 2 hbar)(x - x_t)^2 + i [p_t (x - x_t) + s_t] / hbar),

with Omega = omega / sqrt(m), solves the equation exactly, its centre
following a damped classical oscillator: dx/dt = p/m, dp/dt = -omega^2 x - mu p,
ds/dt = p^2/2m - omega^2 x^2/2 - hbar Omega/2.  The velocity u = p/m thus obeys
du/dt = -Omega^2 x - mu u.  The friction force is the whole story for the
centre because the curvature (quantum-potential) force vanishes at the centre
of a fixed-width Gaussian.  The closed form of that oscillator doubles as an
independent oracle for the PDE; the packet is
:func:`~quantum_descent.fields.gaussian_packet` with density variance
hbar / (2 m Omega) = hbar / (2 omega sqrt(m)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericalError
from .fields import (
    PhysicsParams,
    SpatialGrid,
    Wavefunction,
    momentum_weights,
    polar_decompose,
    spectral_momentum,
)
from .hydro import NODE, WINDOW, disruptor_field, interpolate, locate_window

if TYPE_CHECKING:
    from .learner import PotentialSpec


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def check_propagation(grid: SpatialGrid, params: PhysicsParams) -> None:
    """Raise ValueError unless :class:`KostinPropagator` can run on ``grid``
    with ``params``; a bad hbar is reported first, then the grid size."""
    if params.hbar <= 0:
        raise ValueError("the wave propagator needs hbar > 0")
    if not _is_power_of_two(grid.n):
        raise ValueError(f"the wave propagator needs a power-of-two number of points, "
                         f"got n={grid.n}")


def _unit_phasor(phase: np.ndarray, hbar: float) -> np.ndarray:
    """np.exp(1j * phase / hbar) as cos + i sin, to the bit.

    numpy's complex arithmetic gives the exponent the imaginary part
    (phase + 0.0) * (1/hbar) (+ 0.0 turns -0.0 into 0.0), and libm's cexp of
    a purely imaginary number is (cos, sin) of it.
    """
    arg = phase + 0.0
    arg *= 1.0 / hbar
    out = np.empty(arg.size, dtype=np.complex128)
    np.cos(arg, out=out.real)
    np.sin(arg, out=out.imag)
    return out


class KostinPropagator:
    """Steps a wavefunction through the dissipative nonlinear equation.

    Precomputes what it can (kinetic phases, the potential on the grid and
    the potential factor of the friction substep) and re-extracts the phase
    action only when mu != 0.  One instance owns one evolution; step()
    consumes and returns raw complex arrays, and leaves the DFT of the array
    it returned in ``spectrum`` (None before the first step).
    """

    def __init__(self, grid: SpatialGrid, potential: PotentialSpec, params: PhysicsParams,
                 dt: float):
        check_propagation(grid, params)
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.grid = grid
        self.params = params
        self.dt = float(dt)
        self._Vx = np.asarray(potential.evaluate(grid.x), dtype=float)
        self._decay = -np.expm1(-params.mu * self.dt)  # 1 - e^{-mu dt}
        self.spectrum = None
        k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
        # half step of exp(-i T dt / hbar) with T = hbar^2 k^2 / 2m
        self._half_kinetic = np.exp(-1j * params.hbar * k * k * self.dt / (4.0 * params.m))
        # P_V = exp(-i (d/mu) V / hbar), with d/mu = dt at mu = 0
        scale = self.dt if params.mu == 0.0 else self._decay / params.mu
        self._potential_factor = _unit_phasor(-self._Vx * scale, params.hbar)

    def step(self, values: np.ndarray) -> np.ndarray:
        """One Strang step of dt: half kinetic, friction substep, half kinetic."""
        hk = self._half_kinetic
        f = np.fft.fft(values)
        out = np.fft.ifft(np.multiply(hk, f, out=f))
        if self.params.mu == 0.0:
            out *= self._potential_factor
        else:
            self._rotate_with_friction(out)
        f = np.fft.fft(out)
        # the last half kinetic step is taken in frequency space: keep it as
        # the spectrum of the state this step returns
        self.spectrum = np.multiply(hk, f, out=f)
        return np.fft.ifft(f)

    def _rotate_with_friction(self, out: np.ndarray) -> None:
        """Apply the friction substep to ``out`` in place, element by element
        (out * P_V) * (exp(1j * (-d * S) / hbar) * exp(1j * alpha)).

        S and the density-weighted means <S> and <V> that alpha reads come
        from the polar fields of ``out``.  Outside the valid span S is
        constant, so each tail takes the factor of its span end as a scalar:
        numpy's array-times-scalar product has the bits of its
        array-times-array one, so this is the full-grid product.  The scalar
        is read from the span's array product, because numpy's product of two
        complex scalars need not round like its array loop.
        """
        fields = polar_decompose(out, self.grid, self.params)
        v_mean = float((fields.rho * self._Vx).sum() / fields.rho.sum())
        hbar, d, dt = self.params.hbar, self._decay, self.dt
        s_mean = float((fields.S * fields.rho).sum() * self.grid.dx)
        alpha = (d * s_mean + v_mean * (d / self.params.mu - dt)) / hbar
        first, last = fields.span
        rotation = _unit_phasor(-d * fields.S[first:last + 1], hbar)
        rotation *= np.exp(1j * alpha)
        out *= self._potential_factor
        out[first:last + 1] *= rotation
        out[:first] *= rotation[0]
        out[last + 1:] *= rotation[-1]


@dataclass
class EvolutionRecord:
    """Per-step series and periodic snapshots of a propagation run.

    The series are sampled after every step (index 0 is the initial state):
    centre <x>, momentum <p> = <psi| -i hbar d/dx |psi> from the DFT of psi
    (see :func:`~quantum_descent.fields.momentum_weights`; it equals the
    hydrodynamic sum rho S' dx), total norm, and the disruptor field
    evaluated at the instantaneous centre.  ``evolve`` fills ``dis_center``
    a block of steps at a time (see :data:`DIS_BLOCK`), with the same bits as
    one evaluation per step.  Snapshots hold full copies of psi at the
    recorded times.
    """

    grid: SpatialGrid
    times: np.ndarray
    x_mean: np.ndarray
    p_mean: np.ndarray
    norm: np.ndarray
    dis_center: np.ndarray
    snapshot_times: np.ndarray
    snapshots: list

    @property
    def densities(self) -> np.ndarray:
        """Snapshot densities as columns: shape (n, n_snapshots)."""
        return np.column_stack([np.abs(s) ** 2 for s in self.snapshots])


# recorded steps whose centre disruptor evolve evaluates in one call
DIS_BLOCK = 512


def evolve(psi0: Wavefunction, potential: PotentialSpec, params: PhysicsParams,
           dt: float, t_final: float, snapshot_every: int) -> EvolutionRecord:
    """Propagate psi0 to t_final in steps of dt, recording series every step
    and a snapshot every ``snapshot_every`` steps and at the last one.

    The step count is ceil(t_final/dt), so the final time is within one dt of
    (and not less than dt below) the requested horizon.  Numerical failures are
    re-raised with the failing step index attached.

    Dis at <x> reads the WINDOW amplitudes of
    :func:`~quantum_descent.hydro.locate_window` only.  Each recorded step
    keeps those amplitudes and <x>'s fraction of its cell; one
    :func:`~quantum_descent.hydro.disruptor_field` call on the stacked
    windows of up to :data:`DIS_BLOCK` steps then fills their
    ``dis_center``, so the extra memory is one block whatever the step count.
    """
    if t_final < 0:
        raise ValueError(f"t_final must be nonnegative, got {t_final}")
    if snapshot_every < 1:
        raise ValueError(f"snapshot_every must be >= 1, got {snapshot_every}")
    grid = psi0.grid
    prop = KostinPropagator(grid, potential, params, dt)  # checks dt > 0
    n_steps = max(0, math.ceil(t_final / dt - 1e-12))
    values = psi0.values  # read-only; step() returns a new array

    times = np.empty(n_steps + 1)
    x_mean = np.empty(n_steps + 1)
    p_mean = np.empty(n_steps + 1)
    norms = np.empty(n_steps + 1)
    dis_center = np.empty(n_steps + 1)
    snapshot_times: list[float] = []
    snapshots: list[np.ndarray] = []
    weights = momentum_weights(grid, params)
    # per step of the block being filled: the WINDOW amplitudes of its window
    # and <x>'s fraction of the cell (the block is evaluated when full, so
    # its memory is bounded)
    windows = np.empty((DIS_BLOCK, WINDOW), dtype=np.complex128)
    fracs = np.empty(DIS_BLOCK)

    def fill_dis(k: int) -> None:
        """Dis at <x> of the block of steps that ends at step k."""
        size = k % DIS_BLOCK + 1
        dis = disruptor_field(np.abs(windows[:size]).T, grid, params)
        dis_center[k + 1 - size:k + 1] = interpolate(dis[NODE, :size], dis[NODE + 1, :size],
                                                     fracs[:size])

    def record(k: int, spectrum: np.ndarray) -> None:
        t = k * dt
        rho = np.abs(values) ** 2
        times[k] = t
        norm = float(rho.sum() * grid.dx)
        norms[k] = norm
        if not math.isfinite(norm):
            raise NumericalError(f"non-finite wavefunction (norm={norm}) at t={t:g}", step=k)
        x_mean[k] = xm = float((grid.x * rho).sum() * grid.dx)
        p_mean[k] = spectral_momentum(spectrum, weights)
        b = k % DIS_BLOCK
        window, fracs[b] = locate_window(grid, min(max(xm, grid.x_min), grid.x_max))
        windows[b] = values[window]
        if k % snapshot_every == 0 or k == n_steps:
            snapshot_times.append(t)
            snapshots.append(values.copy())
        if b == DIS_BLOCK - 1 or k == n_steps:
            fill_dis(k)

    record(0, np.fft.fft(values))
    for k in range(1, n_steps + 1):
        try:
            values = prop.step(values)
            record(k, prop.spectrum)
        except NumericalError as err:
            raise NumericalError(f"propagation failed at step {k}: {err}", step=k) from err
    return EvolutionRecord(grid, times, x_mean, p_mean, norms, dis_center,
                           np.asarray(snapshot_times), snapshots)


def damped_oscillator_closed_form(x0: float, p0: float, mu: float, omega: float,
                                  t: float) -> tuple[float, float]:
    """Exact (x, p) of dx/dt = p, dp/dt = -omega^2 x - mu p at time t >= 0.

    Uses the characteristic roots of r^2 + mu r + omega^2 = 0; the under-,
    over-, and critically damped branches are all handled.
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if t == 0.0:
        return float(x0), float(p0)
    disc = mu * mu - 4.0 * omega * omega
    if disc < 0.0:
        wd = math.sqrt(-disc) / 2.0
        a = x0
        b = (p0 + 0.5 * mu * x0) / wd
        decay = math.exp(-0.5 * mu * t)
        cos_t, sin_t = math.cos(wd * t), math.sin(wd * t)
        x = decay * (a * cos_t + b * sin_t)
        p = decay * (-0.5 * mu * (a * cos_t + b * sin_t) + wd * (-a * sin_t + b * cos_t))
        return x, p
    if disc > 0.0:
        root = math.sqrt(disc)
        r1 = 0.5 * (-mu + root)
        r2 = 0.5 * (-mu - root)
        c1 = (p0 - r2 * x0) / (r1 - r2)
        c2 = x0 - c1
        x = c1 * math.exp(r1 * t) + c2 * math.exp(r2 * t)
        p = c1 * r1 * math.exp(r1 * t) + c2 * r2 * math.exp(r2 * t)
        return x, p
    r = -0.5 * mu
    b = p0 - r * x0
    decay = math.exp(r * t)
    x = (x0 + b * t) * decay
    p = (b + r * (x0 + b * t)) * decay
    return x, p
