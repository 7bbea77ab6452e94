"""Time evolution of the open (dissipative) quantum system.

The wavefunction obeys a nonlinear Schrodinger equation with a friction term
proportional to the fluctuating part of the phase action,

    i hbar dpsi/dt = -(hbar^2/2m) d2psi/dx2 + V psi + mu (S - <S>) psi,

where S = hbar arg(psi) and <S> is its density-weighted mean.  Since the
friction term is real it only rotates local phases, so the propagation is norm
preserving by construction.  The default integrator is 2nd-order Strang
splitting (half kinetic step in frequency space, full potential-plus-friction
phase step with S re-extracted at the midpoint, half kinetic step); a
Crank-Nicolson scheme is available as a cross-check on non-periodic grids.

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

For a harmonic trap the fixed-width Gaussian packet

    psi(x, t) = (omega/pi)^(1/4) exp(-(omega/2)(x - x_t)^2 + i p_t (x - x_t) + i s_t)

solves the equation exactly (units hbar = m = 1) with the packet centre
following a damped classical oscillator: dx/dt = p, dp/dt = -omega^2 x - mu p,
ds/dt = p^2/2 - omega^2 x^2/2 - omega/2.  The friction force is the whole
story for the centre because the curvature (quantum-potential) force vanishes
at the centre of a fixed-width Gaussian.  The closed form of that oscillator
doubles as an independent oracle for the PDE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError
from .fields import (
    PhysicsParams,
    SpatialGrid,
    Wavefunction,
    expectation_phase,
    momentum_weights,
    polar_decompose,
    spectral_momentum,
)
from .hydro import WINDOW, disruptor_field, interpolate, locate_window
from .learner import PotentialSpec

SCHEMES = ("split_step_spectral", "crank_nicolson")


@dataclass(frozen=True)
class PropagatorConfig:
    """Time-stepping parameters for :func:`evolve`."""

    dt: float = 1e-3
    scheme: str = "split_step_spectral"
    t_final: float = 10.0
    snapshot_every: int = 100

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_final < 0:
            raise ValueError(f"t_final must be nonnegative, got {self.t_final}")
        if self.snapshot_every < 1:
            raise ValueError(f"snapshot_every must be >= 1, got {self.snapshot_every}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")


@dataclass(frozen=True)
class CoherentStateParams:
    """Centre, momentum, accumulated phase, and trap frequency of the packet."""

    x_t: float = 0.0
    p_t: float = 0.0
    s_t: float = 0.0
    omega: float = 1.0

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError(f"trap frequency must be positive, got omega={self.omega}")


def coherent_state(cp: CoherentStateParams, grid: SpatialGrid) -> Wavefunction:
    """Fixed-width Gaussian packet in a harmonic trap (units hbar = m = 1).

    The grid must span at least 8 standard deviations of the density,
    sigma = 1/sqrt(2 omega), around the centre; the result is renormalized on
    the grid.
    """
    sigma = 1.0 / math.sqrt(2.0 * cp.omega)
    if cp.x_t - 4.0 * sigma < grid.x_min or cp.x_t + 4.0 * sigma > grid.x_max:
        raise ValueError(
            f"grid [{grid.x_min}, {grid.x_max}] too narrow for a packet at x_t={cp.x_t} "
            f"with sigma={sigma:.4g} (needs 8 standard deviations)"
        )
    x = grid.x
    psi = (cp.omega / np.pi) ** 0.25 * np.exp(
        -(cp.omega / 2.0) * (x - cp.x_t) ** 2 + 1j * (cp.p_t * (x - cp.x_t) + cp.s_t)
    )
    return Wavefunction(psi, grid).normalized()


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def check_propagation(grid: SpatialGrid, params: PhysicsParams, scheme: str) -> None:
    """Raise ValueError unless :class:`KostinPropagator` can run ``scheme`` on
    ``grid`` with ``params``; a bad hbar is reported first."""
    if params.hbar <= 0:
        raise ValueError("the wave propagator needs hbar > 0")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    if scheme == "split_step_spectral":
        if not grid.periodic:
            raise ValueError("split_step_spectral needs a periodic grid")
        if not _is_power_of_two(grid.n):
            raise ValueError(f"split_step_spectral needs a power-of-two grid, got n={grid.n}")
    elif grid.periodic:
        raise ValueError("crank_nicolson runs on non-periodic grids "
                         "(use split_step_spectral for periodic ones)")


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

    Precomputes what it can (kinetic phases, the potential on the grid and,
    for the split step, the potential factor of the friction substep) and
    re-extracts the phase action only when mu != 0.  One instance owns one
    evolution; step() consumes and returns raw complex arrays, and leaves the
    DFT of the array it returned in ``spectrum`` (None before the first step).
    """

    def __init__(self, grid: SpatialGrid, potential: PotentialSpec, params: PhysicsParams,
                 dt: float, scheme: str = "split_step_spectral"):
        check_propagation(grid, params, scheme)
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.grid = grid
        self.params = params
        self.dt = float(dt)
        self.scheme = scheme
        self._Vx = np.asarray(potential.evaluate(grid.x), dtype=float)
        self._decay = -np.expm1(-params.mu * self.dt)  # 1 - e^{-mu dt}
        self.spectrum = None
        if scheme == "split_step_spectral":
            k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
            # half step of exp(-i T dt / hbar) with T = hbar^2 k^2 / 2m
            self._half_kinetic = np.exp(-1j * params.hbar * k * k * self.dt / (4.0 * params.m))
            # P_V = exp(-i (d/mu) V / hbar), with d/mu = dt at mu = 0
            scale = self.dt if params.mu == 0.0 else self._decay / params.mu
            self._potential_factor = _unit_phasor(-self._Vx * scale, params.hbar)
        else:
            self._kin = params.hbar**2 / (2.0 * params.m * grid.dx**2)

    def _friction_means(self, values: np.ndarray) -> tuple:
        """(fields, <S>, <V>): the polar fields of ``values`` and the
        density-weighted means the friction substep starts from."""
        fields = polar_decompose(values, self.grid, self.params)
        v_mean = float((fields.rho * self._Vx).sum() / fields.rho.sum())
        return fields, expectation_phase(fields), v_mean

    def step(self, values: np.ndarray) -> np.ndarray:
        if self.scheme == "split_step_spectral":
            return self._step_spectral(values)
        return self._step_crank_nicolson(values)

    def _step_spectral(self, values: np.ndarray) -> np.ndarray:
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

        Outside the valid span S is constant, so each tail takes the factor
        of its span end as a scalar: numpy's array-times-scalar product has
        the bits of its array-times-array one, so this is the full-grid
        product.  The scalar is read from the span's array product, because
        numpy's product of two complex scalars need not round like its array
        loop.
        """
        fields, s_mean, v_mean = self._friction_means(out)
        hbar, d, dt = self.params.hbar, self._decay, self.dt
        alpha = (d * s_mean + v_mean * (d / self.params.mu - dt)) / hbar
        first, last = fields.span
        rotation = _unit_phasor(-d * fields.S[first:last + 1], hbar)
        rotation *= np.exp(1j * alpha)
        out *= self._potential_factor
        out[first:last + 1] *= rotation
        out[:first] *= rotation[0]
        out[last + 1:] *= rotation[-1]

    def _step_crank_nicolson(self, values: np.ndarray) -> np.ndarray:
        # semi-implicit: the effective potential (including the friction
        # term's relaxation) is frozen at the current state for one step,
        # so this scheme is first order in the friction coupling; it serves
        # as an independent cross-check of the spectral propagator
        dt = self.dt
        if self.params.mu == 0.0:
            phase = -self._Vx * dt
        else:
            # the substep's phase in closed form (see the module docstring),
            # evaluated in place
            fields, s_mean, v_mean = self._friction_means(values)
            d0 = fields.S - s_mean
            phase = self._Vx - v_mean
            phase /= self.params.mu
            np.add(d0, phase, out=phase)
            phase *= self._decay
            phase = np.subtract(-v_mean * dt, phase, out=phase)
        w = -phase / dt
        n = self.grid.n
        diag = 2.0 * self._kin + w
        off = -self._kin
        c = 1j * self.dt / (2.0 * self.params.hbar)
        # rhs = (I - c H) psi with Dirichlet ends
        rhs = (1.0 - c * diag) * values
        rhs[:-1] -= c * off * values[1:]
        rhs[1:] -= c * off * values[:-1]
        ab = np.zeros((3, n), dtype=np.complex128)
        ab[0, 1:] = c * off
        ab[1, :] = 1.0 + c * diag
        ab[2, :-1] = c * off
        # imported here: scipy.linalg takes about as long to import as the
        # rest of the package, and only this scheme uses it
        import scipy.linalg

        result = scipy.linalg.solve_banded((1, 1), ab, rhs)
        self.spectrum = np.fft.fft(result)
        return result


@dataclass
class EvolutionRecord:
    """Per-step series and periodic snapshots of a propagation run.

    The series are sampled after every step (index 0 is the initial state):
    centre <x>, momentum <p> = <psi| -i hbar d/dx |psi> from the DFT of psi
    (equal to the hydrodynamic sum rho S' dx, see
    :func:`~quantum_descent.fields.expectation_momentum`), total norm, and the
    disruptor field evaluated at the instantaneous centre.  ``evolve`` fills
    ``dis_center`` a block of steps at a time (see :data:`DIS_BLOCK`), with
    the same bits as one evaluation per step.  Snapshots hold full copies of
    psi at the recorded times.
    """

    grid: SpatialGrid
    times: np.ndarray
    x_mean: np.ndarray
    p_mean: np.ndarray
    norm: np.ndarray
    dis_center: np.ndarray
    snapshot_times: np.ndarray
    snapshots: list
    config: PropagatorConfig

    @property
    def densities(self) -> np.ndarray:
        """Snapshot densities as columns: shape (n, n_snapshots)."""
        return np.column_stack([np.abs(s) ** 2 for s in self.snapshots])


# recorded steps whose centre disruptor evolve evaluates in one call
DIS_BLOCK = 512


def evolve(psi0: Wavefunction, potential: PotentialSpec, params: PhysicsParams,
           config: PropagatorConfig) -> EvolutionRecord:
    """Propagate psi0 to t_final, recording series every step.

    The step count is ceil(t_final/dt), so the final time is within one dt of
    (and not less than dt below) the requested horizon.  Numerical failures are
    re-raised with the failing step index attached.

    Dis at <x> reads the six amplitudes of :func:`~quantum_descent.hydro.stencil_window`
    only.  Each recorded step keeps those amplitudes and where <x> sits among
    them; one :func:`~quantum_descent.hydro.disruptor_field` call on the
    stacked windows of up to :data:`DIS_BLOCK` steps then fills their
    ``dis_center``, so the extra memory is one block whatever the step count.
    """
    grid = psi0.grid
    n_steps = max(0, math.ceil(config.t_final / config.dt - 1e-12))
    prop = KostinPropagator(grid, potential, params, config.dt, scheme=config.scheme)
    values = np.array(psi0.values, dtype=np.complex128)

    times = np.empty(n_steps + 1)
    x_mean = np.empty(n_steps + 1)
    p_mean = np.empty(n_steps + 1)
    norms = np.empty(n_steps + 1)
    dis_center = np.empty(n_steps + 1)
    snapshot_times: list[float] = []
    snapshots: list[np.ndarray] = []
    weights = momentum_weights(grid, params)
    # per step of the block being filled: the six amplitudes of its window,
    # the place of <x>'s first node in that window and <x>'s fraction of the
    # cell (the block is evaluated when full, so its memory is bounded)
    windows = np.empty((DIS_BLOCK, WINDOW), dtype=np.complex128)
    places = np.empty(DIS_BLOCK, dtype=np.intp)
    fracs = np.empty(DIS_BLOCK)
    columns = np.arange(DIS_BLOCK)

    def fill_dis(k: int) -> None:
        """Dis at <x> of the block of steps that ends at step k."""
        size = k % DIS_BLOCK + 1
        dis = disruptor_field(np.abs(windows[:size]).T, grid, params)
        cols, i0 = columns[:size], places[:size]
        dis_center[k + 1 - size:k + 1] = interpolate(dis[i0, cols], dis[i0 + 1, cols],
                                                     fracs[:size])

    def record(k: int, spectrum: np.ndarray) -> None:
        t = k * config.dt
        rho = np.abs(values) ** 2
        times[k] = t
        norm = float(rho.sum() * grid.dx)
        norms[k] = norm
        if not math.isfinite(norm):
            raise NumericalError(f"non-finite wavefunction (norm={norm}) at t={t:g}", step=k)
        x_mean[k] = xm = float((grid.x * rho).sum() * grid.dx)
        p_mean[k] = spectral_momentum(spectrum, weights)
        b = k % DIS_BLOCK
        window, places[b], fracs[b] = locate_window(grid, min(max(xm, grid.x_min), grid.x_max))
        windows[b] = values[window]
        if k % config.snapshot_every == 0 or k == n_steps:
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
                           np.asarray(snapshot_times), snapshots, config)


def coherent_ode_step(cp: CoherentStateParams, params: PhysicsParams,
                      dt: float) -> CoherentStateParams:
    """One RK4 step of the packet-centre equations.

    dx/dt = p / m, dp/dt = -omega^2 x - mu p, ds/dt = p^2/2 - omega^2 x^2/2 - omega/2.
    The phase rate uses the hbar = m = 1 convention of the coherent ansatz.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    w2 = cp.omega**2
    mu = params.mu
    m = params.m

    def rhs(x, p):
        return p / m, -w2 * x - mu * p, 0.5 * p * p - 0.5 * w2 * x * x - 0.5 * cp.omega

    k1 = rhs(cp.x_t, cp.p_t)
    k2 = rhs(cp.x_t + 0.5 * dt * k1[0], cp.p_t + 0.5 * dt * k1[1])
    k3 = rhs(cp.x_t + 0.5 * dt * k2[0], cp.p_t + 0.5 * dt * k2[1])
    k4 = rhs(cp.x_t + dt * k3[0], cp.p_t + dt * k3[1])
    x_new = cp.x_t + dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
    p_new = cp.p_t + dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    s_new = cp.s_t + dt / 6.0 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
    return replace(cp, x_t=x_new, p_t=p_new, s_t=s_new)


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
