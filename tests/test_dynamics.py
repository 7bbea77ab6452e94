"""Dissipative propagator against closed forms and independent integrators.

Oracle chain: the damped-oscillator closed form is checked against
scipy.integrate.solve_ivp; an RK4 integrator of the centre parameters, kept
here as a reference, is checked against the closed form; the split-step
propagator is checked against both, plus norm conservation and the
fixed-width (coherent) property of the damped Gaussian; the config's coherent
state is checked at hbar and m other than 1.  A Crank-Nicolson
step, also kept here as a reference (the package has one propagator), cross-
checks the split step with a different scheme, a finer spacing and different
boundary handling: Dirichlet ends instead of the periodic wrap.  A breathing
Gaussian's centre and width follow the damped Ermakov pair, integrated by
scipy.integrate.solve_ivp.  Off the
harmonic case, Ehrenfest's theorem for the Kostin equation checks <p>, and a
dense eigensolve of the spectral-kinetic Hamiltonian, also kept here, gives
the ground state that relaxation must reach.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp
from scipy.linalg import solve_banded

from quantum_descent import dynamics
from quantum_descent.config import parse_config
from quantum_descent.dynamics import (DIS_BLOCK, KostinPropagator,
                                      damped_oscillator_closed_form, evolve)
from quantum_descent.errors import NumericalError
from quantum_descent.experiments import run_experiment
from quantum_descent.fields import (PhysicsParams, SpatialGrid, Wavefunction,
                                    gaussian_packet, polar_decompose)
from quantum_descent.hydro import quantum_potential
from quantum_descent.learner import PotentialSpec
from quantum_descent.output import read_table
from test_kernel_references import ref_polar_decompose

GRID = SpatialGrid(-20.0, 20.0, 2048)
HARMONIC = PotentialSpec.harmonic(1.0)


def _coherent(x0=-5.0, p0=0.0, omega=1.0, grid=GRID):
    """The ground-state Gaussian of the trap at hbar = m = 1, moving with p0."""
    return gaussian_packet(grid, x0, p0=p0, sigma=1.0 / np.sqrt(2.0 * omega))


# --- references ---------------------------------------------------------------


@dataclass(frozen=True)
class Centre:
    """Centre, momentum, accumulated phase and trap frequency of a coherent packet."""

    x_t: float
    p_t: float
    s_t: float
    omega: float


def coherent_ode_step(cp, params, dt):
    """One RK4 step of the packet-centre equations.

    dx/dt = p / m, dp/dt = -omega^2 x - mu p, ds/dt = p^2/2 - omega^2 x^2/2 - omega/2.
    The phase rate uses the hbar = m = 1 convention of the coherent ansatz.
    """
    w2, mu, m = cp.omega**2, params.mu, params.m

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


def crank_nicolson_step(values, grid, potential, params, dt):
    """One Crank-Nicolson step on the points of ``grid`` with Dirichlet ends.

    The three-point stencil does not wrap: the points beyond the first and
    the last are held at zero, so the packet must stay far from both ends.

    Semi-implicit: the phase of the friction substep (in closed form, see
    :mod:`quantum_descent.dynamics`) is frozen at the current state and acts
    as an effective potential w = -phase/dt for one step, so the scheme is
    first order in the friction coupling.  Three-point Laplacian, one banded
    solve of (I + c H) psi' = (I - c H) psi with c = i dt / (2 hbar).
    """
    Vx = np.asarray(potential.evaluate(grid.x), dtype=float)
    if params.mu == 0.0:
        w = Vx
    else:
        fields = polar_decompose(values, grid, params)
        v_mean = float(np.sum(fields.rho * Vx) / np.sum(fields.rho))
        s_mean = float(np.sum(fields.S * fields.rho) * grid.dx)
        decay = -np.expm1(-params.mu * dt)
        phase = -v_mean * dt - (fields.S - s_mean + (Vx - v_mean) / params.mu) * decay
        w = -phase / dt
    kin = params.hbar**2 / (2.0 * params.m * grid.dx**2)
    diag = 2.0 * kin + w
    off = -kin
    c = 1j * dt / (2.0 * params.hbar)
    rhs = (1.0 - c * diag) * values
    rhs[:-1] -= c * off * values[1:]
    rhs[1:] -= c * off * values[:-1]
    ab = np.zeros((3, grid.n), dtype=np.complex128)
    ab[0, 1:] = c * off
    ab[1, :] = 1.0 + c * diag
    ab[2, :-1] = c * off
    return solve_banded((1, 1), ab, rhs)


# --- damped oscillator closed form (the trajectory oracle) -------------------

def test_closed_form_initial_conditions_exact():
    x, p = damped_oscillator_closed_form(-5.0, 0.25, mu=1.0, omega=1.0, t=0.0)
    assert (x, p) == (-5.0, 0.25)


def test_closed_form_underdamped_expression():
    # mu = omega = 1, x0 = -5, p0 = 0:
    # x(t) = -5 e^{-t/2} [cos(sqrt(3) t / 2) + sin(sqrt(3) t / 2)/sqrt(3)]
    for t in (0.3, 1.0, 2.7, 10.0):
        x, _ = damped_oscillator_closed_form(-5.0, 0.0, 1.0, 1.0, t)
        wd = np.sqrt(3.0) / 2.0
        expected = -5.0 * np.exp(-t / 2.0) * (np.cos(wd * t) + np.sin(wd * t) / np.sqrt(3.0))
        assert x == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("mu,omega", [
    (1.0, 1.0),   # underdamped
    (3.0, 1.0),   # overdamped
    (2.0, 1.0),   # critically damped
    (0.0, 2.0),   # no friction
])
def test_closed_form_against_ivp_integrator(mu, omega):
    x0, p0 = -5.0, 0.7

    def rhs(t, y):
        return [y[1], -omega**2 * y[0] - mu * y[1]]

    sol = solve_ivp(rhs, (0.0, 6.0), [x0, p0], rtol=1e-11, atol=1e-12,
                    dense_output=True)
    for t in (0.5, 1.9, 4.4, 6.0):
        x, p = damped_oscillator_closed_form(x0, p0, mu, omega, t)
        assert x == pytest.approx(sol.sol(t)[0], abs=1e-8)
        assert p == pytest.approx(sol.sol(t)[1], abs=1e-8)


def test_closed_form_rejects_negative_time():
    with pytest.raises(ValueError):
        damped_oscillator_closed_form(1.0, 0.0, 1.0, 1.0, -0.5)


# --- RK4 centre-parameter integrator ------------------------------------------

def test_rk4_centre_matches_closed_form():
    params = PhysicsParams(m=1.0, hbar=1.0, mu=1.0)
    cp = Centre(x_t=-5.0, p_t=0.0, s_t=0.0, omega=1.0)
    dt, n = 1e-3, 3000
    for _ in range(n):
        cp = coherent_ode_step(cp, params, dt)
    x, p = damped_oscillator_closed_form(-5.0, 0.0, 1.0, 1.0, n * dt)
    assert cp.x_t == pytest.approx(x, abs=1e-10)
    assert cp.p_t == pytest.approx(p, abs=1e-10)


def test_rk4_phase_action_matches_quadrature():
    """ds/dt = p^2/2 - omega^2 x^2 / 2 - omega/2, integrated independently."""
    mu, omega, T = 1.0, 1.0, 2.5
    params = PhysicsParams(m=1.0, hbar=1.0, mu=mu)
    cp = Centre(x_t=-5.0, p_t=0.0, s_t=0.0, omega=omega)
    dt = 1e-3
    for _ in range(int(T / dt)):
        cp = coherent_ode_step(cp, params, dt)

    def integrand(t):
        x, p = damped_oscillator_closed_form(-5.0, 0.0, mu, omega, t)
        return 0.5 * p**2 - 0.5 * omega**2 * x**2 - 0.5 * omega

    expected, err = quad(integrand, 0.0, T, limit=200)
    assert err < 1e-10
    assert cp.s_t == pytest.approx(expected, abs=1e-8)


# --- the coherent initial state ----------------------------------------------

def _coherent_run(out, m, hbar, omega=1.0, x0=-3.0, u0=0.5, t_final=3.0):
    """evolve from the config's coherent state on the default grid, mu = 0.3:
    the trajectory rows and the density rows."""
    cfg = parse_config(
        "experiment: evolve\n"
        f"physics: {{m: {m}, hbar: {hbar}, mu: 0.3}}\n"
        f"potential: {{kind: harmonic, omega: {omega}}}\n"
        f"initial: {{kind: coherent, x0: {x0}, u0: {u0}}}\n"
        f"run: {{dt: 0.001, t_final: {t_final}, snapshot_every: 1000}}\n")
    assert cfg.grid == GRID
    assert run_experiment(cfg, out_dir=out).exit_code == 0
    return read_table(out / "trajectory.csv")[1], read_table(out / "density.csv")[1]


def test_coherent_state_is_normalized_with_fixed_width(tmp_path):
    """The coherent kind is the trap's ground state for mass m: unit norm and
    density variance hbar / (2 omega sqrt(m)), at any hbar and m."""
    cases = [(0.5, 1.0, 1.0), (1.0, 1.0, 1.0), (2.0, 1.0, 1.0),
             (1.0, 2.0, 0.5), (1.0, 0.5, 1.5), (2.0, 0.5, 1.5)]
    for i, (omega, m, hbar) in enumerate(cases):
        _, dens = _coherent_run(tmp_path / str(i), m, hbar, omega=omega, x0=-5.0,
                                t_final=0.0)
        rho = dens[:, 1]
        assert np.sum(rho) * GRID.dx == pytest.approx(1.0, abs=1e-10)
        mean = np.sum(GRID.x * rho) * GRID.dx
        var = np.sum((GRID.x - mean) ** 2 * rho) * GRID.dx
        assert var == pytest.approx(hbar / (2.0 * omega * np.sqrt(m)), rel=1e-8)


@pytest.mark.parametrize("m,hbar", [(2.0, 0.5), (0.5, 1.5)])
def test_coherent_centre_follows_the_oscillator_at_any_hbar_and_m(tmp_path, m, hbar):
    """The coherent kind starts at u = u0, and <x> and u follow the damped
    oscillator of frequency Omega = omega / sqrt(m) (Kostin 1972)."""
    traj, _ = _coherent_run(tmp_path, m, hbar)
    assert traj[0, 2] == pytest.approx(0.5, abs=1e-12)
    exact = np.array([damped_oscillator_closed_form(-3.0, 0.5, 0.3, 1.0 / np.sqrt(m), t)
                      for t in traj[:, 0]])
    # measured: <x> within 3.0e-8 and 5.1e-7, u within 9.8e-8 and 1.1e-6
    assert np.max(np.abs(traj[:, 1] - exact[:, 0])) < 1e-5
    assert np.max(np.abs(traj[:, 2] - exact[:, 1])) < 1e-5


# --- propagator stepping ------------------------------------------------------

def test_scheme_grid_compatibility():
    odd_grid = SpatialGrid(-20.0, 20.0, 1000)
    params = PhysicsParams(m=1.0, hbar=1.0, mu=0.5)
    with pytest.raises(ValueError):
        KostinPropagator(odd_grid, HARMONIC, params, dt=1e-3)   # not a power of two
    with pytest.raises(ValueError):
        KostinPropagator(GRID, HARMONIC, params, dt=-1e-3)
    with pytest.raises(ValueError):
        KostinPropagator(GRID, HARMONIC, PhysicsParams(hbar=0.0, mu=0.5), dt=1e-3)


@pytest.mark.parametrize("dt,t_final,snapshot_every,key", [
    (0.0, 1.0, 10, "dt"), (-1e-3, 1.0, 10, "dt"),
    (1e-3, -1.0, 10, "t_final"), (1e-3, 1.0, 0, "snapshot_every"),
])
def test_evolve_validates_its_time_stepping(dt, t_final, snapshot_every, key):
    params = PhysicsParams(m=1.0, hbar=1.0, mu=0.5)
    with pytest.raises(ValueError, match=key):
        evolve(_coherent(), HARMONIC, params, dt, t_final, snapshot_every)


@pytest.mark.parametrize("mu", [0.0, 0.5, 1.0])
def test_spectral_norm_preserved(mu):
    params = PhysicsParams(m=1.0, hbar=1.0, mu=mu)
    prop = KostinPropagator(GRID, HARMONIC, params, dt=1e-3)
    values = _coherent().values
    n0 = np.sum(np.abs(values) ** 2) * GRID.dx
    for _ in range(1000):
        values = prop.step(values)
    n1 = np.sum(np.abs(values) ** 2) * GRID.dx
    assert abs(n1 - n0) < 1e-12


def test_crank_nicolson_norm_preserved():
    grid = SpatialGrid(-20.0, 20.0, 1536)
    params = PhysicsParams(m=1.0, hbar=1.0, mu=1.0)
    values = _coherent(grid=grid).values
    n0 = np.sum(np.abs(values) ** 2) * grid.dx
    for _ in range(500):
        values = crank_nicolson_step(values, grid, HARMONIC, params, 2e-3)
    n1 = np.sum(np.abs(values) ** 2) * grid.dx
    assert abs(n1 - n0) < 1e-10


def test_no_friction_centre_oscillates():
    """mu = 0: the packet centre swings undamped, <x>(t) = x0 cos(omega t)."""
    params = PhysicsParams(m=1.0, hbar=1.0, mu=0.0)
    rec = evolve(_coherent(), HARMONIC, params,
                 1e-3, 5.0, snapshot_every=10**9)
    expected = -5.0 * np.cos(rec.times)
    assert np.max(np.abs(rec.x_mean - expected)) < 1e-5
    # and it swings all the way across: +5 at t = pi, no amplitude decay
    assert np.max(rec.x_mean) > 4.99


def test_damped_centre_tracks_closed_form():
    params = PhysicsParams(m=1.0, hbar=1.0, mu=1.0)
    rec = evolve(_coherent(), HARMONIC, params,
                 1e-3, 3.0, snapshot_every=10**9)
    exact = np.array([damped_oscillator_closed_form(-5.0, 0.0, 1.0, 1.0, t)
                      for t in rec.times])
    assert np.max(np.abs(rec.x_mean - exact[:, 0])) < 1e-6
    assert np.max(np.abs(rec.p_mean - exact[:, 1])) < 1e-5


def test_damped_evolution_keeps_coherent_width():
    """The damped Gaussian stays a fixed-width packet: var(rho) = 1/(2 omega)."""
    params = PhysicsParams(m=1.0, hbar=1.0, mu=1.0)
    rec = evolve(_coherent(), HARMONIC, params,
                 2e-3, 10.0, snapshot_every=500)
    for snap in rec.snapshots:
        rho = np.abs(snap) ** 2
        mean = np.sum(GRID.x * rho) * GRID.dx
        var = np.sum((GRID.x - mean) ** 2 * rho) * GRID.dx
        assert abs(var - 0.5) / 0.5 < 0.01


def test_energy_decays_under_friction():
    params = PhysicsParams(m=1.0, hbar=1.0, mu=0.5)
    rec = evolve(_coherent(), HARMONIC, params,
                 2e-3, 6.0, snapshot_every=250)
    k = 2.0 * np.pi * np.fft.fftfreq(GRID.n, d=GRID.dx)
    energies = []
    for snap in rec.snapshots:
        dpsi = np.fft.ifft(1j * k * np.fft.fft(snap))
        kinetic = 0.5 * np.sum(np.abs(dpsi) ** 2) * GRID.dx
        potential = np.sum(0.5 * GRID.x**2 * np.abs(snap) ** 2) * GRID.dx
        energies.append(kinetic + potential)
    diffs = np.diff(energies)
    assert np.all(diffs < 1e-10)
    assert energies[-1] < 0.9 * energies[0]


def _energy(values, params, grid=GRID):
    """E = <T + V> in the trap, the kinetic part from the DFT (Parseval)."""
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
    kinetic = np.sum((params.hbar * k) ** 2 / (2.0 * params.m)
                     * np.abs(np.fft.fft(values)) ** 2) * grid.dx / grid.n
    potential = np.sum(HARMONIC.evaluate(grid.x) * np.abs(values) ** 2) * grid.dx
    return kinetic + potential


def _dissipation(values, params):
    """mu m sum rho u^2 dx, the rate at which friction removes energy."""
    _, rho, u, _ = ref_polar_decompose(values, GRID, params)
    return params.mu * params.m * np.sum(rho * u**2) * GRID.dx


@given(mu=st.floats(0.05, 1.0), sigma=st.floats(0.6, 1.6), x0=st.floats(-4.0, 4.0))
@settings(max_examples=25, deadline=None)
def test_breathing_packet_dissipates_energy_at_the_kostin_rate(mu, sigma, x0):
    """dE/dt = -mu m sum rho u^2 dx for E = <T + V> (Kostin 1972).

    A Gaussian whose width is not the trap's breathes.  It starts with
    momentum 0.4 toward the trap centre, so its flow does not stop before
    t = pi/2 and friction removes energy on every step: E falls strictly
    over 100 steps (t = 0.4).  One step's Delta E / dt matches the rate
    averaged over the step's two ends to O(dt^2): the gap over dt^2 is the
    same at dt = 4e-3, 2e-3 and 1e-3 up to O(dt), so the gap shrinks 4x each
    time dt halves (measured over this domain: |gap|/dt^2 up to 4.1, its
    spread over the three dt below 0.01).  The packet stays at least 10
    widths from the periodic seam.
    """
    params = PhysicsParams(m=1.0, hbar=1.0, mu=mu)
    values = gaussian_packet(GRID, x0, p0=0.4 if x0 <= 0.0 else -0.4, sigma=sigma).values
    prop = KostinPropagator(GRID, HARMONIC, params, 4e-3)
    energies = [_energy(values, params)]
    state = values
    for _ in range(100):
        state = prop.step(state)
        energies.append(_energy(state, params))
    assert np.all(np.diff(energies) < 0.0)

    scaled = []
    for dt in (4e-3, 2e-3, 1e-3):
        after = KostinPropagator(GRID, HARMONIC, params, dt).step(values)
        rate = (_energy(after, params) - energies[0]) / dt
        gap = rate + 0.5 * (_dissipation(values, params) + _dissipation(after, params))
        scaled.append(gap / dt**2)
    assert max(abs(g) for g in scaled) < 6.0
    assert max(scaled) - min(scaled) < 0.05


@pytest.mark.parametrize("mu", [0.0, 0.3, 0.9])
@given(theta=st.floats(-np.pi, np.pi), x0=st.floats(-4.0, 4.0), p0=st.floats(-2.0, 2.0),
       sigma=st.floats(0.6, 1.6))
@settings(max_examples=8, deadline=None)
def test_kostin_step_commutes_with_a_global_phase(mu, theta, x0, p0, sigma):
    """U(e^{i theta} psi) = e^{i theta} U(psi) over 200 steps of 0.005.  The
    friction term mu (S - <S>) psi is the one nonlinear term, and it sees S
    only relative to its mean and anchored at the density maximum, so a
    global phase passes through every step (measured: at most 6.6e-15 over
    24 draws)."""
    params = PhysicsParams(m=1.0, hbar=1.0, mu=mu)
    prop = KostinPropagator(GRID, HARMONIC, params, 0.005)
    values = gaussian_packet(GRID, x0, p0=p0, sigma=sigma).values
    turn = np.exp(1j * theta)
    plain, turned = values, turn * values
    for _ in range(200):
        plain = prop.step(plain)
        turned = prop.step(turned)
    gap = np.max(np.abs(turned - turn * plain)) / np.max(np.abs(plain))
    assert gap <= 1e-12


def test_the_friction_parameter_determines_the_nonlinearity():
    """Superposition fails by a residual that mu sets.  The friction term
    mu (S - <S>) psi reads the phase of psi, so over 200 steps of 0.005 the
    residual ||U(a + i b/2) - U(a) - i U(b)/2|| / ||a + i b/2|| is roundoff at
    mu = 0, grows with mu, and is first order in mu as mu -> 0: halving mu
    halves it, the more closely the smaller mu is (measured: 8.4e-15 at
    mu = 0; ratios 1.984, 1.992, 1.996 at mu = 0.04, 0.02, 0.01 against
    mu / 2)."""
    a = gaussian_packet(GRID, -3.0, p0=0.3, sigma=1.0).values
    b = gaussian_packet(GRID, 2.0, p0=-0.2, sigma=0.8).values

    def residual(mu):
        prop = KostinPropagator(GRID, HARMONIC, PhysicsParams(m=1.0, hbar=1.0, mu=mu), 0.005)
        states = [a + 0.5j * b, a, b]
        for _ in range(200):
            states = [prop.step(values) for values in states]
        mixed, ua, ub = states
        return np.linalg.norm(mixed - ua - 0.5j * ub) / np.linalg.norm(a + 0.5j * b)

    mus = [0.0, 0.005, 0.01, 0.02, 0.04, 0.1, 0.3, 1.0]
    res = [residual(mu) for mu in mus]
    assert res[0] <= 1e-12
    assert all(lo < hi for lo, hi in zip(res, res[1:])), res
    # mu against mu / 2 for mu = 0.04, 0.02, 0.01: the ratio nears 2 as mu falls
    gaps = [abs(res[k] / res[k - 1] - 2.0) for k in (4, 3, 2)]
    assert gaps[2] < gaps[1] < gaps[0] < 0.1, gaps


# --- the breathing Gaussian (the damped Ermakov pair) --------------------------

def ermakov_pair(params, omega, q0, u0, sigma0, t_final):
    """Dense (q, q', sigma, sigma') of a Gaussian in the trap V = omega^2 x^2 / 2,
    by solve_ivp, over [0, t_final]:

        q'' + mu q' + Omega^2 q = 0,
        sigma'' + mu sigma' + Omega^2 sigma = hbar^2 / (4 m^2 sigma^3),

    with Omega^2 = omega^2 / m.  In the trap the friction potential
    mu (S - <S>) of a Gaussian is quadratic, so the packet stays Gaussian,
    with centre q and density standard deviation sigma (the damped Ermakov
    equation; D. Schuch, Phys. Rev. A 55, 935, 1997).  A packet without a
    chirp starts with sigma' = 0."""
    w2, mu = omega**2 / params.m, params.mu
    c = params.hbar**2 / (4.0 * params.m**2)

    def rhs(t, y):
        q, v, s, w = y
        return [v, -mu * v - w2 * q, w, -mu * w - w2 * s + c / s**3]

    return solve_ivp(rhs, (0.0, t_final), [q0, u0, sigma0, 0.0], method="DOP853",
                     rtol=1e-12, atol=1e-14, dense_output=True).sol


def _width(values, grid):
    """The standard deviation of the density of ``values``."""
    rho = np.abs(values) ** 2
    mean = np.sum(grid.x * rho) * grid.dx
    return np.sqrt(np.sum((grid.x - mean) ** 2 * rho) * grid.dx)


# (m, hbar, mu, omega, q0, u0, sigma0): packets wider and narrower than the
# trap's ground state sqrt(hbar / (2 sqrt(m) omega)), so that each breathes
BREATHING = {
    "wide": (1.0, 1.0, 0.3, 1.0, -2.0, 0.0, 1.2),
    "stiff_trap": (1.0, 1.0, 0.8, 1.5, 1.5, -0.4, 0.7),
    "heavy_small_hbar": (2.0, 0.8, 0.1, 0.7, -1.0, 0.3, 1.6),
    "light_narrow": (0.5, 1.0, 1.0, 0.5, 2.5, 0.0, 0.9),
}
ERMAKOV_GRID = SpatialGrid(-20.0, 20.0, 512)
ERMAKOV_DTS = (8e-3, 4e-3, 2e-3)


@pytest.mark.parametrize("setting", BREATHING)
def test_a_breathing_gaussian_follows_the_damped_ermakov_pair(setting):
    """evolve's <x> (every step) and density width (every 0.25) follow the
    Ermakov pair to t = 3 at second order in dt: each error shrinks 4x when
    dt halves, and stays below 0.2 dt^2 (measured over these settings and a
    frictionless one, at dt from 1.6e-2 to 1e-3: ratios 3.973 to 4.096,
    errors up to 0.152 dt^2).  The packet's width moves by more than 0.1,
    so the width equation is checked away from its fixed point."""
    m, hbar, mu, omega, q0, u0, sigma0 = BREATHING[setting]
    params = PhysicsParams(m=m, hbar=hbar, mu=mu)
    psi0 = gaussian_packet(ERMAKOV_GRID, q0, p0=m * u0, sigma=sigma0, hbar=hbar)
    exact = ermakov_pair(params, omega, q0, u0, sigma0, 3.0)
    errors = []
    for dt in ERMAKOV_DTS:
        rec = evolve(psi0, PotentialSpec.harmonic(omega), params, dt, 3.0,
                     snapshot_every=round(0.25 / dt))
        sigma = exact(rec.snapshot_times)[2]
        widths = [_width(values, ERMAKOV_GRID) for values in rec.snapshots]
        errors.append([np.max(np.abs(rec.x_mean - exact(rec.times)[0])),
                       np.max(np.abs(widths - sigma))])
    assert np.ptp(sigma) > 0.1
    errors = np.array(errors)
    ratios = errors[:-1] / errors[1:]
    assert np.all((3.9 < ratios) & (ratios < 4.1)), ratios
    assert np.all(errors < 0.2 * np.square(ERMAKOV_DTS)[:, None]), errors


# --- where the descent ends ----------------------------------------------------

# V = 0.5 x^4 - x^2 - 0.15 x: the deeper well's minimum is at x ~ 1.036
DOUBLE_WELL = PotentialSpec.polynomial([0.0, -0.15, -1.0, 0.0, 0.5])
DOUBLE_WELL_ARGMIN = 1.0360


def test_ehrenfest_holds_for_the_kostin_equation_off_the_harmonic_case():
    """d<p>/dt = -<V'>_rho - mu <p> in the double well, where <V'>_rho is not
    V'(<x>): the friction term mu (S - <S>) psi adds -mu <p> and the quantum
    force averages to zero.  The residual, from <p>'s central difference at
    t = 0.5, 1 and 1.5, falls as dt^2 (measured: 3.44e-4, 8.59e-5 and 2.15e-5
    at dt = 0.01, 0.005 and 0.0025, ratios 4.000 and 4.000, the same on 256
    to 2048 points), while <V'>_rho and V'(<x>) differ by up to 0.8."""
    grid = SpatialGrid(-10.0, 10.0, 1024)
    params = PhysicsParams(m=1.0, hbar=0.6, mu=0.3)
    psi0 = gaussian_packet(grid, -1.26, sigma=0.5, hbar=0.6)
    gradient = DOUBLE_WELL.gradient(grid.x)
    worst, centre_gap = [], 0.0
    for dt in (0.01, 0.005, 0.0025):
        every = round(0.5 / dt)
        rec = evolve(psi0, DOUBLE_WELL, params, dt, 2.0, snapshot_every=every)
        residuals = []
        for j, values in enumerate(rec.snapshots[1:-1], 1):
            k = j * every
            force = np.sum(np.abs(values) ** 2 * gradient) * grid.dx
            dpdt = (rec.p_mean[k + 1] - rec.p_mean[k - 1]) / (2.0 * dt)
            residuals.append(abs(dpdt + force + params.mu * rec.p_mean[k]))
            centre_gap = max(centre_gap, abs(force - DOUBLE_WELL.gradient(rec.x_mean[k])))
        worst.append(max(residuals))
    assert centre_gap > 0.1
    assert worst[0] < 1e-3
    ratios = [a / b for a, b in zip(worst, worst[1:])]
    assert all(3.5 < r < 4.5 for r in ratios), ratios


def ref_ground_state(grid, potential, params):
    """E0 and <x> of the lowest eigenvector of the spectral-kinetic
    Hamiltonian on ``grid``, by a dense eigensolve."""
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
    kinetic = (params.hbar * k) ** 2 / (2.0 * params.m)
    H = np.fft.ifft(kinetic[:, None] * np.fft.fft(np.eye(grid.n), axis=0), axis=0).real
    energies, vectors = np.linalg.eigh(H + np.diag(potential.evaluate(grid.x)))
    rho = vectors[:, 0] ** 2
    return energies[0], float(np.sum(grid.x * rho) / np.sum(rho))


def _relaxed(grid, potential, params, x0, sigma, dt, t_final, every=10.0):
    """<V+Q>_rho, Var_rho(V+Q) and <x> of each snapshot, every ``every`` time units."""
    psi0 = gaussian_packet(grid, x0, sigma=sigma, hbar=params.hbar)
    rec = evolve(psi0, potential, params, dt, t_final, snapshot_every=round(every / dt))
    out = []
    for values in rec.snapshots:
        R = np.abs(values)
        rho = R * R * grid.dx
        energy = potential.evaluate(grid.x) + quantum_potential(R, grid, params)
        mean = np.sum(rho * energy)
        out.append((mean, np.sum(rho * (energy - mean) ** 2), np.sum(rho * grid.x)))
    return out


def test_relaxation_ends_in_the_trap_ground_state_not_at_its_minimum():
    """Friction drains the harmonic trap to hbar Omega / 2, not to V's
    minimum 0: <V+Q>_rho tends to the zero-point energy and Var_rho(V+Q)
    falls.  The floor of <V+Q>_rho - hbar Omega / 2 at t = 40 is the dx^2
    error of Q's stencil (measured: -1.22e-4 at 256 and -3.05e-5 at 512
    points of [-8, 8), the same at dt 0.02 to 0.005; Var 1.3e-7 and 7.5e-9)."""
    params = PhysicsParams(m=1.0, hbar=1.0, mu=0.55)
    gaps = []
    for n in (256, 512):
        grid = SpatialGrid(-8.0, 8.0, n)
        assert ref_ground_state(grid, HARMONIC, params)[0] == pytest.approx(0.5, abs=1e-12)
        series = _relaxed(grid, HARMONIC, params, -3.0, 1.1, 0.02, 40.0)
        spread = [var for _, var, _ in series]
        assert all(a > b for a, b in zip(spread, spread[1:])), spread
        assert spread[-1] < 1e-6
        gaps.append(series[-1][0] - 0.5)
    assert abs(gaps[0]) < 5e-4
    assert 3.5 < gaps[0] / gaps[1] < 4.5, gaps


def test_friction_breaks_parity_so_an_odd_state_relaxes_to_the_ground_state():
    """Every odd state of the trap has <H> >= E1 = 3/2, so an odd state that
    relaxes to E0 = 1/2 has left parity.  Without friction the first excited
    state x exp(-x^2/2) stays at E1 with a node at x = 0.  With friction the
    phase S steps by pi hbar across that node, so the Kostin term
    mu (S - <S>) is not even, and the state ends at the ground energy with
    rho(0) the ground state's peak 1/sqrt(pi); so does the odd packet
    x exp(-x^2 / (2 1.3^2)).  Measured at
    t = 40 on 256 points of [-8, 8), dt 0.02 and 0.01, widths 0.8 to 1.6:
    |<H> - 3/2| < 1e-8 and rho(0) < 1e-27 for the eigenstate at mu = 0;
    <H> - 1/2 below 2e-8 and |rho(0) - 1/sqrt(pi)| below 3e-5 at mu = 0.55;
    <H> - 1/2 = 1.1e-4 to 1.4e-4 at mu = 0.3.  The same to 1e-5 on 512
    points."""
    grid = SpatialGrid(-8.0, 8.0, 256)
    centre = grid.n // 2
    assert grid.x[centre] == 0.0

    def relaxed(mu, width):
        odd = grid.x * np.exp(-grid.x ** 2 / (2.0 * width ** 2))
        params = PhysicsParams(m=1.0, hbar=1.0, mu=mu)
        rec = evolve(Wavefunction(odd.astype(complex), grid).normalized(), HARMONIC,
                     params, 0.02, 40.0, snapshot_every=500)
        rho_centre = [abs(values[centre]) ** 2 for values in rec.snapshots]
        return _energy(rec.snapshots[-1], params, grid), rho_centre

    energy, rho_centre = relaxed(0.0, 1.0)
    assert energy == pytest.approx(1.5, abs=1e-6)
    assert max(rho_centre) < 1e-20
    for width in (1.0, 1.3):
        energy, rho_centre = relaxed(0.55, width)
        assert energy == pytest.approx(0.5, abs=1e-6), width
        assert rho_centre[-1] == pytest.approx(1.0 / math.sqrt(math.pi), abs=2e-4), width


def test_relaxation_ends_in_the_double_well_ground_state_not_at_argmin_v():
    """In the tilted double well the relaxed state is the ground state of the
    reference eigensolve (E0 = -0.1515536, <x> = 0.5089 at hbar 0.6), and its
    centre is half a unit short of argmin V.  The floor of <V+Q>_rho - E0 is
    the dx^2 error of Q's stencil (measured at t = 30 to 40: -2.36e-4,
    -5.90e-5 and -1.47e-5 at 256, 512 and 1024 points of [-8, 8), the same
    at dt 0.02, 0.01 and 0.005); E0 itself is the same on all three grids."""
    params = PhysicsParams(m=1.0, hbar=0.6, mu=0.6)
    gaps = []
    for n in (256, 512):
        grid = SpatialGrid(-8.0, 8.0, n)
        e0, x_ground = ref_ground_state(grid, DOUBLE_WELL, params)
        assert e0 == pytest.approx(-0.1515536, abs=1e-7)
        series = _relaxed(grid, DOUBLE_WELL, params, -1.26, 0.5, 0.02, 30.0)
        mean, spread, centre = series[-1]
        assert spread < 1e-4 < series[1][1]
        assert centre == pytest.approx(x_ground, abs=1e-3)
        assert DOUBLE_WELL_ARGMIN - centre > 0.5
        gaps.append(mean - e0)
    assert abs(gaps[0]) < 5e-4
    assert 3.5 < gaps[0] / gaps[1] < 4.5, gaps


def test_the_spread_of_v_plus_q_decays_at_a_rate_that_tracks_mu():
    """Var_rho(V+Q) falls about as exp(-mu t), so doubling mu doubles its
    rate: a ground-width packet centred at x_c in the trap has
    Var_rho(V+Q) = x_c^2 Var_rho(x), and friction damps x_c^2 at the rate
    mu.  The rate is log(early / late) / 10 for the means of Var over t in
    [5, 15) and [15, 25), sampled every 0.1, which average out the
    oscillation of x_c.  Measured on 256 and 512 points of [-8, 8) at dt
    0.02 and 0.01, mu 0.1, 0.15 and 0.2 against 2 mu, in the trap from -3
    (sigma 1.1) and -2 (ground width) and in the double well from -1.26
    (sigma 0.5) and 1.8 (sigma 0.4): rate / mu 0.93 to 1.14, and the rate
    at 2 mu over that at mu 1.72 to 2.06."""
    grid = SpatialGrid(-8.0, 8.0, 256)
    for potential, hbar, x0, sigma in ((HARMONIC, 1.0, -3.0, 1.1),
                                       (DOUBLE_WELL, 0.6, -1.26, 0.5)):
        rates = []
        for mu in (0.15, 0.3):
            params = PhysicsParams(m=1.0, hbar=hbar, mu=mu)
            series = _relaxed(grid, potential, params, x0, sigma, 0.02, 25.0, every=0.1)
            spread = np.array([var for _, var, _ in series])
            rates.append(np.log(spread[50:150].mean() / spread[150:250].mean()) / 10.0)
        assert 0.85 < rates[0] / 0.15 < 1.25, rates
        assert 1.6 < rates[1] / rates[0] < 2.4, rates


def test_crank_nicolson_cross_checks_spectral():
    """Same physics, different scheme, spacing and boundary handling: the
    packet stays more than 10 widths from the Dirichlet ends."""
    params = PhysicsParams(m=1.0, hbar=1.0, mu=1.0)
    rec_s = evolve(_coherent(), HARMONIC, params, 1e-3, 2.0, snapshot_every=10**9)

    grid = SpatialGrid(-20.0, 20.0, 4000)  # dx = 0.01
    values = _coherent(grid=grid).values
    x_mean_cn = [float(np.sum(grid.x * np.abs(values) ** 2) * grid.dx)]
    for _ in range(rec_s.times.size - 1):
        values = crank_nicolson_step(values, grid, HARMONIC, params, 1e-3)
        x_mean_cn.append(float(np.sum(grid.x * np.abs(values) ** 2) * grid.dx))
    # measured: ~5e-4, dominated by the CN dx^2 truncation at this resolution
    assert np.max(np.abs(rec_s.x_mean - np.array(x_mean_cn))) < 1e-3


def test_evolve_bookkeeping():
    params = PhysicsParams(m=1.0, hbar=1.0, mu=0.5)
    rec = evolve(_coherent(), HARMONIC, params,
                 0.01, 0.1, snapshot_every=4)
    assert len(rec.times) == 11
    assert rec.times[-1] == pytest.approx(0.1)
    assert np.all(np.diff(rec.times) > 0)
    # snapshots at steps 0, 4, 8 plus the forced final step 10
    assert list(rec.snapshot_times) == pytest.approx([0.0, 0.04, 0.08, 0.1])
    assert rec.densities.shape == (GRID.n, 4)


def test_evolve_zero_horizon_records_initial_state():
    params = PhysicsParams(m=1.0, hbar=1.0, mu=0.5)
    rec = evolve(_coherent(), HARMONIC, params,
                 0.01, 0.0, snapshot_every=100)
    assert len(rec.times) == 1
    assert list(rec.snapshot_times) == [0.0]


def test_evolve_evaluates_the_disruptor_once_per_block(monkeypatch):
    """A relax-shaped run (2000 steps, 2001 records) makes ceil(2001 / DIS_BLOCK)
    disruptor_field calls, each on a (6, block) stack of windows."""
    shapes = []
    disruptor_field = dynamics.disruptor_field

    def counting(R, grid, params):
        shapes.append(R.shape)
        return disruptor_field(R, grid, params)

    monkeypatch.setattr(dynamics, "disruptor_field", counting)
    params = PhysicsParams(m=1.0, hbar=1.0, mu=0.55)
    rec = evolve(_coherent(x0=-4.5, p0=0.2), HARMONIC, params,
                 1e-3, 2.0, snapshot_every=200)
    records = rec.times.size
    assert records == 2001
    assert len(shapes) == math.ceil(records / DIS_BLOCK)
    assert shapes[:-1] == [(6, DIS_BLOCK)] * (len(shapes) - 1)
    assert shapes[-1] == (6, records - DIS_BLOCK * (len(shapes) - 1))


def test_non_finite_state_raises_with_step_index():
    params = PhysicsParams(m=1.0, hbar=1.0, mu=0.5)
    values = _coherent().values.copy()
    values[100] = np.nan
    with pytest.raises(NumericalError) as err:
        evolve(Wavefunction(values, GRID), HARMONIC, params,
               1e-3, 1.0, snapshot_every=100)
    assert err.value.step == 0
