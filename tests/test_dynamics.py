"""Dissipative propagator against closed forms and independent integrators.

Oracle chain: the damped-oscillator closed form is checked against
scipy.integrate.solve_ivp; the RK4 centre-parameter integrator is checked
against the closed form; the PDE propagator is checked against both, plus
norm conservation and the fixed-width (coherent) property of the damped
Gaussian.  The Crank-Nicolson scheme cross-checks the spectral one on a
different grid type with different boundary handling.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

from quantum_descent import dynamics
from quantum_descent.dynamics import (DIS_BLOCK, CoherentStateParams, KostinPropagator,
                                      PropagatorConfig, coherent_ode_step,
                                      coherent_state,
                                      damped_oscillator_closed_form, evolve)
from quantum_descent.errors import NumericalError
from quantum_descent.fields import (PhysicsParams, Wavefunction, build_grid,
                                    gaussian_packet, norm, polar_decompose)
from quantum_descent.learner import PotentialSpec

GRID = build_grid(-20.0, 20.0, 2048, periodic=True)
HARMONIC = PotentialSpec.harmonic(1.0)


def _coherent(x0=-5.0, p0=0.0, omega=1.0, grid=GRID):
    return coherent_state(CoherentStateParams(x_t=x0, p_t=p0, s_t=0.0, omega=omega), grid)


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
    cp = CoherentStateParams(x_t=-5.0, p_t=0.0, s_t=0.0, omega=1.0)
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
    cp = CoherentStateParams(x_t=-5.0, p_t=0.0, s_t=0.0, omega=omega)
    dt = 1e-3
    for _ in range(int(T / dt)):
        cp = coherent_ode_step(cp, params, dt)

    def integrand(t):
        x, p = damped_oscillator_closed_form(-5.0, 0.0, mu, omega, t)
        return 0.5 * p**2 - 0.5 * omega**2 * x**2 - 0.5 * omega

    expected, err = quad(integrand, 0.0, T, limit=200)
    assert err < 1e-10
    assert cp.s_t == pytest.approx(expected, abs=1e-8)


# --- coherent state construction ----------------------------------------------

def test_coherent_state_is_normalized_with_fixed_width():
    for omega in (0.5, 1.0, 2.0):
        psi = _coherent(x0=-5.0, omega=omega)
        assert norm(psi) == pytest.approx(1.0, abs=1e-10)
        rho = np.abs(psi.values) ** 2
        mean = np.sum(GRID.x * rho) * GRID.dx
        var = np.sum((GRID.x - mean) ** 2 * rho) * GRID.dx
        assert var == pytest.approx(1.0 / (2.0 * omega), rel=1e-8)


def test_coherent_state_must_fit_grid():
    small = build_grid(-2.0, 2.0, 64, periodic=True)
    with pytest.raises(ValueError):
        coherent_state(CoherentStateParams(x_t=-1.9, p_t=0.0, s_t=0.0, omega=1.0), small)


# --- propagator stepping ------------------------------------------------------

def test_scheme_grid_compatibility():
    open_grid = build_grid(-20.0, 20.0, 2048, periodic=False)
    odd_grid = build_grid(-20.0, 20.0, 1000, periodic=True)
    params = PhysicsParams(m=1.0, hbar=1.0, mu=0.5)
    with pytest.raises(ValueError):
        KostinPropagator(open_grid, HARMONIC, params, dt=1e-3)  # spectral, not periodic
    with pytest.raises(ValueError):
        KostinPropagator(odd_grid, HARMONIC, params, dt=1e-3)   # not a power of two
    with pytest.raises(ValueError):
        KostinPropagator(GRID, HARMONIC, params, dt=1e-3, scheme="crank_nicolson")
    with pytest.raises(ValueError):
        KostinPropagator(GRID, HARMONIC, params, dt=-1e-3)
    with pytest.raises(ValueError):
        KostinPropagator(GRID, HARMONIC, PhysicsParams(hbar=0.0, mu=0.5), dt=1e-3)


def test_propagator_config_validation():
    with pytest.raises(ValueError):
        PropagatorConfig(dt=0.0)
    with pytest.raises(ValueError):
        PropagatorConfig(t_final=-1.0)
    with pytest.raises(ValueError):
        PropagatorConfig(scheme="dg")
    with pytest.raises(ValueError):
        PropagatorConfig(snapshot_every=0)


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
    open_grid = build_grid(-20.0, 20.0, 1537, periodic=False)
    params = PhysicsParams(m=1.0, hbar=1.0, mu=1.0)
    prop = KostinPropagator(open_grid, HARMONIC, params, dt=2e-3,
                            scheme="crank_nicolson")
    psi0 = coherent_state(CoherentStateParams(-5.0, 0.0, 0.0, 1.0), open_grid)
    values = psi0.values
    n0 = np.sum(np.abs(values) ** 2) * open_grid.dx
    for _ in range(500):
        values = prop.step(values)
    n1 = np.sum(np.abs(values) ** 2) * open_grid.dx
    assert abs(n1 - n0) < 1e-10


def test_no_friction_centre_oscillates():
    """mu = 0: the packet centre swings undamped, <x>(t) = x0 cos(omega t)."""
    params = PhysicsParams(m=1.0, hbar=1.0, mu=0.0)
    rec = evolve(_coherent(), HARMONIC, params,
                 PropagatorConfig(dt=1e-3, t_final=5.0, snapshot_every=10**9))
    expected = -5.0 * np.cos(rec.times)
    assert np.max(np.abs(rec.x_mean - expected)) < 1e-5
    # and it swings all the way across: +5 at t = pi, no amplitude decay
    assert np.max(rec.x_mean) > 4.99


def test_damped_centre_tracks_closed_form():
    params = PhysicsParams(m=1.0, hbar=1.0, mu=1.0)
    rec = evolve(_coherent(), HARMONIC, params,
                 PropagatorConfig(dt=1e-3, t_final=3.0, snapshot_every=10**9))
    exact = np.array([damped_oscillator_closed_form(-5.0, 0.0, 1.0, 1.0, t)
                      for t in rec.times])
    assert np.max(np.abs(rec.x_mean - exact[:, 0])) < 1e-6
    assert np.max(np.abs(rec.p_mean - exact[:, 1])) < 1e-5


def test_damped_evolution_keeps_coherent_width():
    """The damped Gaussian stays a fixed-width packet: var(rho) = 1/(2 omega)."""
    params = PhysicsParams(m=1.0, hbar=1.0, mu=1.0)
    rec = evolve(_coherent(), HARMONIC, params,
                 PropagatorConfig(dt=2e-3, t_final=10.0, snapshot_every=500))
    for snap in rec.snapshots:
        rho = np.abs(snap) ** 2
        mean = np.sum(GRID.x * rho) * GRID.dx
        var = np.sum((GRID.x - mean) ** 2 * rho) * GRID.dx
        assert abs(var - 0.5) / 0.5 < 0.01


def test_energy_decays_under_friction():
    params = PhysicsParams(m=1.0, hbar=1.0, mu=0.5)
    rec = evolve(_coherent(), HARMONIC, params,
                 PropagatorConfig(dt=2e-3, t_final=6.0, snapshot_every=250))
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


def _energy(values, params):
    """E = <T + V>, the kinetic part from the DFT (Parseval)."""
    k = 2.0 * np.pi * np.fft.fftfreq(GRID.n, d=GRID.dx)
    kinetic = np.sum((params.hbar * k) ** 2 / (2.0 * params.m)
                     * np.abs(np.fft.fft(values)) ** 2) * GRID.dx / GRID.n
    potential = np.sum(HARMONIC.evaluate(GRID.x) * np.abs(values) ** 2) * GRID.dx
    return kinetic + potential


def _dissipation(values, params):
    """mu m sum rho u^2 dx, the rate at which friction removes energy."""
    fields = polar_decompose(values, GRID, params)
    return params.mu * params.m * np.sum(fields.rho * fields.u**2) * GRID.dx


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


def test_crank_nicolson_cross_checks_spectral():
    """Same physics, different scheme, grid type, and boundary handling."""
    params = PhysicsParams(m=1.0, hbar=1.0, mu=1.0)
    cfg = PropagatorConfig(dt=1e-3, t_final=2.0, snapshot_every=10**9)
    rec_s = evolve(_coherent(), HARMONIC, params, cfg)

    open_grid = build_grid(-20.0, 20.0, 4001, periodic=False)
    psi0 = coherent_state(CoherentStateParams(-5.0, 0.0, 0.0, 1.0), open_grid)
    rec_cn = evolve(psi0, HARMONIC, params,
                    PropagatorConfig(dt=1e-3, t_final=2.0, scheme="crank_nicolson",
                                     snapshot_every=10**9))
    # measured: ~5e-4, dominated by the CN dx^2 truncation at this resolution
    assert np.max(np.abs(rec_s.x_mean - rec_cn.x_mean)) < 1e-3


def test_evolve_bookkeeping():
    params = PhysicsParams(m=1.0, hbar=1.0, mu=0.5)
    rec = evolve(_coherent(), HARMONIC, params,
                 PropagatorConfig(dt=0.01, t_final=0.1, snapshot_every=4))
    assert len(rec.times) == 11
    assert rec.times[-1] == pytest.approx(0.1)
    assert np.all(np.diff(rec.times) > 0)
    # snapshots at steps 0, 4, 8 plus the forced final step 10
    assert list(rec.snapshot_times) == pytest.approx([0.0, 0.04, 0.08, 0.1])
    assert rec.densities.shape == (GRID.n, 4)


def test_evolve_zero_horizon_records_initial_state():
    params = PhysicsParams(m=1.0, hbar=1.0, mu=0.5)
    rec = evolve(_coherent(), HARMONIC, params,
                 PropagatorConfig(dt=0.01, t_final=0.0))
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
                 PropagatorConfig(dt=1e-3, t_final=2.0, snapshot_every=200))
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
               PropagatorConfig(dt=1e-3, t_final=1.0))
    assert err.value.step == 0
