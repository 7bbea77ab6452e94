"""Grid, parameter, polar-decomposition and momentum behaviour.

The decomposition psi = R exp(i S / hbar) is the foundation everything else
stands on; the tests pin its conventions: left-to-right unwrapping, S = 0 at
the density maximum, node filling from the nearest valid neighbour, and the
round-trip R exp(iS/hbar) == psi wherever the density clears the floor.  The
momentum <p> is read from the DFT; the tests tie it to the hydrodynamic
sum rho S' dx and pin its Nyquist convention.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantum_descent.errors import NodeDominatedError, NodeDominatedWarning
from quantum_descent.fields import (EPS_NODE, PhysicsParams, Wavefunction,
                                    build_grid, expectation_momentum,
                                    expectation_position, gaussian_packet,
                                    norm, plane_wave, polar_decompose)

P1 = PhysicsParams(m=1.0, hbar=1.0, mu=1.0)


# --- grids -------------------------------------------------------------------

def test_grid_spacing_conventions():
    grid = build_grid(0.0, 1.0, 10)
    assert grid.dx == pytest.approx(0.1)
    assert grid.x[-1] == pytest.approx(0.9)     # excludes the seam point


@pytest.mark.parametrize("args", [
    (1.0, 0.0, 64),            # inverted bounds
    (0.0, 1.0, 4),             # too few points
    (0.0, np.inf, 64),         # non-finite bound
])
def test_grid_validation(args):
    with pytest.raises(ValueError):
        build_grid(*args)


def test_grid_x_is_read_only():
    grid = build_grid(0.0, 1.0, 16)
    with pytest.raises(ValueError):
        grid.x[0] = 99.0


# --- physics parameters ------------------------------------------------------

def test_derived_learning_parameters():
    p = PhysicsParams(m=4.0, hbar=1.0, mu=0.25)
    assert p.beta == 0.75
    assert p.lam == 0.25


@pytest.mark.parametrize("kwargs", [
    {"m": 0.0}, {"m": -1.0}, {"hbar": -0.1}, {"mu": -0.01}, {"mu": 1.5},
])
def test_physics_validation(kwargs):
    with pytest.raises(ValueError):
        PhysicsParams(**kwargs)


@given(mu=st.floats(0.0, 1.0, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_momentum_factor_in_unit_interval(mu):
    assert 0.0 <= PhysicsParams(mu=mu).beta <= 1.0


# --- polar decomposition -----------------------------------------------------

def test_round_trip_where_density_valid():
    grid = build_grid(-20.0, 20.0, 2048)
    psi = gaussian_packet(grid, x0=-3.0, p0=1.7, sigma=1.2)
    f = polar_decompose(psi.values, grid, P1)
    rebuilt = f.R * np.exp(1j * f.S / P1.hbar)
    ok = f.rho >= EPS_NODE
    # global phase was shifted so that S = 0 at the density max; undo it
    j = int(np.argmax(f.rho))
    phase = psi.values[j] / np.abs(psi.values[j])
    assert np.max(np.abs(rebuilt[ok] * phase - psi.values[ok])) < 1e-10


def test_phase_zero_at_density_max():
    grid = build_grid(-20.0, 20.0, 1024)
    psi = gaussian_packet(grid, x0=2.0, p0=0.8)
    f = polar_decompose(psi.values, grid, P1)
    assert f.S[int(np.argmax(f.rho))] == 0.0


def test_phase_continuity_no_wrap_jumps():
    grid = build_grid(-20.0, 20.0, 2048)
    psi = gaussian_packet(grid, x0=0.0, p0=3.0, sigma=1.5)
    f = polar_decompose(psi.values, grid, P1)
    valid = np.flatnonzero(f.rho >= EPS_NODE)
    jumps = np.abs(np.diff(f.S[valid]))
    assert np.all(jumps < np.pi * P1.hbar)


def test_plane_wave_velocity_constant():
    """e^{ikx} on a periodic grid: u = hbar k / m everywhere, seam included."""
    grid = build_grid(0.0, 2.0 * np.pi, 128)
    k = 5.0  # integer winding fits the periodic box
    psi = plane_wave(grid, k)
    f = polar_decompose(psi.values, grid, P1)
    assert np.allclose(f.u, k, rtol=1e-9)


def test_moving_packet_velocity():
    grid = build_grid(-20.0, 20.0, 2048)
    p0, m = 2.5, 2.0
    params = PhysicsParams(m=m, hbar=1.0, mu=0.5)
    psi = gaussian_packet(grid, x0=0.0, p0=p0, sigma=1.0)
    f = polar_decompose(psi.values, grid, params)
    core = f.rho > 1e-4  # velocity is p0/m across the packet's core
    assert np.allclose(f.u[core], p0 / m, atol=1e-6)
    assert np.allclose(f.p[core], p0, atol=2e-6)


def test_rho_and_p_consistency():
    grid = build_grid(-10.0, 10.0, 512)
    psi = gaussian_packet(grid, x0=1.0, p0=-0.3)
    f = polar_decompose(psi.values, grid, P1)
    assert np.allclose(f.rho, f.R**2, rtol=1e-14)
    assert np.allclose(f.p, P1.m * f.u, rtol=1e-14)


def test_node_fill_inherits_neighbor_phase():
    grid = build_grid(-10.0, 10.0, 256)
    values = np.exp(-0.5 * (grid.x + 4.0) ** 2) + np.exp(-0.5 * (grid.x - 4.0) ** 2) * 1j
    psi = Wavefunction(values, grid).normalized()
    f = polar_decompose(psi.values, grid, P1)
    assert np.all(np.isfinite(f.S))
    assert np.all(np.isfinite(f.u))
    # left lobe is real (phase 0), right lobe is +i (phase pi/2)
    left = int(np.searchsorted(grid.x, -4.0))
    right = int(np.searchsorted(grid.x, 4.0))
    assert f.S[left] == pytest.approx(0.0, abs=1e-9)
    assert f.S[right] - f.S[left] == pytest.approx(np.pi / 2.0, abs=1e-9)


def test_node_dominated_error_when_no_phase_information():
    grid = build_grid(0.0, 1.0, 16)
    values = np.zeros(16, dtype=complex)
    values[3] = 1.0  # a single valid point cannot support a derivative
    with pytest.raises(NodeDominatedError):
        polar_decompose(values, grid, P1)


def test_node_dominated_warning_for_localized_packet():
    grid = build_grid(-20.0, 20.0, 2048)
    psi = gaussian_packet(grid, x0=-5.0, sigma=0.7)
    with pytest.warns(NodeDominatedWarning):
        polar_decompose(psi.values, grid, P1)


def test_polar_decompose_requires_hbar():
    grid = build_grid(-5.0, 5.0, 64)
    psi = gaussian_packet(grid, x0=0.0)
    with pytest.raises(ValueError):
        polar_decompose(psi.values, grid, PhysicsParams(hbar=0.0))


def test_hbar_scales_phase_action():
    grid = build_grid(-15.0, 15.0, 1024)
    psi = gaussian_packet(grid, x0=0.0, p0=1.0, hbar=1.0)
    f1 = polar_decompose(psi.values, grid, PhysicsParams(hbar=1.0))
    f2 = polar_decompose(psi.values, grid, PhysicsParams(hbar=0.5))
    ok = f1.rho > 1e-6
    assert np.allclose(f2.S[ok], 0.5 * f1.S[ok], rtol=1e-10, atol=1e-12)


# --- observables and constructors --------------------------------------------

def test_gaussian_packet_expectations():
    grid = build_grid(-25.0, 25.0, 4096)
    psi = gaussian_packet(grid, x0=-5.0, p0=1.25, sigma=1.0)
    assert norm(psi) == pytest.approx(1.0, abs=1e-12)
    assert expectation_position(psi) == pytest.approx(-5.0, abs=1e-9)
    assert expectation_momentum(psi, P1) == pytest.approx(1.25, abs=1e-9)


def hydrodynamic_momentum(psi, params):
    """Plain sum rho p dx with S = hbar unwrap(arg psi), u = S'/m and p = m u."""
    v = psi.values
    u = np.gradient(params.hbar * np.unwrap(np.angle(v)), psi.grid.dx) / params.m
    return float(np.sum(np.abs(v) ** 2 * params.m * u) * psi.grid.dx)


@given(breathing=st.booleans(), x0=st.floats(-6.0, 6.0),
       p0=st.floats(-3.0, 3.0), sigma=st.floats(0.5, 1.5), chirp=st.floats(-0.5, 0.5),
       hbar=st.sampled_from((1.0, 0.7)), m=st.sampled_from((1.0, 1.5)))
@settings(max_examples=200, deadline=None)
def test_momentum_equals_hydrodynamic_momentum(breathing, x0, p0, sigma, chirp, hbar, m):
    """<psi| -i hbar d/dx |psi> from the DFT equals sum rho S' dx for resolved
    packets far from the grid's ends: a coherent packet (a Gaussian with a
    linear phase) and a breathing one (a quadratic phase added).  The central
    stencil is exact for a quadratic S, so only roundoff separates the two
    (measured up to 1.1e-14 over 6000 draws); the bound is 1e-12."""
    grid = build_grid(-20.0, 20.0, 1024)
    d = grid.x - x0
    phase = p0 * d + (0.5 * chirp * d * d if breathing else 0.0)
    psi = Wavefunction(np.exp(-d * d / (4.0 * sigma**2) + 1j * phase / hbar), grid).normalized()
    params = PhysicsParams(m=m, hbar=hbar, mu=0.5)
    assert abs(expectation_momentum(psi, params) - hydrodynamic_momentum(psi, params)) <= 1e-12


@pytest.mark.parametrize("hbar", [1.0, 0.7])
@pytest.mark.parametrize("k", [1.0, 5.0, -7.0, 63.0])
def test_plane_wave_momentum_is_hbar_k(k, hbar):
    """e^{ikx} on a periodic grid has <p> = hbar k, up to the last resolved
    wavenumber (63 of a Nyquist wavenumber 64 on this grid)."""
    grid = build_grid(0.0, 2.0 * np.pi, 128)
    p = expectation_momentum(plane_wave(grid, k), PhysicsParams(hbar=hbar))
    assert p == pytest.approx(hbar * k, rel=1e-13)


@pytest.mark.parametrize("x0", [17.0, 19.9])
def test_real_packet_cut_by_the_seam_has_zero_momentum(x0):
    """A real psi has <p> = 0.  The periodic seam cuts this packet, so its DFT
    has weight at the Nyquist bin, whose wavenumber has no partner of the
    opposite sign: counted as -pi/dx it would read <p> of order -1e-6."""
    grid = build_grid(-20.0, 20.0, 256)
    psi = gaussian_packet(grid, x0=x0, sigma=0.8)
    nyquist = np.pi / grid.n * abs(np.fft.fft(psi.values)[grid.n // 2]) ** 2
    assert nyquist > 1e-6  # the case the Nyquist convention decides
    assert abs(expectation_momentum(psi, P1)) < 1e-15


def test_momentum_needs_hbar():
    grid = build_grid(-5.0, 5.0, 64)
    with pytest.raises(ValueError):
        expectation_momentum(gaussian_packet(grid, x0=0.0), PhysicsParams(hbar=0.0))


def test_normalized_rescales():
    grid = build_grid(-5.0, 5.0, 128)
    psi = Wavefunction(3.7 * gaussian_packet(grid, 0.0).values, grid)
    assert norm(psi.normalized()) == pytest.approx(1.0, abs=1e-13)


def test_normalize_zero_rejected():
    grid = build_grid(-5.0, 5.0, 128)
    with pytest.raises(ValueError):
        Wavefunction(np.zeros(128, dtype=complex), grid).normalized()


def test_wavefunction_shape_checked():
    grid = build_grid(-5.0, 5.0, 128)
    with pytest.raises(ValueError):
        Wavefunction(np.zeros(64, dtype=complex), grid)


@given(phi=st.floats(-np.pi, np.pi, allow_nan=False))
@settings(max_examples=20, deadline=None)
def test_global_phase_leaves_velocity_unchanged(phi):
    grid = build_grid(-15.0, 15.0, 512)
    psi = gaussian_packet(grid, x0=1.0, p0=0.7)
    shifted = Wavefunction(psi.values * np.exp(1j * phi), grid)
    f0 = polar_decompose(psi.values, grid, P1)
    f1 = polar_decompose(shifted.values, grid, P1)
    assert np.allclose(f1.u, f0.u, atol=1e-9)
    assert np.allclose(f1.rho, f0.rho, rtol=1e-14)
