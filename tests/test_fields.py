"""Grid, parameter, polar-decomposition and momentum behaviour.

The decomposition psi = R exp(i S / hbar) is the foundation everything else
stands on; the tests pin its conventions: S integrated left to right from
neighbour increments in (-pi*hbar, pi*hbar], S = 0 at the density maximum,
node filling from the nearest valid neighbour, and the round-trip
R exp(iS/hbar) == psi wherever the density clears the floor.  The velocity
u = S'/m of the decomposition comes from the plain reference in
test_kernel_references.py.  The momentum <p> is read from the DFT; the
tests tie it to the hydrodynamic sum rho S' dx and pin its Nyquist
convention.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantum_descent.errors import NodeDominatedError
from quantum_descent.fields import (EPS_NODE, PhysicsParams, SpatialGrid,
                                    Wavefunction, gaussian_packet,
                                    momentum_weights, norm, polar_decompose,
                                    spectral_momentum)
from test_kernel_references import ref_polar_decompose, wavefunctions

P1 = PhysicsParams(m=1.0, hbar=1.0, mu=1.0)


def velocity(psi, params):
    """u = S'/m of psi's decomposition, from the reference."""
    return ref_polar_decompose(psi.values, psi.grid, params)[2]


def momentum(psi, params):
    """<p> from the DFT of psi, the way evolve reads it."""
    return spectral_momentum(np.fft.fft(psi.values), momentum_weights(psi.grid, params))


# --- grids -------------------------------------------------------------------

def test_grid_spacing_conventions():
    grid = SpatialGrid(0.0, 1.0, 10)
    assert grid.dx == pytest.approx(0.1)
    assert grid.x[-1] == pytest.approx(0.9)     # excludes the seam point


def test_the_default_grid():
    grid = SpatialGrid()
    assert (grid.x_min, grid.x_max, grid.n, grid.dx) == (-20.0, 20.0, 2048, 40.0 / 2048)
    assert grid.x[0] == -20.0 and grid.x.size == 2048


def test_grid_bounds_are_floats_and_n_an_int():
    grid = SpatialGrid(0, 4, np.int64(8))
    assert (type(grid.x_min), type(grid.x_max), type(grid.n)) == (float, float, int)
    assert grid.dx == 0.5


@pytest.mark.parametrize("args,error,text", [
    ((1.0, 0.0, 64), ValueError, r"x_max must exceed x_min, got \[1.0, 0.0\]"),
    ((0.0, 0.0, 64), ValueError, "x_max must exceed x_min"),
    ((0.0, 1.0, 4), ValueError, "grid needs at least 8 points, got 4"),
    ((0.0, 1.0, 0), ValueError, "grid needs at least 8 points, got 0"),
    ((0.0, np.inf, 64), ValueError, r"grid bounds must be finite, got \[0.0, inf\]"),
    ((np.nan, 1.0, 64), ValueError, "grid bounds must be finite"),
    ((0.0, 1.0, 10.9), TypeError, "integer"),  # not truncated to 10 points
], ids=["reversed", "zero_width", "too_few_points", "no_points", "infinite_bound", "nan_bound",
        "non_integral_n"])
def test_grid_validation(args, error, text):
    with pytest.raises(error, match=text):
        SpatialGrid(*args)


def test_grid_x_is_read_only():
    grid = SpatialGrid(0.0, 1.0, 16)
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
    grid = SpatialGrid(-20.0, 20.0, 2048)
    psi = gaussian_packet(grid, x0=-3.0, p0=1.7, sigma=1.2)
    f = polar_decompose(psi.values, grid, P1)
    rebuilt = f.R * np.exp(1j * f.S / P1.hbar)
    ok = f.rho >= EPS_NODE
    # global phase was shifted so that S = 0 at the density max; undo it
    j = int(np.argmax(f.rho))
    phase = psi.values[j] / np.abs(psi.values[j])
    assert np.max(np.abs(rebuilt[ok] * phase - psi.values[ok])) < 1e-10


def test_phase_zero_at_density_max():
    grid = SpatialGrid(-20.0, 20.0, 1024)
    psi = gaussian_packet(grid, x0=2.0, p0=0.8)
    f = polar_decompose(psi.values, grid, P1)
    assert f.S[int(np.argmax(f.rho))] == 0.0


def test_phase_continuity_no_wrap_jumps():
    """arg(psi) of this moving packet wraps many times inside the span; S does not."""
    grid = SpatialGrid(-20.0, 20.0, 2048)
    psi = gaussian_packet(grid, x0=0.0, p0=3.0, sigma=1.5)
    f = polar_decompose(psi.values, grid, P1)
    valid = np.flatnonzero(f.rho >= EPS_NODE)
    jumps = np.abs(np.diff(f.S[valid]))
    assert np.all(jumps < np.pi * P1.hbar)


@given(psi=wavefunctions(), hbar=st.sampled_from((1.0, 0.5, 0.3)))
@settings(max_examples=400, deadline=None)
def test_decomposition_conventions(psi, hbar):
    """On interior gaps, empty ends, two valid points and exact +-pi phasors:
    R exp(iS/hbar) is psi on the valid points up to one global phase; each
    increment of S between consecutive valid points is in (-pi*hbar, pi*hbar]
    up to roundoff, and +pi*hbar between exactly opposite neighbours; S = 0
    at the first density maximum; a sub-floor point takes the S of its
    nearest valid neighbour, the left one on a tie."""
    params = PhysicsParams(m=1.0, hbar=hbar, mu=0.5)
    v = psi.values
    f = polar_decompose(v, psi.grid, params)
    kept = np.flatnonzero(f.rho >= EPS_NODE)

    top = int(np.argmax(f.rho))
    assert f.S[top] == 0.0
    rebuilt = f.R[kept] * np.exp(1j * f.S[kept] / hbar) * (v[top] / abs(v[top]))
    assert np.all(np.abs(rebuilt - v[kept]) <= 1e-12 * np.abs(v[kept]))

    increments = np.diff(f.S[kept])
    roundoff = 1e-13 * (1.0 + np.max(np.abs(f.S)))
    assert np.all(np.abs(increments) <= np.pi * hbar + roundoff)
    turn = v[kept][1:] * np.conj(v[kept][:-1])
    opposite = (turn.imag == 0.0) & (turn.real < 0.0)
    assert np.all(np.abs(increments[opposite] - np.pi * hbar) <= roundoff)

    for j in np.flatnonzero(f.rho < EPS_NODE):
        distance = np.abs(kept - j)
        nearest = kept[int(np.argmin(distance))]  # the first minimum is the left one
        assert f.S[j] == f.S[nearest], f"point {j}"


def test_plane_wave_velocity_constant():
    """e^{ikx} on a periodic grid: u = hbar k / m everywhere, seam included."""
    grid = SpatialGrid(0.0, 2.0 * np.pi, 128)
    k = 5.0  # integer winding fits the periodic box
    psi = Wavefunction(np.exp(1j * k * grid.x), grid)
    assert np.allclose(velocity(psi, P1), k, rtol=1e-9)


def test_moving_packet_velocity():
    grid = SpatialGrid(-20.0, 20.0, 2048)
    p0, m = 2.5, 2.0
    params = PhysicsParams(m=m, hbar=1.0, mu=0.5)
    psi = gaussian_packet(grid, x0=0.0, p0=p0, sigma=1.0)
    _, rho, u, p = ref_polar_decompose(psi.values, grid, params)
    core = rho > 1e-4  # velocity is p0/m across the packet's core
    assert np.allclose(u[core], p0 / m, atol=1e-6)
    assert np.allclose(p[core], p0, atol=2e-6)


def test_rho_is_the_squared_amplitude():
    grid = SpatialGrid(-10.0, 10.0, 512)
    psi = gaussian_packet(grid, x0=1.0, p0=-0.3)
    f = polar_decompose(psi.values, grid, P1)
    assert np.allclose(f.rho, f.R**2, rtol=1e-14)


def test_node_fill_inherits_neighbor_phase():
    grid = SpatialGrid(-10.0, 10.0, 256)
    values = np.exp(-0.5 * (grid.x + 4.0) ** 2) + np.exp(-0.5 * (grid.x - 4.0) ** 2) * 1j
    psi = Wavefunction(values, grid).normalized()
    f = polar_decompose(psi.values, grid, P1)
    assert np.all(np.isfinite(f.S))
    assert np.all(np.isfinite(velocity(psi, P1)))
    # left lobe is real (phase 0), right lobe is +i (phase pi/2)
    left = int(np.searchsorted(grid.x, -4.0))
    right = int(np.searchsorted(grid.x, 4.0))
    assert f.S[left] == pytest.approx(0.0, abs=1e-9)
    assert f.S[right] - f.S[left] == pytest.approx(np.pi / 2.0, abs=1e-9)


def test_node_dominated_error_when_no_phase_information():
    grid = SpatialGrid(0.0, 1.0, 16)
    values = np.zeros(16, dtype=complex)
    values[3] = 1.0  # a single valid point cannot support a derivative
    with pytest.raises(NodeDominatedError):
        polar_decompose(values, grid, P1)


def test_localized_packet_decomposes_without_a_warning():
    """Most of a wide grid lies below the node floor under a localized
    packet; that is a normal state, so it decomposes silently."""
    grid = SpatialGrid(-20.0, 20.0, 2048)
    psi = gaussian_packet(grid, x0=-5.0, sigma=0.7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = polar_decompose(psi.values, grid, P1)
    first, last = f.span
    assert grid.n - (last + 1 - first) > 0.5 * grid.n


def test_polar_decompose_requires_hbar():
    grid = SpatialGrid(-5.0, 5.0, 64)
    psi = gaussian_packet(grid, x0=0.0)
    with pytest.raises(ValueError):
        polar_decompose(psi.values, grid, PhysicsParams(hbar=0.0))


def test_hbar_scales_phase_action():
    grid = SpatialGrid(-15.0, 15.0, 1024)
    psi = gaussian_packet(grid, x0=0.0, p0=1.0, hbar=1.0)
    f1 = polar_decompose(psi.values, grid, PhysicsParams(hbar=1.0))
    f2 = polar_decompose(psi.values, grid, PhysicsParams(hbar=0.5))
    ok = f1.rho > 1e-6
    assert np.allclose(f2.S[ok], 0.5 * f1.S[ok], rtol=1e-10, atol=1e-12)


# --- observables and constructors --------------------------------------------

def test_gaussian_packet_expectations():
    grid = SpatialGrid(-25.0, 25.0, 4096)
    psi = gaussian_packet(grid, x0=-5.0, p0=1.25, sigma=1.0)
    assert norm(psi) == pytest.approx(1.0, abs=1e-12)
    rho = np.abs(psi.values) ** 2
    assert np.sum(grid.x * rho) * grid.dx == pytest.approx(-5.0, abs=1e-9)
    assert momentum(psi, P1) == pytest.approx(1.25, abs=1e-9)


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
    grid = SpatialGrid(-20.0, 20.0, 1024)
    d = grid.x - x0
    phase = p0 * d + (0.5 * chirp * d * d if breathing else 0.0)
    psi = Wavefunction(np.exp(-d * d / (4.0 * sigma**2) + 1j * phase / hbar), grid).normalized()
    params = PhysicsParams(m=m, hbar=hbar, mu=0.5)
    assert abs(momentum(psi, params) - hydrodynamic_momentum(psi, params)) <= 1e-12


@pytest.mark.parametrize("hbar", [1.0, 0.7])
@pytest.mark.parametrize("k", [1.0, 5.0, -7.0, 63.0])
def test_plane_wave_momentum_is_hbar_k(k, hbar):
    """e^{ikx} on a periodic grid has <p> = hbar k, up to the last resolved
    wavenumber (63 of a Nyquist wavenumber 64 on this grid)."""
    grid = SpatialGrid(0.0, 2.0 * np.pi, 128)
    psi = Wavefunction(np.exp(1j * k * grid.x) / np.sqrt(grid.x_max - grid.x_min), grid)
    p = momentum(psi, PhysicsParams(hbar=hbar))
    assert p == pytest.approx(hbar * k, rel=1e-13)


@pytest.mark.parametrize("x0", [17.0, 19.9])
def test_real_packet_cut_by_the_seam_has_zero_momentum(x0):
    """A real psi has <p> = 0.  The periodic seam cuts this packet, so its DFT
    has weight at the Nyquist bin, whose wavenumber has no partner of the
    opposite sign: counted as -pi/dx it would read <p> of order -1e-6."""
    grid = SpatialGrid(-20.0, 20.0, 256)
    psi = gaussian_packet(grid, x0=x0, sigma=0.8)
    nyquist = np.pi / grid.n * abs(np.fft.fft(psi.values)[grid.n // 2]) ** 2
    assert nyquist > 1e-6  # the case the Nyquist convention decides
    assert abs(momentum(psi, P1)) < 1e-15


def test_momentum_needs_hbar():
    grid = SpatialGrid(-5.0, 5.0, 64)
    with pytest.raises(ValueError):
        momentum_weights(grid, PhysicsParams(hbar=0.0))


def test_normalized_rescales():
    grid = SpatialGrid(-5.0, 5.0, 128)
    psi = Wavefunction(3.7 * gaussian_packet(grid, 0.0).values, grid)
    assert norm(psi.normalized()) == pytest.approx(1.0, abs=1e-13)


def test_normalize_zero_rejected():
    grid = SpatialGrid(-5.0, 5.0, 128)
    with pytest.raises(ValueError):
        Wavefunction(np.zeros(128, dtype=complex), grid).normalized()


def test_wavefunction_shape_checked():
    grid = SpatialGrid(-5.0, 5.0, 128)
    with pytest.raises(ValueError):
        Wavefunction(np.zeros(64, dtype=complex), grid)


@given(phi=st.floats(-np.pi, np.pi, allow_nan=False))
@settings(max_examples=20, deadline=None)
def test_global_phase_leaves_velocity_unchanged(phi):
    grid = SpatialGrid(-15.0, 15.0, 512)
    psi = gaussian_packet(grid, x0=1.0, p0=0.7)
    shifted = Wavefunction(psi.values * np.exp(1j * phi), grid)
    f0 = polar_decompose(psi.values, grid, P1)
    f1 = polar_decompose(shifted.values, grid, P1)
    assert np.allclose(velocity(shifted, P1), velocity(psi, P1), atol=1e-9)
    assert np.allclose(f1.rho, f0.rho, rtol=1e-14)
