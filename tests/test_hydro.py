"""Quantum potential and disruptor field against independent oracles.

Closed forms used here were derived separately and are re-derived symbolically
(sympy) inside the tests, so the numerical stencils are checked against
machinery that shares none of their code.

For a Gaussian amplitude R ~ exp(-w (x-a)^2 / 2) with hbar = m = 1:
    Q   = -(w^2 (x-a)^2 - w) / 2
and for R ~ exp(-(x-a)^2 / (2 s^2)):
    Dis = hbar^2 (x-a) / (m^2 s^4),   so Dis(a + s) = hbar^2 / (m^2 s^3).
A Gaussian is not periodic, so the stencils that wrap around the grid's seam
read its two far tails as neighbours there; those checks keep to a core away
from the seam.  The periodic amplitude R = exp(kappa cos y), y = k x with
k = 2 pi / L, has closed forms at every grid point, seam included:
    R''/R = k^2 (kappa^2 sin^2 y - kappa cos y),
    Dis   = (hbar^2 / 2m^2) k^3 (2 kappa^2 sin y cos y + kappa sin y).
"""

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from quantum_descent.fields import EPS_NODE, PhysicsParams, SpatialGrid
from quantum_descent.hydro import (disruptor_field, quantum_potential,
                                   sample_field)

P1 = PhysicsParams(m=1.0, hbar=1.0, mu=1.0)
# the periodic amplitude's parameters
KAPPA = 1.5
PQ = PhysicsParams(m=1.3, hbar=0.7, mu=0.5)


def _periodic_amplitude(grid, params, kappa=KAPPA):
    """R = exp(kappa cos(k x)) on the grid with its exact Q and Dis."""
    k = 2.0 * np.pi / (grid.x_max - grid.x_min)
    y = k * grid.x
    curvature = k**2 * (kappa**2 * np.sin(y) ** 2 - kappa * np.cos(y))
    dis = (params.hbar**2 / (2.0 * params.m**2)) * k**3 * (
        2.0 * kappa**2 * np.sin(y) * np.cos(y) + kappa * np.sin(y))
    return np.exp(kappa * np.cos(y)), -(params.hbar**2 / (2.0 * params.m)) * curvature, dis


def _sympy_quantum_potential(R_expr, x, hbar, m):
    return -(hbar**2 / (2 * m)) * sp.diff(R_expr, x, 2) / R_expr


def _sympy_disruptor(R_expr, x, hbar, m):
    return (hbar**2 / (2 * m**2)) * sp.diff(sp.diff(R_expr, x, 2) / R_expr, x)


# --- quantum potential -------------------------------------------------------

def test_gaussian_quantum_potential_closed_form():
    w, a = 1.0, 0.3
    grid = SpatialGrid(-6.0, 6.0, 4096)
    R = (w / np.pi) ** 0.25 * np.exp(-0.5 * w * (grid.x - a) ** 2)
    q = quantum_potential(R, grid, P1)
    exact = -(w**2 * (grid.x - a) ** 2 - w) / 2.0
    core = np.abs(grid.x - a) < 3.0  # away from the seam and the amplified tails
    assert np.max(np.abs(q[core] - exact[core])) < 2e-5


def test_quantum_potential_against_sympy():
    """Non-Gaussian amplitude: symbolic differentiation as the oracle."""
    x = sp.Symbol("x", real=True)
    R_expr = sp.exp(-x**2 / 4) * (2 + sp.cos(x))
    hbar, m = 0.7, 1.3
    q_expr = _sympy_quantum_potential(R_expr, x, hbar, m)
    grid = SpatialGrid(-4.0, 4.0, 8192)
    R = sp.lambdify(x, R_expr, "numpy")(grid.x)
    q = quantum_potential(R, grid, PhysicsParams(m=m, hbar=hbar, mu=0.5))
    exact = sp.lambdify(x, q_expr, "numpy")(grid.x)
    core = slice(50, -50)
    assert np.max(np.abs(q[core] - exact[core])) < 1e-5


def test_quantum_potential_regularized_at_nodes():
    grid = SpatialGrid(-5.0, 5.0, 512)
    R = np.abs(np.sin(np.pi * grid.x / 5.0))  # hard nodes
    q = quantum_potential(R, grid, P1)
    assert np.all(np.isfinite(q))


def test_quantum_potential_second_order_convergence():
    errs = []
    for n in (1024, 2048):
        grid = SpatialGrid(-6.0, 6.0, n)
        R, exact, _ = _periodic_amplitude(grid, PQ)
        errs.append(np.max(np.abs(quantum_potential(R, grid, PQ) - exact)))
    assert 3.5 < errs[0] / errs[1] < 4.5


def test_periodic_amplitude_closed_forms_hold_on_the_whole_grid():
    """Q and Dis of the periodic amplitude against their closed forms at
    every point, the seam included; the Dis error falls 4x as n doubles
    (measured: 9.3e-8 for Q and 1.8e-7 for Dis at n = 4096, ratio 3.97)."""
    errs = []
    for n in (2048, 4096):
        grid = SpatialGrid(-6.0, 6.0, n)
        R, q_exact, dis_exact = _periodic_amplitude(grid, PQ)
        errs.append((np.max(np.abs(quantum_potential(R, grid, PQ) - q_exact)),
                     np.max(np.abs(disruptor_field(R, grid, PQ) - dis_exact))))
    assert errs[1][0] < 1e-6 and errs[1][1] < 1e-6
    assert 3.5 < errs[0][1] / errs[1][1] < 4.5


# --- disruptor field ---------------------------------------------------------

def test_gaussian_disruptor_closed_form():
    s, a = 1.0, 0.0
    grid = SpatialGrid(-6.0, 6.0, 4096)
    R = np.exp(-((grid.x - a) ** 2) / (2.0 * s**2))
    dis = disruptor_field(R, grid, P1)
    # at the packet centre the disruptor vanishes; one sigma out it is 1/s^3
    assert abs(sample_field(dis, grid, a)) < 1e-9
    assert sample_field(dis, grid, a + s) == pytest.approx(1.0 / s**3, rel=1e-5)
    assert sample_field(dis, grid, a - s) == pytest.approx(-1.0 / s**3, rel=1e-5)


def test_disruptor_against_sympy():
    x = sp.Symbol("x", real=True)
    s, a, hbar, m = sp.Rational(3, 4), sp.Rational(1, 5), 0.8, 1.7
    R_expr = sp.exp(-((x - a) ** 2) / (2 * s**2))
    d_expr = _sympy_disruptor(R_expr, x, hbar, m)
    grid = SpatialGrid(-3.0, 3.0, 8192)
    R = sp.lambdify(x, R_expr, "numpy")(grid.x)
    dis = disruptor_field(R, grid, PhysicsParams(m=m, hbar=hbar, mu=0.0))
    exact = sp.lambdify(x, d_expr, "numpy")(grid.x)
    core = slice(100, -100)
    assert np.max(np.abs(dis[core] - exact[core])) < 1e-4


def test_disruptor_is_minus_gradient_of_q_over_m():
    """Dis == -(1/m) dQ/dx when both use the same stencils on a nodeless field."""
    grid = SpatialGrid(-8.0, 8.0, 2048)
    R = np.exp(-0.25 * grid.x**2) * (1.5 + 0.3 * np.tanh(grid.x))
    m = 2.2
    params = PhysicsParams(m=m, hbar=0.9, mu=0.5)
    dis = disruptor_field(R, grid, params)
    q = quantum_potential(R, grid, params)
    from quantum_descent.derivatives import first_derivative
    dq = first_derivative(q, grid.dx)
    assert np.max(np.abs(dis + dq / m)) < 1e-8


def test_hbar_squared_scaling():
    grid = SpatialGrid(-6.0, 6.0, 1024)
    R = np.exp(-0.5 * grid.x**2)
    x_eval = 0.7
    ratios = []
    for hbar in (1.0, 0.5, 0.1):
        dis = disruptor_field(R, grid, PhysicsParams(m=1.0, hbar=hbar, mu=1.0))
        ratios.append(sample_field(dis, grid, x_eval) / hbar**2)
    assert np.allclose(ratios, ratios[0], rtol=1e-10)


def test_disruptor_vanishes_at_zero_hbar():
    grid = SpatialGrid(-6.0, 6.0, 512)
    R = np.exp(-0.5 * grid.x**2)
    dis = disruptor_field(R, grid, PhysicsParams(m=1.0, hbar=0.0, mu=1.0))
    assert np.all(dis == 0.0)


# --- point sampling ----------------------------------------------------------

def test_sample_field_linear_interpolation_exact():
    grid = SpatialGrid(0.0, 4.5, 9)  # dx = 0.5, last point 4.0
    field = 2.0 * grid.x + 1.0
    for x in (0.0, 0.25, 1.1, 3.99, 4.0):
        assert sample_field(field, grid, x) == pytest.approx(2.0 * x + 1.0, abs=1e-12)


def test_sample_field_periodic_wrap():
    grid = SpatialGrid(0.0, 1.0, 10)  # points 0.0 .. 0.9
    field = np.sin(2.0 * np.pi * grid.x)
    # past the last stored point the cell wraps to x = 0
    got = sample_field(field, grid, 0.95)
    expected = 0.5 * (np.sin(2.0 * np.pi * 0.9) + np.sin(0.0))
    assert got == pytest.approx(expected, abs=1e-12)
    assert sample_field(field, grid, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_sample_field_rejects_outside_domain():
    grid = SpatialGrid(0.0, 1.0, 16)
    field = np.zeros(16)
    for x in (-0.01, 1.01, np.nan):
        with pytest.raises(ValueError):
            sample_field(field, grid, x)


def _mean_disruptor_ratio(R, grid, params):
    """|<Dis>_rho| / <|Dis|>_rho on the grid, with rho = R^2."""
    dis = disruptor_field(R, grid, params)
    rho = R * R
    return abs(np.sum(rho * dis)) / np.sum(rho * np.abs(dis))


@given(centre=st.floats(-4.0, 4.0), widths=st.tuples(st.floats(0.5, 1.5), st.floats(0.5, 1.5)),
       gap=st.floats(0.1, 1.0), left=st.booleans(), weight_ratio=st.floats(1.5, 10.0))
@settings(max_examples=50, deadline=None)
def test_disruptor_averages_to_zero_as_dx_squared(centre, widths, gap, left, weight_ratio):
    """rho dQ/dx is the divergence of a stress, so <Dis>_rho = 0 for any state;
    the discrete mean vanishes as O(dx^2): each halving of dx divides
    |<Dis>_rho| / <|Dis|>_rho by about 4.

    R is a positive sum of two overlapping Gaussians, so it has no node, and
    Dis depends on R alone.  Their centres lie in [-4, 4], gap (s1 + s2) apart
    for a gap fraction in [0.1, 1]: one packet, or two with one centre, is
    symmetric, and packets far apart are each symmetric, so their means
    vanish to roundoff and show no dx^2 term.  The heavier packet is the narrower one
    or as wide: where it is the wider, the dx^2 coefficient passes through
    zero and the factor strays (3.32 and 3.84 at widths 1.12 and 0.74, weight
    ratio 3.7, gap fraction 0.92)."""
    narrow, wide = sorted(widths)
    step = gap * (narrow + wide) * (-1.0 if left else 1.0)
    other = centre + step if abs(centre + step) <= 4.0 else centre - step
    ratios = []
    for n in (1024, 2048, 4096):
        grid = SpatialGrid(-20.0, 20.0, n)
        R = (np.exp(-(grid.x - centre) ** 2 / (2.0 * narrow**2))
             + np.exp(-(grid.x - other) ** 2 / (2.0 * wide**2)) / weight_ratio)
        ratios.append(_mean_disruptor_ratio(R, grid, P1))
    assert 3.5 <= ratios[0] / ratios[1] <= 4.5
    assert 3.5 <= ratios[1] / ratios[2] <= 4.5
