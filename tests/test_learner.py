"""Discrete learner: heavy-ball updates, disruptor coupling, stability.

The core identity under test: with a zero disruptor, the quantum learning
update u' = (1-mu) u - (1/m) dV/dx + Dis reduces to classical momentum
gradient descent with learning rate 1/m and momentum factor 1-mu -- not just
approximately but through the identical arithmetic path, hence bit-for-bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantum_descent.errors import NumericalError
from quantum_descent.fields import PhysicsParams, SpatialGrid, gaussian_packet
from quantum_descent.learner import (FieldSampledDisruptor, PotentialSpec,
                                     ZeroDisruptor, run_learner, run_momentum_gd)
from test_learner_references import (CallbackDisruptor, RefState, momentum_gd_step,
                                     quantum_learn_step)

HARMONIC = PotentialSpec.harmonic(1.0)


# --- potentials --------------------------------------------------------------

def test_harmonic_potential_and_gradient():
    pot = PotentialSpec.harmonic(2.0)
    assert pot.evaluate(3.0) == pytest.approx(0.5 * 4.0 * 9.0)
    assert pot.gradient(3.0) == pytest.approx(4.0 * 3.0)


def test_quartic_gradient_matches_quadrature_free_derivative():
    pot = PotentialSpec.quartic(1.6)
    x = 0.9
    h = 1e-6
    numeric = (pot.evaluate(x + h) - pot.evaluate(x - h)) / (2.0 * h)
    assert pot.gradient(x) == pytest.approx(numeric, rel=1e-8)
    assert pot.gradient(x) == pytest.approx(1.6 * x**3, rel=1e-12)


@pytest.mark.parametrize("c", [0.5, 1.6, 3.0])
def test_quartic_is_the_polynomial_of_its_one_coefficient(c):
    """quartic(c) is polynomial([0, 0, 0, 0, c/4]) to the bit, on scalars and
    on arrays, and a scalar gets the bits of its array element."""
    quartic = PotentialSpec.quartic(c)
    poly = PotentialSpec.polynomial([0.0, 0.0, 0.0, 0.0, c / 4.0])
    xs = np.linspace(-3.7, 3.7, 101)
    for q, p in ((quartic.evaluate, poly.evaluate), (quartic.gradient, poly.gradient)):
        on_array = q(xs)
        assert np.array_equal(on_array, p(xs))
        for x, value in zip(xs, on_array):
            assert q(float(x)) == p(float(x)) == value


def test_polynomial_gradient_is_exact_polyder():
    coeffs = [1.0, -2.0, 0.5, 3.0]  # ascending powers
    pot = PotentialSpec.polynomial(coeffs)
    xs = np.linspace(-2, 2, 11)
    der = np.polynomial.polynomial.polyder(coeffs)
    expected = np.polynomial.polynomial.polyval(xs, der)
    got = np.array([pot.gradient(x) for x in xs])
    assert np.allclose(got, expected, rtol=1e-13)


def test_tabulated_potential_interpolates():
    xs = np.linspace(-3, 3, 301)
    pot = PotentialSpec.tabulated(xs, 0.5 * xs**2)
    assert pot.evaluate(0.7) == pytest.approx(0.5 * 0.49, abs=1e-4)
    assert pot.gradient(0.7) == pytest.approx(0.7, abs=1e-3)


def test_nonpositive_omega_rejected():
    with pytest.raises(ValueError):
        PotentialSpec.harmonic(0.0)


# --- single steps ------------------------------------------------------------

def test_momentum_step_validates_parameters():
    s = RefState(t=0, x=1.0, u=0.0, dis_last=0.0)
    with pytest.raises(ValueError):
        momentum_gd_step(s, HARMONIC, alpha=0.0, beta=0.5)
    with pytest.raises(ValueError):
        momentum_gd_step(s, HARMONIC, alpha=1.0, beta=1.5)


def test_full_friction_unit_mass_converges_in_one_update():
    """mu = 1, m = 1, omega = 1: x' = x - dV/dx lands on the minimum at once."""
    s = RefState(t=0, x=-5.0, u=0.0, dis_last=0.0)
    s = quantum_learn_step(s, HARMONIC, ZeroDisruptor(), PhysicsParams(m=1.0, mu=1.0))
    assert s.x == 0.0
    assert s.u == 5.0  # velocity is the full jump; it decays next step


def test_non_finite_gradient_raises():
    bad = PotentialSpec(evaluate=lambda x: x, gradient=lambda x: np.inf)
    s = RefState(t=3, x=0.0, u=0.0, dis_last=0.0)
    with pytest.raises(NumericalError) as err:
        momentum_gd_step(s, bad, alpha=1.0, beta=0.0)
    assert err.value.step == 3


def test_constant_disruptor_shifts_update():
    params = PhysicsParams(m=2.0, mu=0.25)
    s = RefState(t=0, x=1.0, u=0.5, dis_last=0.0)
    stepped = quantum_learn_step(s, HARMONIC, CallbackDisruptor(lambda x: 0.3), params)
    expected_u = params.beta * 0.5 - params.lam * HARMONIC.gradient(1.0) + 0.3
    assert stepped.u == expected_u
    assert stepped.x == 1.0 + expected_u
    assert stepped.dis_last == 0.3


def test_time_scale_rescales_drive_terms():
    params = PhysicsParams(m=1.0, mu=0.5)
    s = RefState(t=0, x=2.0, u=1.0, dis_last=0.0)
    tau = 0.1
    stepped = quantum_learn_step(s, HARMONIC, CallbackDisruptor(lambda x: 0.7),
                                 params, time_scale=tau)
    assert stepped.u == pytest.approx(params.beta * 1.0 + tau * (0.7 - 2.0), rel=1e-15)


# --- bitwise equivalence with classical momentum descent ----------------------

@given(
    m=st.floats(0.5, 4.0, allow_nan=False),
    mu=st.floats(0.0, 1.0, allow_nan=False),
    x0=st.floats(-5.0, 5.0, allow_nan=False),
    u0=st.floats(-2.0, 2.0, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_zero_disruptor_equals_momentum_descent_bitwise(m, mu, x0, u0):
    params = PhysicsParams(m=m, mu=mu)
    # keep the run inside the stable region: lam * omega^2 < 2 (1 + beta)
    omega = np.sqrt(0.9 * 2.0 * (1.0 + params.beta) * m)
    pot = PotentialSpec.harmonic(omega)
    q = run_learner(x0, u0, pot, ZeroDisruptor(), params, steps=60)
    c = run_momentum_gd(x0, u0, pot, alpha=params.lam, beta=params.beta, steps=60)
    assert np.array_equal(q.x, c.x)
    assert np.array_equal(q.u, c.u)
    assert q.outcome == c.outcome


def test_stability_boundary_of_the_quadratic_objective():
    """lam omega^2 < 2 (1 + beta) iterates stably; beyond it, it diverges."""
    params = PhysicsParams(m=1.0, mu=1.0)  # beta = 0: boundary at omega^2 = 2
    stable = run_learner(-1.0, 0.0, PotentialSpec.harmonic(np.sqrt(1.9)),
                         ZeroDisruptor(), params, steps=400)
    unstable = run_learner(-1.0, 0.0, PotentialSpec.harmonic(np.sqrt(2.1)),
                           ZeroDisruptor(), params, steps=400)
    assert abs(stable.x[-1]) < abs(stable.x[0])
    assert unstable.outcome == "diverged"


# --- run-level behaviour ------------------------------------------------------

def test_run_learner_early_stop_and_row_shape():
    params = PhysicsParams(m=1.0, mu=1.0)
    run = run_learner(-5.0, 0.0, HARMONIC, ZeroDisruptor(), params,
                      steps=100, stop_tol=1e-8)
    assert run.outcome == "converged"
    assert len(run.t) < 101
    assert run.rows.shape == (len(run.t), 5)
    assert np.all(np.diff(run.t) == 1.0)
    assert run.x[-1] == 0.0


def test_run_learner_divergence_keeps_partial_records():
    hill = PotentialSpec.polynomial([0.0, 0.0, -0.5])  # V = -x^2/2 pushes outward
    run = run_learner(-5.0, 0.0, hill, ZeroDisruptor(),
                      PhysicsParams(m=1.0, mu=0.0), steps=200)
    assert run.outcome == "diverged"
    assert 1 < len(run.x) < 201
    assert abs(run.x[-1]) > 1e6


def test_run_learner_max_steps_outcome():
    run = run_learner(-5.0, 0.0, HARMONIC, ZeroDisruptor(),
                      PhysicsParams(m=1.0, mu=0.0), steps=50)
    assert run.outcome == "max_steps"
    assert len(run.t) == 51


# --- field-sampled disruptor ---------------------------------------------------

def _coherent_on_grid(x0):
    grid = SpatialGrid(-20.0, 20.0, 512)
    return gaussian_packet(grid, x0, sigma=1.0 / np.sqrt(2.0))


def test_field_sampled_hbar_zero_equals_zero_disruptor():
    """At hbar = 0 the field-sampled disruptor is the zero disruptor: a run
    builds ZeroDisruptor instead (test_cli compares the two runs' bytes), and
    the class, which needs a wave to propagate, refuses hbar = 0."""
    grid = SpatialGrid(-20.0, 20.0, 512)
    psi0 = gaussian_packet(grid, x0=-5.0)
    params = PhysicsParams(m=1.0, hbar=0.0, mu=1.0)
    with pytest.raises(ValueError, match="hbar > 0"):
        FieldSampledDisruptor(psi0, HARMONIC, params, pde_dt=0.1)


def test_field_sampled_disruptor_is_stateful():
    params = PhysicsParams(m=1.0, hbar=1.0, mu=0.5)
    dis = FieldSampledDisruptor(_coherent_on_grid(-3.0), HARMONIC, params,
                                pde_dt=0.05, macro_time=0.5)
    first = dis.sample(-2.0)
    second = dis.sample(-2.0)  # the underlying field has moved on
    assert np.isfinite(first) and np.isfinite(second)
    assert first != second


def test_field_sampled_near_center_is_small():
    # a coherent packet's disruptor vanishes at its centre; sampling close to
    # the centre right after a short advance stays small
    params = PhysicsParams(m=1.0, hbar=1.0, mu=1.0)
    dis = FieldSampledDisruptor(_coherent_on_grid(0.0), HARMONIC, params,
                                pde_dt=0.01, macro_time=0.02)
    assert abs(dis.sample(0.0)) < 1e-3


def test_field_sampled_validates_steps():
    params = PhysicsParams(m=1.0, hbar=1.0, mu=0.5)
    with pytest.raises(ValueError):
        FieldSampledDisruptor(_coherent_on_grid(0.0), HARMONIC, params, pde_dt=-0.1)


def test_non_finite_field_reports_the_learner_step(monkeypatch):
    params = PhysicsParams(m=1.0, hbar=1.0, mu=0.5)
    dis = FieldSampledDisruptor(_coherent_on_grid(-3.0), HARMONIC, params,
                                pde_dt=0.1, macro_time=0.5)
    step, calls = dis._propagator.step, []

    def poisoned(values):
        calls.append(None)
        out = step(values)
        if len(calls) == 3 * 5 + 2:  # inside the sample of update 3
            out[7] = np.nan
        return out

    monkeypatch.setattr(dis._propagator, "step", poisoned)
    with pytest.raises(NumericalError) as err:
        run_learner(-3.0, 0.0, HARMONIC, dis, params, steps=10)
    assert type(err.value) is NumericalError
    assert err.value.step == 3
    assert "non-finite wavefunction" in str(err.value)
