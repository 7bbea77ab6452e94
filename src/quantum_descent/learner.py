"""Discrete learning dynamics over a potential landscape.

Two updates share one arithmetic core:

  classical heavy-ball    u' = beta * u - alpha * dV/dx(x);  x' = x + u'
  quantum learning        u' = beta * u - lam  * dV/dx(x) + Dis(x);  x' = x + u'

with beta = 1 - mu and lam = 1/m.  The gradient is always evaluated at the
current position and the position then moves by the freshly updated velocity;
this ordering makes the mu = 1 harmonic case converge in a single update and is
the convention used everywhere in this package.  With a zero disruptor the two
updates are arithmetically identical.

The update's unit time step is 1; ``time_scale`` rescales the gradient and
disruptor contributions together when a finer notional step is wanted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalError
from .fields import PhysicsParams, Wavefunction
from .hydro import disruptor_at, disruptor_field

DIVERGENCE_LIMIT = 1e6

# finite-difference step for gradients of tabulated potentials
DEFAULT_GRAD_STEP = 1e-6


@dataclass(frozen=True)
class PotentialSpec:
    """A goal function V(x) with its gradient.

    ``evaluate`` and ``gradient`` accept scalars or arrays.  Analytic kinds
    (harmonic, quartic, polynomial) carry exact gradients; tabulated potentials
    differentiate the interpolant by central differences with step ``h``.
    """

    kind: str
    parameters: tuple
    evaluate: Callable[[np.ndarray | float], np.ndarray | float]
    gradient: Callable[[np.ndarray | float], np.ndarray | float]

    @classmethod
    def harmonic(cls, omega: float) -> "PotentialSpec":
        """V(x) = 1/2 omega^2 x^2."""
        if omega <= 0:
            raise ValueError(f"harmonic frequency must be positive, got omega={omega}")
        w2 = float(omega) ** 2
        return cls("harmonic", (float(omega),),
                   lambda x: 0.5 * w2 * np.square(x),
                   lambda x: w2 * x)

    @classmethod
    def quartic(cls, c: float) -> "PotentialSpec":
        """V(x) = 1/4 c x^4."""
        if c <= 0:
            raise ValueError(f"quartic stiffness must be positive, got c={c}")
        c = float(c)
        return cls("quartic", (c,),
                   lambda x: 0.25 * c * np.power(x, 4),
                   lambda x: c * np.power(x, 3))

    @classmethod
    def polynomial(cls, coefficients: Sequence[float]) -> "PotentialSpec":
        """V(x) = sum_k c_k x^k with coefficients in ascending order."""
        coeffs = np.asarray(coefficients, dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("polynomial needs a flat, nonempty coefficient list")
        dcoeffs = np.polynomial.polynomial.polyder(coeffs)
        return cls("polynomial", tuple(coeffs),
                   lambda x: np.polynomial.polynomial.polyval(x, coeffs),
                   lambda x: np.polynomial.polynomial.polyval(x, dcoeffs))

    @classmethod
    def tabulated(cls, xs: Sequence[float], vs: Sequence[float],
                  h: float = DEFAULT_GRAD_STEP) -> "PotentialSpec":
        """Piecewise-linear V from samples; gradient by central differences."""
        xs = np.asarray(xs, dtype=float)
        vs = np.asarray(vs, dtype=float)
        if xs.ndim != 1 or xs.shape != vs.shape or xs.size < 2:
            raise ValueError("tabulated potential needs matching 1-D x and V samples")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("tabulated x samples must be strictly increasing")
        ev = lambda x: np.interp(x, xs, vs)
        return cls("tabulated", (float(h),), ev,
                   lambda x: (ev(np.asarray(x) + h) - ev(np.asarray(x) - h)) / (2.0 * h))


@dataclass(frozen=True)
class LearnerState:
    """One point of the discrete trajectory."""

    t: int = 0
    x: float = 0.0
    u: float = 0.0
    dis_last: float = 0.0


class ZeroDisruptor:
    """Classical limit: the disruptor is identically zero."""

    kind = "zero"

    def sample(self, x: float) -> float:
        return 0.0

    def contains(self, x: float) -> bool:
        return True


class CallbackDisruptor:
    """Disruptor values supplied by an arbitrary callable of position."""

    kind = "callback"

    def __init__(self, fn: Callable[[float], float]):
        self._fn = fn

    def sample(self, x: float) -> float:
        return float(self._fn(x))

    def contains(self, x: float) -> bool:
        return True


class FieldSampledDisruptor:
    """Disruptor sampled from a wavefunction evolved alongside the learner.

    Each ``sample`` call advances the underlying dissipative propagation by one
    macro-step (the learner's unit of time) before evaluating the disruptor
    field at the query point.  The source is stateful and must be owned by
    exactly one run.  At hbar = 0 the disruptor prefactor vanishes identically,
    so the field is neither propagated nor evaluated.
    """

    kind = "field_sampled"

    def __init__(self, psi0: Wavefunction, potential: PotentialSpec, params: PhysicsParams,
                 pde_dt: float = 0.01, macro_time: float = 1.0,
                 scheme: str = "split_step_spectral"):
        if pde_dt <= 0 or macro_time <= 0:
            raise ValueError("pde_dt and macro_time must be positive")
        self.params = params
        self.grid = psi0.grid
        self._values = np.array(psi0.values, dtype=np.complex128)
        self._substeps = max(1, round(macro_time / pde_dt))
        self._propagator = None
        if params.hbar > 0.0:
            from .dynamics import KostinPropagator  # deferred: avoids import cycle

            self._propagator = KostinPropagator(self.grid, potential, params,
                                                dt=macro_time / self._substeps, scheme=scheme)

    def sample(self, x: float) -> float:
        if self.params.hbar == 0.0:
            return 0.0
        for _ in range(self._substeps):
            self._values = self._propagator.step(self._values)
        field = disruptor_field(np.abs(self._values), self.grid, self.params)
        return disruptor_at(field, x)

    def contains(self, x: float) -> bool:
        """Whether ``sample`` can be evaluated at x: the field lives on the grid."""
        return self.params.hbar == 0.0 or self.grid.contains(x)


def momentum_gd_step(state: LearnerState, objective: PotentialSpec,
                     alpha: float, beta: float) -> LearnerState:
    """One heavy-ball update: u' = beta u - alpha dV/dx(x), x' = x + u'."""
    if alpha <= 0:
        raise ValueError(f"learning rate must be positive, got alpha={alpha}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"momentum factor must satisfy 0 <= beta <= 1, got beta={beta}")
    g = float(objective.gradient(state.x))
    if not np.isfinite(g):
        raise NumericalError(f"non-finite gradient {g} at x={state.x}", step=state.t)
    u_new = beta * state.u - alpha * g
    return LearnerState(t=state.t + 1, x=state.x + u_new, u=u_new, dis_last=0.0)


def quantum_learn_step(state: LearnerState, potential: PotentialSpec,
                       dis: "ZeroDisruptor | CallbackDisruptor | FieldSampledDisruptor",
                       params: PhysicsParams, time_scale: float = 1.0) -> LearnerState:
    """One disrupted learning update: u' = beta u - lam dV/dx(x) + Dis(x), x' = x + u'.

    With ``time_scale`` != 1 the gradient and disruptor terms are rescaled
    together; the default reproduces the unit-step update exactly, so a zero
    disruptor makes this bit-for-bit identical to ``momentum_gd_step`` with
    alpha = 1/m and beta = 1 - mu.
    """
    g = float(potential.gradient(state.x))
    if not np.isfinite(g):
        raise NumericalError(f"non-finite gradient {g} at x={state.x}", step=state.t)
    d = float(dis.sample(state.x))
    if time_scale == 1.0:
        u_new = params.beta * state.u - params.lam * g + d
    else:
        u_new = params.beta * state.u + time_scale * (d - params.lam * g)
    return LearnerState(t=state.t + 1, x=state.x + u_new, u=u_new, dis_last=d)


@dataclass
class LearnerRun:
    """Trajectory record of a learning run.

    ``outcome`` is one of "converged" (gradient and velocity both under the
    stopping tolerance), "max_steps", or "diverged" (|x| crossed the guard or
    left the region where the disruptor is defined; records up to the
    offending step are kept).
    """

    t: np.ndarray
    x: np.ndarray
    u: np.ndarray
    V: np.ndarray
    dis: np.ndarray
    outcome: str
    final_state: LearnerState

    @property
    def rows(self) -> np.ndarray:
        return np.column_stack([self.t, self.x, self.u, self.V, self.dis])


def run_learner(x0: float, u0: float, potential: PotentialSpec,
                dis: "ZeroDisruptor | CallbackDisruptor | FieldSampledDisruptor",
                params: PhysicsParams, steps: int, stop_tol: float = 1e-8,
                time_scale: float = 1.0) -> LearnerRun:
    """Iterate the quantum learning update from (x0, u0).

    Stops early once |dV/dx| and |u| both drop below ``stop_tol``; flags
    divergence when |x| exceeds the guard, or leaves the domain of the
    disruptor (the grid of a field-sampled one), instead of raising.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    state = LearnerState(t=0, x=float(x0), u=float(u0), dis_last=0.0)
    rows_t, rows_x, rows_u, rows_v, rows_d = [0.0], [state.x], [state.u], [
        float(potential.evaluate(state.x))], [0.0]
    outcome = "max_steps"
    for _ in range(steps):
        state = quantum_learn_step(state, potential, dis, params, time_scale=time_scale)
        rows_t.append(float(state.t))
        rows_x.append(state.x)
        rows_u.append(state.u)
        rows_v.append(float(potential.evaluate(state.x)))
        rows_d.append(state.dis_last)
        if abs(state.x) > DIVERGENCE_LIMIT or not dis.contains(state.x):
            outcome = "diverged"
            break
        if abs(float(potential.gradient(state.x))) < stop_tol and abs(state.u) < stop_tol:
            outcome = "converged"
            break
    return LearnerRun(np.array(rows_t), np.array(rows_x), np.array(rows_u),
                      np.array(rows_v), np.array(rows_d), outcome, state)


def run_momentum_gd(x0: float, u0: float, objective: PotentialSpec, alpha: float,
                    beta: float, steps: int, stop_tol: float = 1e-8) -> LearnerRun:
    """Classical twin of :func:`run_learner` driven by :func:`momentum_gd_step`."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    state = LearnerState(t=0, x=float(x0), u=float(u0), dis_last=0.0)
    rows_t, rows_x, rows_u, rows_v, rows_d = [0.0], [state.x], [state.u], [
        float(objective.evaluate(state.x))], [0.0]
    outcome = "max_steps"
    for _ in range(steps):
        state = momentum_gd_step(state, objective, alpha, beta)
        rows_t.append(float(state.t))
        rows_x.append(state.x)
        rows_u.append(state.u)
        rows_v.append(float(objective.evaluate(state.x)))
        rows_d.append(0.0)
        if abs(state.x) > DIVERGENCE_LIMIT:
            outcome = "diverged"
            break
        if abs(float(objective.gradient(state.x))) < stop_tol and abs(state.u) < stop_tol:
            outcome = "converged"
            break
    return LearnerRun(np.array(rows_t), np.array(rows_x), np.array(rows_u),
                      np.array(rows_v), np.array(rows_d), outcome, state)
