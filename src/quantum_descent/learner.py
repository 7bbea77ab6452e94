"""Discrete learning dynamics over a potential landscape.

Two updates share one arithmetic core:

  classical heavy-ball    u' = beta * u - alpha * dV/dx(x);  x' = x + u'
  quantum learning        u' = beta * u - lam  * dV/dx(x) + Dis(x);  x' = x + u'

with beta = 1 - mu and lam = 1/m.  The gradient is always evaluated at the
current position and the position then moves by the freshly updated velocity;
this ordering makes the mu = 1 harmonic case converge in a single update and is
the convention used everywhere in this package.  With a zero disruptor the two
updates are arithmetically identical.  Both run in one loop on plain floats,
:func:`run_learner` and :func:`run_momentum_gd`; the test suite keeps one-update
versions of each as references they must equal to the bit.

The update's unit time step is 1; ``time_scale`` rescales the gradient and
disruptor contributions together when a finer notional step is wanted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NodeDominatedError, NumericalError
from .fields import PhysicsParams, Wavefunction
from .hydro import NODE, disruptor_field, interpolate, locate_window

DIVERGENCE_LIMIT = 1e6

# finite-difference step for gradients of tabulated potentials
DEFAULT_GRAD_STEP = 1e-6


def _horner(coefficients: np.ndarray) -> Callable:
    """numpy's ``polyval`` for ascending coefficients, on plain floats.

    The same operations in the same order as ``polyval`` (``c0 = c[-1] + x*0``,
    then ``c0 = c[-i] + c0*x``), so a float x gives a Python float and an
    array gives polyval's elementwise result, both equal to polyval's to the
    bit, without numpy's per-call cost on scalars.
    """
    *rest, last = (float(c) for c in coefficients)
    rest = tuple(reversed(rest))

    def value(x):
        c0 = last + x * 0
        for c in rest:
            c0 = c + c0 * x
        return c0

    return value


def _polyder(c: np.ndarray) -> np.ndarray:
    """numpy's ``polyder`` to the bit, without importing numpy.polynomial."""
    return c[1:] * np.arange(1, c.size) if c.size > 1 else c[:1] * 0


@dataclass(frozen=True)
class PotentialSpec:
    """A goal function V(x) with its gradient.

    ``evaluate`` and ``gradient`` accept scalars or arrays.  Analytic kinds
    (harmonic, quartic, polynomial) carry exact gradients; tabulated potentials
    differentiate the interpolant by central differences with step ``h``.
    """

    evaluate: Callable[[np.ndarray | float], np.ndarray | float]
    gradient: Callable[[np.ndarray | float], np.ndarray | float]

    @classmethod
    def harmonic(cls, omega: float) -> "PotentialSpec":
        """V(x) = 1/2 omega^2 x^2."""
        if omega <= 0:
            raise ValueError(f"harmonic frequency must be positive, got omega={omega}")
        w2 = float(omega) ** 2
        return cls(lambda x: 0.5 * w2 * np.square(x), lambda x: w2 * x)

    @classmethod
    def quartic(cls, c: float) -> "PotentialSpec":
        """V(x) = 1/4 c x^4, the polynomial [0, 0, 0, 0, c/4]."""
        if c <= 0:
            raise ValueError(f"quartic stiffness must be positive, got c={c}")
        return cls.polynomial([0.0, 0.0, 0.0, 0.0, float(c) / 4.0])

    @classmethod
    def polynomial(cls, coefficients: Sequence[float]) -> "PotentialSpec":
        """V(x) = sum_k c_k x^k with coefficients in ascending order."""
        coeffs = np.asarray(coefficients, dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("polynomial needs a flat, nonempty coefficient list")
        return cls(_horner(coeffs), _horner(_polyder(coeffs)))

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
        if not h > 0:
            raise ValueError(f"tabulated gradient step must be positive, got h={h}")
        ev = lambda x: np.interp(x, xs, vs)
        return cls(ev, lambda x: (ev(np.asarray(x) + h) - ev(np.asarray(x) - h)) / (2.0 * h))


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


class FieldSampledDisruptor:
    """Disruptor sampled from a wavefunction evolved alongside the learner.

    Each ``sample`` call advances the underlying dissipative propagation by one
    macro-step (the learner's unit of time) before evaluating the disruptor
    field at the query point.  The source is stateful and must be owned by
    exactly one run.  It needs what its propagator needs: hbar > 0 and a
    power-of-two number of grid points (at hbar = 0 the disruptor vanishes
    identically, and :class:`ZeroDisruptor` is that limit).
    """

    kind = "field_sampled"

    def __init__(self, psi0: Wavefunction, potential: PotentialSpec, params: PhysicsParams,
                 pde_dt: float = 0.01, macro_time: float = 1.0):
        from .dynamics import KostinPropagator  # deferred: avoids import cycle

        if pde_dt <= 0 or macro_time <= 0:
            raise ValueError("pde_dt and macro_time must be positive")
        self.params = params
        self.grid = psi0.grid
        self._values = np.array(psi0.values, dtype=np.complex128)
        self._substeps = max(1, round(macro_time / pde_dt))
        self._propagator = KostinPropagator(self.grid, potential, params,
                                            dt=macro_time / self._substeps)

    def sample(self, x: float) -> float:
        try:
            for _ in range(self._substeps):
                self._values = self._propagator.step(self._values)
        except NodeDominatedError:
            # NaN and infinity fall below the density floor, so a non-finite
            # field reaches the friction substep as a node-dominated one
            self._require_finite()
            raise
        self._require_finite()
        window, frac = locate_window(self.grid, x)
        dis = disruptor_field(np.abs(self._values[window]), self.grid, self.params)
        return float(interpolate(dis[NODE], dis[NODE + 1], frac))

    def _require_finite(self) -> None:
        bad = self._values.size - int(np.count_nonzero(np.isfinite(self._values)))
        if bad:
            raise NumericalError(f"non-finite wavefunction in the field-sampled disruptor: "
                                 f"{bad} of {self._values.size} points are NaN or infinite")

    def contains(self, x: float) -> bool:
        """Whether ``sample`` can be evaluated at x: the field lives on the grid."""
        return self.grid.contains(x)


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


def _descend(x0: float, u0: float, potential: PotentialSpec, steps: int,
             stop_tol: float, update: Callable, contains: Callable) -> LearnerRun:
    """The loop both learners share, on plain floats.

    ``update(x, u, g)`` returns the new velocity and the disruptor value from
    the gradient g at x; the position then moves by the new velocity.  The
    stop test's gradient is the next update's, and V is evaluated once over
    the finished trajectory.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    gradient = potential.gradient
    x, u = float(x0), float(u0)
    xs, us, ds = [x], [u], [0.0]
    g = float(gradient(x))
    outcome = "max_steps"
    for t in range(steps):
        if not math.isfinite(g):
            raise NumericalError(f"non-finite gradient {g} at x={x}", step=t)
        try:
            u, d = update(x, u, g)
        except NumericalError as err:
            raise NumericalError(f"learner update failed at step {t}: {err}", step=t) from err
        x = x + u
        xs.append(x)
        us.append(u)
        ds.append(d)
        if abs(x) > DIVERGENCE_LIMIT or not contains(x):
            outcome = "diverged"
            break
        g = float(gradient(x))
        if abs(g) < stop_tol and abs(u) < stop_tol:
            outcome = "converged"
            break
    x_all = np.array(xs)
    return LearnerRun(np.arange(x_all.size, dtype=float), x_all, np.array(us),
                      np.asarray(potential.evaluate(x_all), dtype=float), np.array(ds),
                      outcome, LearnerState(t=x_all.size - 1, x=x, u=u, dis_last=ds[-1]))


def run_learner(x0: float, u0: float, potential: PotentialSpec,
                dis: "ZeroDisruptor | FieldSampledDisruptor",
                params: PhysicsParams, steps: int, stop_tol: float = 1e-8,
                time_scale: float = 1.0) -> LearnerRun:
    """Iterate the quantum learning update from (x0, u0).

    Stops early once |dV/dx| and |u| both drop below ``stop_tol``; flags
    divergence when |x| exceeds the guard, or leaves the domain of the
    disruptor (the grid of a field-sampled one), instead of raising.  Any
    object with ``sample(x)`` and ``contains(x)`` serves as ``dis``.
    """
    beta, lam, sample = params.beta, params.lam, dis.sample
    if time_scale == 1.0:
        def update(x, u, g):
            d = float(sample(x))
            return beta * u - lam * g + d, d
    else:
        def update(x, u, g):
            d = float(sample(x))
            return beta * u + time_scale * (d - lam * g), d
    return _descend(x0, u0, potential, steps, stop_tol, update, dis.contains)


def run_momentum_gd(x0: float, u0: float, objective: PotentialSpec, alpha: float,
                    beta: float, steps: int, stop_tol: float = 1e-8) -> LearnerRun:
    """Classical twin of :func:`run_learner`: the heavy-ball update with a
    learning rate ``alpha`` and a momentum factor ``beta``."""
    if alpha <= 0:
        raise ValueError(f"learning rate must be positive, got alpha={alpha}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"momentum factor must satisfy 0 <= beta <= 1, got beta={beta}")

    def update(x, u, g):
        return beta * u - alpha * g, 0.0

    return _descend(x0, u0, objective, steps, stop_tol, update, ZeroDisruptor().contains)
