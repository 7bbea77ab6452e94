"""Discrete learning dynamics over a potential landscape.

Two updates share one arithmetic core:

  classical heavy-ball    u' = beta * u - alpha * dV/dx(x);  x' = x + u'
  quantum learning        u' = beta * u - lam  * dV/dx(x) + Dis(x);  x' = x + u'

with beta = 1 - mu and lam = 1/m.  The gradient is always evaluated at the
current position and the position then moves by the freshly updated velocity;
this ordering makes the mu = 1 harmonic case converge in a single update and is
the convention used everywhere in this package.  With a zero disruptor the two
updates are arithmetically identical.  Both run in one loop on plain floats,
:func:`run_learner` and :func:`run_momentum_gd`, which writes the update out
with no call per step but the gradient and a sampled disruptor's: the zero
disruptor is a constant added without a call, and the classical twin adds
-0.0, which changes no bit.  A polynomial's value and gradient are each one
generated straight-line function (:func:`_horner`) doing ``polyval``'s
operations in ``polyval``'s order, so the update's gradient, the ``V``
column and the propagator's potential are ``polyval``'s to the bit.  The
test suite keeps one-update versions of each twin and ``polyval`` as
references they must equal to the bit.

The update's unit time step is 1; ``time_scale`` rescales the gradient and
disruptor contributions together when a finer notional step is wanted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dynamics import KostinPropagator
from .errors import NodeDominatedError, NumericalError
from .fields import PhysicsParams, Wavefunction
from .hydro import NODE, disruptor_field, interpolate, locate_window

DIVERGENCE_LIMIT = 1e6

# finite-difference step for gradients of tabulated potentials
DEFAULT_GRAD_STEP = 1e-6


# coefficients per statement of a generated polynomial: the parser bounds how
# deeply one expression may nest
_HORNER_NESTING = 64


def _horner(coefficients: np.ndarray) -> Callable:
    """numpy's ``polyval`` for ascending coefficients, as one generated
    straight-line function.

    The same operations in the same order as ``polyval`` (``c0 = c[-1] +
    x*0``, then ``c0 = c[-i] + c0*x``), written out as one nested expression
    (``c0 + (c1 + (c2 + x * 0) * x) * x`` for three), so a float x gives a
    Python float and an array gives polyval's elementwise result, both equal
    to polyval's to the bit, without numpy's per-call cost on scalars or a
    loop.  The coefficients are bound by name in the function's namespace,
    never printed into its source, so infinite and NaN ones work; past
    _HORNER_NESTING coefficients the expression continues in a new statement.
    """
    names = [f"c{i}" for i in range(len(coefficients))]
    namespace = dict(zip(names, map(float, coefficients)))
    lines, text = [], f"{names[-1]} + x * 0"
    for i, name in enumerate(reversed(names[:-1]), 1):
        if i % _HORNER_NESTING == 0:
            lines.append(f"    v = {text}\n")
            text = "v"
        text = f"{name} + ({text}) * x"
    source = "def value(x):\n" + "".join(lines) + f"    return {text}\n"
    exec(compile(source, "<polynomial>", "exec"), namespace)
    return namespace["value"]


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


class ZeroDisruptor:
    """Classical limit: the disruptor is identically zero, a ``constant`` the
    learner loop adds without sampling it."""

    constant = 0.0

    def sample(self, x: float) -> float:
        return 0.0

    def contains(self, x: float) -> bool:
        return True


class FieldSampledDisruptor:
    """Disruptor sampled from a wavefunction evolved alongside the learner.

    Each ``sample`` call advances the underlying dissipative propagation by one
    macro-step (the learner's unit of time), in the fewest equal substeps
    ``dt`` of at most ``pde_dt``, before evaluating the disruptor field at
    the query point.  The source is stateful and must be owned by
    exactly one run.  It needs what its propagator needs: hbar > 0 and a
    power-of-two number of grid points (at hbar = 0 the disruptor vanishes
    identically, and :class:`ZeroDisruptor` is that limit).
    """

    def __init__(self, psi0: Wavefunction, potential: PotentialSpec, params: PhysicsParams,
                 pde_dt: float = 0.01, macro_time: float = 1.0):
        if pde_dt <= 0 or macro_time <= 0:
            raise ValueError("pde_dt and macro_time must be positive")
        self.params = params
        self.grid = psi0.grid
        self._values = psi0.values  # read-only; the propagator never writes it
        # the fewest substeps of at most pde_dt; a ratio a few ulps above an
        # integer, as 0.07 / 0.01 is, takes that integer
        self._substeps = max(1, math.ceil(macro_time / pde_dt * (1.0 - 2.0 ** -50)))
        self.dt = macro_time / self._substeps
        self._propagator = KostinPropagator(self.grid, potential, params, dt=self.dt)

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


def _column(j: int) -> property:
    return property(lambda run: run.rows[:, j])


@dataclass
class LearnerRun:
    """Trajectory record of a learning run.

    ``rows`` holds one row per recorded step with the columns t, x, u, V and
    dis; ``t``, ``x``, ``u``, ``V`` and ``dis`` are views of those columns.
    ``outcome`` is one of "converged" (gradient and velocity both under the
    stopping tolerance), "max_steps", or "diverged" (|x| crossed the guard or
    left the region where the disruptor is defined; records up to the
    offending step are kept).
    """

    rows: np.ndarray
    outcome: str

    t, x, u, V, dis = (_column(j) for j in range(5))


def _descend(x0: float, u0: float, potential: PotentialSpec, steps: int, stop_tol: float,
             beta: float, rate: float, time_scale: float, dis) -> LearnerRun:
    """The loop both learners share, on plain floats.

    Each update takes ``u' = beta*u - rate*g + d`` (``beta*u + time_scale*(d
    - rate*g)`` if ``time_scale`` != 1) from the gradient g at x and the
    disruptor value d, then moves x by u'.  A disruptor with a ``constant``
    (a zero) adds it with no call and records ``dis`` as 0.0; any other is
    sampled, and checked with ``contains``, at every step.  The stop test's
    gradient is the next update's, and V is evaluated once over the finished
    trajectory.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    gradient = potential.gradient
    d = getattr(dis, "constant", None)
    sampled, unit = d is None, time_scale == 1.0
    x, u = float(x0), float(u0)
    xs, us, ds = [x], [u], [0.0]
    g = float(gradient(x))
    outcome = "max_steps"
    for t in range(steps):
        if not math.isfinite(g):
            raise NumericalError(f"non-finite gradient {g} at x={x}", step=t)
        if sampled:
            try:
                d = float(dis.sample(x))
            except NumericalError as err:
                raise NumericalError(f"learner update failed at step {t}: {err}", step=t) from err
            ds.append(d)
        u = beta * u - rate * g + d if unit else beta * u + time_scale * (d - rate * g)
        x = x + u
        xs.append(x)
        us.append(u)
        if abs(x) > DIVERGENCE_LIMIT or sampled and not dis.contains(x):
            outcome = "diverged"
            break
        g = float(gradient(x))
        if abs(g) < stop_tol and abs(u) < stop_tol:
            outcome = "converged"
            break
    rows = np.empty((len(xs), 5))
    rows[:, 0] = np.arange(len(xs))
    # a constant disruptor leaves ds at its one 0.0, which fills the column
    rows[:, 1], rows[:, 2], rows[:, 4] = xs, us, ds
    del xs, us, ds  # freed before V's temporaries, which would add to their peak
    rows[:, 3] = potential.evaluate(rows[:, 1])
    return LearnerRun(rows, outcome)


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
    return _descend(x0, u0, potential, steps, stop_tol, params.beta, params.lam, time_scale,
                    dis)


class _NoDisruptor:
    constant = -0.0  # the identity of addition: the classical update adds no term


def run_momentum_gd(x0: float, u0: float, objective: PotentialSpec, alpha: float,
                    beta: float, steps: int, stop_tol: float = 1e-8) -> LearnerRun:
    """Classical twin of :func:`run_learner`: the heavy-ball update with a
    learning rate ``alpha`` and a momentum factor ``beta``."""
    if alpha <= 0:
        raise ValueError(f"learning rate must be positive, got alpha={alpha}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"momentum factor must satisfy 0 <= beta <= 1, got beta={beta}")
    return _descend(x0, u0, objective, steps, stop_tol, beta, alpha, 1.0, _NoDisruptor)
