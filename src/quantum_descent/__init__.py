"""Quantum trajectories as momentum gradient descent.

A 1-D hydrodynamic view of dissipative quantum mechanics: the polar
(amplitude/phase) decomposition of a wavefunction yields density, flow
velocity, and a quantum potential; the trajectory of the density's centre
follows a momentum gradient-descent update whose learning rate and momentum
factor are set by the particle mass and friction, disrupted by an
hbar-dependent field.  A split-step propagator of the dissipative nonlinear
Schrodinger equation and closed-form damped-oscillator solutions provide
independent cross-checks.
"""

from ._version import __version__
from .config import (DisruptorConfig, ExperimentConfig, InitialConfig,
                     OutputConfig, PotentialConfig, RunConfig, SweepConfig, default_config,
                     load_config, parse_config)
from .dynamics import (EvolutionRecord, KostinPropagator,
                       damped_oscillator_closed_form, evolve)
from .errors import ConfigError, NodeDominatedError, NumericalError
from .experiments import ExperimentResult, run_experiment
from .fields import (EPS_NODE, MadelungFields, PhysicsParams, SpatialGrid,
                     Wavefunction, gaussian_packet, norm, polar_decompose)
from .hydro import disruptor_field, quantum_potential, sample_field
from .learner import (FieldSampledDisruptor, LearnerRun, PotentialSpec,
                      ZeroDisruptor, run_learner, run_momentum_gd)

__all__ = [
    "__version__",
    "ConfigError", "NumericalError", "NodeDominatedError",
    "SpatialGrid", "PhysicsParams", "Wavefunction", "MadelungFields",
    "polar_decompose", "gaussian_packet", "norm", "EPS_NODE",
    "quantum_potential", "disruptor_field", "sample_field",
    "PotentialSpec", "LearnerRun", "ZeroDisruptor",
    "FieldSampledDisruptor", "run_learner", "run_momentum_gd",
    "KostinPropagator", "EvolutionRecord", "evolve",
    "damped_oscillator_closed_form",
    "ExperimentConfig", "PotentialConfig", "InitialConfig", "DisruptorConfig", "RunConfig",
    "OutputConfig", "SweepConfig", "parse_config", "load_config",
    "default_config", "ExperimentResult", "run_experiment",
]
