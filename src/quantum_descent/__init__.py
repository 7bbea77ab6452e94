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
                     OutputConfig, RunConfig, SweepConfig, default_config,
                     load_config, parse_config)
from .dynamics import (CoherentStateParams, EvolutionRecord, KostinPropagator,
                       PropagatorConfig, coherent_state,
                       damped_oscillator_closed_form, evolve)
from .errors import (ConfigError, NodeDominatedError, NodeDominatedWarning,
                     NumericalError)
from .experiments import ExperimentResult, run_experiment
from .fields import (EPS_NODE, MadelungFields, PhysicsParams, SpatialGrid,
                     Wavefunction, build_grid, expectation_momentum,
                     expectation_position, gaussian_packet, norm, plane_wave,
                     polar_decompose)
from .hydro import disruptor_field, quantum_potential, sample_field
from .learner import (FieldSampledDisruptor, LearnerRun, LearnerState,
                      PotentialSpec, ZeroDisruptor, run_learner, run_momentum_gd)

__all__ = [
    "__version__",
    "ConfigError", "NumericalError", "NodeDominatedError", "NodeDominatedWarning",
    "SpatialGrid", "PhysicsParams", "Wavefunction", "MadelungFields",
    "build_grid", "polar_decompose", "gaussian_packet", "plane_wave", "norm",
    "expectation_position", "expectation_momentum", "EPS_NODE",
    "quantum_potential", "disruptor_field", "sample_field",
    "PotentialSpec", "LearnerState", "LearnerRun", "ZeroDisruptor",
    "FieldSampledDisruptor", "run_learner", "run_momentum_gd",
    "PropagatorConfig", "CoherentStateParams", "KostinPropagator",
    "EvolutionRecord", "coherent_state", "evolve",
    "damped_oscillator_closed_form",
    "ExperimentConfig", "InitialConfig", "DisruptorConfig", "RunConfig",
    "OutputConfig", "SweepConfig", "parse_config", "load_config",
    "default_config", "ExperimentResult", "run_experiment",
]
