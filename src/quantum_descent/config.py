"""Experiment configuration: strict YAML parsing, defaults, validation.

Configs are nested key-value documents with sections mirroring the run
structure (grid / physics / potential / initial / disruptor / run / output,
plus sweep for parameter scans).  Parsing is strict: unknown keys anywhere are
rejected, and every physical parameter is validated before a run starts.  The
fully resolved values are echoed into the run metadata so that a config can be
reconstructed from its outputs alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError
from .fields import PhysicsParams, SpatialGrid, build_grid
from .learner import PotentialSpec

EXPERIMENTS = ("learn", "evolve", "compare", "figure1", "sweep")
INITIAL_KINDS = ("gaussian", "coherent", "custom")
DISRUPTOR_KINDS = ("zero", "field_sampled")
OUTPUT_FORMATS = ("csv", "json")

_GRID_DEFAULTS = {"x_min": -20.0, "x_max": 20.0, "n": 2048}
_PHYSICS_DEFAULTS = {"m": 1.0, "hbar": 1.0, "mu": 1.0}
_POTENTIAL_DEFAULTS = {"kind": "harmonic"}
_INITIAL_DEFAULTS = {"kind": "coherent", "x0": -5.0, "u0": 0.0}
_DISRUPTOR_DEFAULTS = {"kind": "zero"}
_OUTPUT_DEFAULTS = {"directory": "out", "format": "csv"}

# run defaults vary with the experiment: the flagship figure runs a short
# coarse evolution, plain evolve favours accuracy over speed
_RUN_DEFAULTS = {
    "steps": 200,
    "stop_tol": 1e-8,
    "t_final": 20.0,
    "dt": 0.02,
    "snapshot_every": 100,
    "time_scale": 1.0,
}
_RUN_OVERRIDES = {
    "evolve": {"t_final": 10.0, "dt": 1e-3, "snapshot_every": 1000},
}

_POTENTIAL_KEYS = {
    "harmonic": {"kind", "omega"},
    "quartic": {"kind", "c"},
    "polynomial": {"kind", "coefficients"},
    "tabulated": {"kind", "x", "V", "h"},
}
_INITIAL_KEYS = {"kind", "x0", "u0", "p0", "sigma", "path"}
_DISRUPTOR_KEYS = {"kind", "pde_dt"}
# grid.periodic and run.scheme are still accepted because existing configs
# (the benchmark's among them) name them; each has one legal value (a periodic
# grid, the split step), and nothing after the parser reads them
_GRID_KEYS = set(_GRID_DEFAULTS) | {"periodic"}
_RUN_KEYS = set(_RUN_DEFAULTS) | {"scheme"}
_OUTPUT_KEYS = {"directory", "format"}
_SWEEP_KEYS = {"parameter", "values", "experiment"}
_TOP_KEYS = {"experiment", "grid", "physics", "potential", "initial",
             "disruptor", "run", "sweep", "output"}

_SWEEPABLE = {
    "physics.m", "physics.hbar", "physics.mu",
    "potential.omega", "potential.c",
    "initial.x0", "initial.u0",
}


@dataclass(frozen=True)
class InitialConfig:
    kind: str = "coherent"
    x0: float = -5.0
    u0: float = 0.0  # velocity; momentum follows as p0 = m * u0
    sigma: float | None = None
    path: str | None = None


@dataclass(frozen=True)
class DisruptorConfig:
    kind: str = "zero"
    pde_dt: float = 0.01  # propagator substep of the field_sampled disruptor


@dataclass(frozen=True)
class RunConfig:
    steps: int = 200
    stop_tol: float = 1e-8
    t_final: float = 20.0
    dt: float = 0.02
    snapshot_every: int = 100
    time_scale: float = 1.0


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    format: str = "csv"


@dataclass(frozen=True)
class SweepConfig:
    parameter: str
    values: tuple
    experiment: str = "learn"


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    grid: SpatialGrid
    physics: PhysicsParams
    potential: dict
    initial: InitialConfig
    disruptor: DisruptorConfig
    run: RunConfig
    output: OutputConfig
    sweep: SweepConfig | None = None

    def build_potential(self) -> PotentialSpec:
        return _build_potential(self.potential)

    @property
    def p0(self) -> float:
        """Initial packet momentum, p0 = m * u0."""
        return self.physics.m * self.initial.u0

    def effective_dict(self) -> dict:
        """Every effective value, suitable for re-running the experiment."""
        out = {
            "experiment": self.experiment,
            "grid": {"x_min": self.grid.x_min, "x_max": self.grid.x_max,
                     "n": self.grid.n},
            "physics": {"m": self.physics.m, "hbar": self.physics.hbar,
                        "mu": self.physics.mu},
            "potential": dict(self.potential),
            "initial": {"kind": self.initial.kind, "x0": self.initial.x0,
                        "u0": self.initial.u0, "sigma": self.initial.sigma,
                        "path": self.initial.path},
            "disruptor": {"kind": self.disruptor.kind, "pde_dt": self.disruptor.pde_dt},
            "run": {"steps": self.run.steps, "stop_tol": self.run.stop_tol,
                    "t_final": self.run.t_final, "dt": self.run.dt,
                    "snapshot_every": self.run.snapshot_every,
                    "time_scale": self.run.time_scale},
            "output": {"directory": self.output.directory, "format": self.output.format},
        }
        if self.sweep is not None:
            out["sweep"] = {"parameter": self.sweep.parameter,
                            "values": list(self.sweep.values),
                            "experiment": self.sweep.experiment}
        return out


def _require_mapping(obj, where: str) -> dict:
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ConfigError(f"section '{where}' must be a mapping, got {type(obj).__name__}")
    return obj


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown key '{unknown[0]}' in section '{where}'")


def _as_float(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{where}' must be a number, got {value!r}")
    v = float(value)
    if not np.isfinite(v):
        raise ConfigError(f"'{where}' must be finite, got {value!r}")
    return v


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{where}' must be an integer, got {value!r}")
    return int(value)


def _as_str(value, where: str, choices: tuple | None = None) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"'{where}' must be a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"'{where}' must be one of {choices}, got {value!r}")
    return value


def _build_potential(pot: dict) -> PotentialSpec:
    kind = pot["kind"]
    try:
        if kind == "harmonic":
            return PotentialSpec.harmonic(pot["omega"])
        if kind == "quartic":
            return PotentialSpec.quartic(pot["c"])
        if kind == "polynomial":
            return PotentialSpec.polynomial(pot["coefficients"])
        return PotentialSpec.tabulated(pot["x"], pot["V"], h=pot.get("h", 1e-6))
    except ValueError as err:
        raise ConfigError(f"potential: {err}") from err


def _parse_potential(section: dict) -> dict:
    kind = _as_str(section.get("kind", _POTENTIAL_DEFAULTS["kind"]), "potential.kind",
                   tuple(_POTENTIAL_KEYS))
    _reject_unknown(section, _POTENTIAL_KEYS[kind], "potential")
    pot: dict = {"kind": kind}
    if kind == "harmonic":
        pot["omega"] = _as_float(section.get("omega", 1.0), "potential.omega")
    elif kind == "quartic":
        pot["c"] = _as_float(section.get("c", 1.0), "potential.c")
    elif kind == "polynomial":
        coeffs = section.get("coefficients")
        if not isinstance(coeffs, list) or not coeffs:
            raise ConfigError("'potential.coefficients' must be a nonempty list")
        pot["coefficients"] = [_as_float(c, "potential.coefficients") for c in coeffs]
    else:  # tabulated
        for key in ("x", "V"):
            if not isinstance(section.get(key), list):
                raise ConfigError(f"'potential.{key}' must be a list for tabulated potentials")
        pot["x"] = [_as_float(v, "potential.x") for v in section["x"]]
        pot["V"] = [_as_float(v, "potential.V") for v in section["V"]]
        pot["h"] = _as_float(section.get("h", 1e-6), "potential.h")
    _build_potential(pot)  # validate parameter invariants now
    return pot


def parse_config(text: str, experiment: str | None = None) -> ExperimentConfig:
    """Parse and validate a YAML config document.

    ``experiment`` supplies the tag when the document omits it (the CLI passes
    its subcommand); a document tag that contradicts it is an error.
    """
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as err:
        raise ConfigError(f"config syntax error: {err}") from err
    raw = _require_mapping(raw, "top level")
    _reject_unknown(raw, _TOP_KEYS, "top level")

    tag = raw.get("experiment", experiment)
    if tag is None:
        raise ConfigError("missing 'experiment' tag and no subcommand default given")
    tag = _as_str(tag, "experiment", EXPERIMENTS)
    if experiment is not None and tag != experiment:
        raise ConfigError(f"config experiment '{tag}' contradicts requested '{experiment}'")

    grid_sec = {**_GRID_DEFAULTS, **_require_mapping(raw.get("grid"), "grid")}
    _reject_unknown(grid_sec, _GRID_KEYS, "grid")
    if grid_sec.get("periodic", True) is not True:
        raise ConfigError(f"'grid.periodic' must be true, got {grid_sec['periodic']!r}: the "
                          "grid is periodic, and open grids are no longer in the package")
    try:
        grid = build_grid(_as_float(grid_sec["x_min"], "grid.x_min"),
                          _as_float(grid_sec["x_max"], "grid.x_max"),
                          _as_int(grid_sec["n"], "grid.n"))
    except ValueError as err:
        raise ConfigError(f"grid: {err}") from err

    phys_sec = {**_PHYSICS_DEFAULTS, **_require_mapping(raw.get("physics"), "physics")}
    _reject_unknown(phys_sec, set(_PHYSICS_DEFAULTS), "physics")
    try:
        physics = PhysicsParams(m=_as_float(phys_sec["m"], "physics.m"),
                                hbar=_as_float(phys_sec["hbar"], "physics.hbar"),
                                mu=_as_float(phys_sec["mu"], "physics.mu"))
    except ValueError as err:
        raise ConfigError(f"physics: {err}") from err

    pot_sec = {**_POTENTIAL_DEFAULTS, **_require_mapping(raw.get("potential"), "potential")}
    potential = _parse_potential(pot_sec)

    init_sec = _require_mapping(raw.get("initial"), "initial")
    _reject_unknown(init_sec, _INITIAL_KEYS, "initial")
    kind = _as_str(init_sec.get("kind", _INITIAL_DEFAULTS["kind"]), "initial.kind",
                   INITIAL_KINDS)
    if "u0" in init_sec and "p0" in init_sec:
        raise ConfigError("give either 'initial.u0' or 'initial.p0', not both")
    u0 = _INITIAL_DEFAULTS["u0"]
    if "u0" in init_sec:
        u0 = _as_float(init_sec["u0"], "initial.u0")
    elif "p0" in init_sec:
        u0 = _as_float(init_sec["p0"], "initial.p0") / physics.m
    sigma = init_sec.get("sigma")
    if sigma is not None:
        sigma = _as_float(sigma, "initial.sigma")
        if sigma <= 0:
            raise ConfigError(f"'initial.sigma' must be positive, got {sigma}")
    path = init_sec.get("path")
    if path is not None:
        path = _as_str(path, "initial.path")
    if kind == "custom" and path is None:
        raise ConfigError("'initial.path' is required for a custom initial state")
    if kind == "coherent" and sigma is not None:
        raise ConfigError(f"'initial.sigma': a coherent state has the trap's ground-state "
                          f"width and takes none, got sigma={sigma}; "
                          f"use kind gaussian for another width")
    initial = InitialConfig(kind=kind,
                            x0=_as_float(init_sec.get("x0", _INITIAL_DEFAULTS["x0"]),
                                         "initial.x0"),
                            u0=u0, sigma=sigma, path=path)

    dis_sec = {**_DISRUPTOR_DEFAULTS, **_require_mapping(raw.get("disruptor"), "disruptor")}
    _reject_unknown(dis_sec, _DISRUPTOR_KEYS, "disruptor")
    pde_dt = dis_sec.get("pde_dt")
    pde_dt = (DisruptorConfig.pde_dt if pde_dt is None
              else _as_float(pde_dt, "disruptor.pde_dt"))
    if pde_dt <= 0:
        raise ConfigError(f"'disruptor.pde_dt' must be positive, got {pde_dt}")
    disruptor = DisruptorConfig(kind=_as_str(dis_sec["kind"], "disruptor.kind",
                                             DISRUPTOR_KINDS),
                                pde_dt=pde_dt)

    run_defaults = {**_RUN_DEFAULTS, **_RUN_OVERRIDES.get(tag, {})}
    run_sec = {**run_defaults, **_require_mapping(raw.get("run"), "run")}
    _reject_unknown(run_sec, _RUN_KEYS, "run")
    steps = _as_int(run_sec["steps"], "run.steps")
    if steps < 1:
        raise ConfigError(f"'run.steps' must be >= 1, got {steps}")
    stop_tol = _as_float(run_sec["stop_tol"], "run.stop_tol")
    if stop_tol <= 0:
        raise ConfigError(f"'run.stop_tol' must be positive, got {stop_tol}")
    t_final = _as_float(run_sec["t_final"], "run.t_final")
    if t_final < 0:
        raise ConfigError(f"'run.t_final' must be nonnegative, got {t_final}")
    dt = _as_float(run_sec["dt"], "run.dt")
    if dt <= 0:
        raise ConfigError(f"'run.dt' must be positive, got {dt}")
    snapshot_every = _as_int(run_sec["snapshot_every"], "run.snapshot_every")
    if snapshot_every < 1:
        raise ConfigError(f"'run.snapshot_every' must be >= 1, got {snapshot_every}")
    if "scheme" in run_sec:
        scheme = _as_str(run_sec["scheme"], "run.scheme")
        if scheme != "split_step_spectral":
            raise ConfigError(f"'run.scheme' must be 'split_step_spectral', got {scheme!r}: "
                              "the split step is the only propagator, and the "
                              "Crank-Nicolson scheme is no longer in the package")
    time_scale = _as_float(run_sec["time_scale"], "run.time_scale")
    if time_scale <= 0:
        raise ConfigError(f"'run.time_scale' must be positive, got {time_scale}")
    run = RunConfig(steps=steps, stop_tol=stop_tol, t_final=t_final, dt=dt,
                    snapshot_every=snapshot_every, time_scale=time_scale)

    out_sec = {**_OUTPUT_DEFAULTS, **_require_mapping(raw.get("output"), "output")}
    _reject_unknown(out_sec, _OUTPUT_KEYS, "output")
    output = OutputConfig(directory=_as_str(out_sec["directory"], "output.directory"),
                          format=_as_str(out_sec["format"], "output.format", OUTPUT_FORMATS))

    sweep = None
    if tag == "sweep":
        sweep_sec = _require_mapping(raw.get("sweep"), "sweep")
        if not sweep_sec:
            raise ConfigError("sweep experiments need a 'sweep' section")
        _reject_unknown(sweep_sec, _SWEEP_KEYS, "sweep")
        parameter = _as_str(sweep_sec.get("parameter", ""), "sweep.parameter")
        if parameter not in _SWEEPABLE:
            raise ConfigError(f"'sweep.parameter' must be one of {sorted(_SWEEPABLE)}, "
                              f"got {parameter!r}")
        values = sweep_sec.get("values")
        if not isinstance(values, list) or not values:
            raise ConfigError("'sweep.values' must be a nonempty list")
        values = tuple(_as_float(v, "sweep.values") for v in values)
        sub = _as_str(sweep_sec.get("experiment", "learn"), "sweep.experiment",
                      ("learn", "evolve", "compare", "figure1"))
        sweep = SweepConfig(parameter=parameter, values=values, experiment=sub)
    elif "sweep" in raw:
        raise ConfigError("a 'sweep' section is only allowed for sweep experiments")

    return ExperimentConfig(experiment=tag, grid=grid, physics=physics,
                            potential=potential, initial=initial, disruptor=disruptor,
                            run=run, output=output, sweep=sweep)


def load_config(path: str | Path, experiment: str | None = None) -> ExperimentConfig:
    """Read and parse a config file."""
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    return parse_config(text, experiment=experiment)


def default_config(experiment: str) -> ExperimentConfig:
    """The all-defaults config for an experiment tag."""
    return parse_config(f"experiment: {experiment}\n")
