"""Experiment configuration: strict YAML parsing, defaults, validation.

Configs are nested key-value documents with sections mirroring the run
structure (grid / physics / potential / initial / disruptor / run / output,
plus sweep for parameter scans).  Each section's dataclass is its schema: a
field names a key, its annotation the type the value is coerced to (float,
int, str, or a tuple of floats), its default the value of an absent key, and
its metadata the one bound or set of choices the value must meet.  Parsing is
strict: unknown keys anywhere are rejected, and every physical parameter is
validated before a run starts.  The fully resolved values are echoed into the
run metadata so that a config can be reconstructed from its outputs alone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cache
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError
from .fields import PhysicsParams, SpatialGrid
from .learner import DEFAULT_GRAD_STEP, PotentialSpec
from .output import OUTPUT_FORMATS

EXPERIMENTS = ("learn", "evolve", "compare", "figure1", "sweep")
INITIAL_KINDS = ("gaussian", "coherent", "custom")
DISRUPTOR_KINDS = ("zero", "field_sampled")

# run defaults vary with the experiment: the flagship figure runs a short
# coarse evolution, plain evolve favours accuracy over speed
_RUN_OVERRIDES = {
    "evolve": {"t_final": 10.0, "dt": 1e-3, "snapshot_every": 1000},
}

_SWEEPABLE = {
    "physics.m", "physics.hbar", "physics.mu",
    "potential.omega", "potential.c",
    "initial.x0", "initial.u0",
}


def _set_sweep_value(cfg: ExperimentConfig, parameter: str, value: float) -> ExperimentConfig:
    """``cfg`` with the key that ``parameter`` (one of ``_SWEEPABLE``) names set to ``value``."""
    section, key = parameter.split(".", 1)
    old = getattr(cfg, section)
    if not hasattr(old, key):
        raise ConfigError(f"sweep parameter {parameter} does not apply to a "
                          f"{old.kind} potential")
    try:
        return replace(cfg, **{section: replace(old, **{key: value})})
    except ValueError as err:
        raise ConfigError(f"sweep value {value} for {parameter}: {err}") from err


class _Loader(yaml.SafeLoader):
    """YAML 1.1's safe loader, also reading as a float a plain scalar with an
    exponent that YAML 1.1 leaves a string: one without a dot (1e-8), or with
    a dot and an unsigned exponent (1.5e2, .5e2, 1.e2)."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))


def _key(default, **check):
    """A schema field: the key's default, and its ``bound`` or ``choices``."""
    return field(default=default, metadata=check)


@dataclass(frozen=True)
class PotentialConfig:
    """The goal function V.  Each kind is a subclass whose fields after
    ``kind`` are the arguments, in order, of the PotentialSpec constructor of
    that name; ``spec`` is built from them, and so checked, on construction."""

    kind: str = "harmonic"
    spec: PotentialSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        args = (getattr(self, f.name) for f in _schema(type(self))[1:])
        try:
            object.__setattr__(self, "spec", getattr(PotentialSpec, self.kind)(*args))
        except ValueError as err:
            raise ConfigError(f"potential: {err}") from err


@dataclass(frozen=True)
class HarmonicConfig(PotentialConfig):
    omega: float = 1.0


@dataclass(frozen=True)
class QuarticConfig(PotentialConfig):
    c: float = 1.0


@dataclass(frozen=True)
class PolynomialConfig(PotentialConfig):
    coefficients: tuple = ()


@dataclass(frozen=True)
class TabulatedConfig(PotentialConfig):
    x: tuple = ()
    V: tuple = ()
    h: float = DEFAULT_GRAD_STEP


_POTENTIALS = {"harmonic": HarmonicConfig, "quartic": QuarticConfig,
               "polynomial": PolynomialConfig, "tabulated": TabulatedConfig}


@dataclass(frozen=True)
class InitialConfig:
    kind: str = _key("coherent", choices=INITIAL_KINDS)
    x0: float = -5.0
    u0: float = 0.0  # velocity; momentum follows as p0 = m * u0
    sigma: float | None = _key(None, bound="positive")
    path: str | None = None


@dataclass(frozen=True)
class DisruptorConfig:
    kind: str = _key("zero", choices=DISRUPTOR_KINDS)
    # propagator substep of the field_sampled disruptor
    pde_dt: float = _key(0.01, bound="positive")


@dataclass(frozen=True)
class RunConfig:
    steps: int = _key(200, bound=">= 1")
    stop_tol: float = _key(1e-8, bound="positive")
    t_final: float = _key(20.0, bound="nonnegative")
    dt: float = _key(0.02, bound="positive")
    snapshot_every: int = _key(100, bound=">= 1")
    time_scale: float = _key(1.0, bound="positive")


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    format: str = _key("csv", choices=OUTPUT_FORMATS)


@dataclass(frozen=True)
class SweepConfig:
    """A sweep names its parameter and values: the empty defaults fail their
    checks, so a section without them is rejected naming the key."""

    parameter: str = _key("", choices=sorted(_SWEEPABLE))
    values: tuple = ()
    experiment: str = _key("learn", choices=("learn", "evolve", "compare", "figure1"))


@cache
def _schema(cls) -> tuple:
    """The fields of a config dataclass that name its keys."""
    return tuple(f for f in fields(cls) if f.init)


def _echo(section) -> dict:
    """A section's keys and values; a tuple becomes a list, which YAML can dump."""
    values = {f.name: getattr(section, f.name) for f in _schema(type(section))}
    return {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    grid: SpatialGrid
    physics: PhysicsParams
    potential: PotentialConfig
    initial: InitialConfig
    disruptor: DisruptorConfig
    run: RunConfig
    output: OutputConfig
    sweep: SweepConfig | None = None

    @property
    def p0(self) -> float:
        """Initial packet momentum, p0 = m * u0."""
        return self.physics.m * self.initial.u0

    def sweep_points(self) -> list:
        """The configs of a sweep's points: its sub-experiment at each value, in order."""
        base = replace(self, experiment=self.sweep.experiment, sweep=None)
        return [_set_sweep_value(base, self.sweep.parameter, v) for v in self.sweep.values]

    def effective_dict(self) -> dict:
        """Every effective value, suitable for re-running the experiment."""
        out = {}
        for f in _schema(ExperimentConfig):
            value = getattr(self, f.name)
            if is_dataclass(value):
                out[f.name] = _echo(value)
            elif value is not None:
                out[f.name] = value
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


def _as_str(value, where: str, choices=None) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"'{where}' must be a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"'{where}' must be one of {choices}, got {value!r}")
    return value


def _as_floats(value, where: str) -> tuple:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"'{where}' must be a nonempty list")
    return tuple(_as_float(v, where) for v in value)


_COERCE = {"float": _as_float, "int": _as_int, "tuple": _as_floats}
_BOUNDS = {
    "positive": lambda v: v > 0,
    "nonnegative": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
}


def _section(raw: dict, name: str, schema, extra: tuple = ()) -> dict:
    """Section ``name`` of the document; a key that is neither a field of
    ``schema`` nor in ``extra`` is an error."""
    section = _require_mapping(raw.get(name), name)
    _reject_unknown(section, {f.name for f in _schema(schema)} | set(extra), name)
    return section


def _check(f, value, where: str):
    """``value`` for the schema field ``f``, coerced to the field's type and
    checked against its bound or choices; only where the default is None may
    it be None."""
    if value is None and f.default is None:
        return None
    kind = f.type.removesuffix(" | None")
    if kind == "str":
        return _as_str(value, where, f.metadata.get("choices"))
    value = _COERCE[kind](value, where)
    bound = f.metadata.get("bound")
    if bound is not None and not _BOUNDS[bound](value):
        raise ConfigError(f"'{where}' must be {bound}, got {value}")
    return value


def _values(schema, section: dict, name: str, defaults: dict | None = None) -> dict:
    """The checked value of each field of ``schema``, in field order: the
    section's, or else the default, ``defaults`` before the field's own."""
    defaults = defaults or {}
    return {f.name: _check(f, section.get(f.name, defaults.get(f.name, f.default)),
                           f"{name}.{f.name}")
            for f in _schema(schema)}


def parse_config(text: str, experiment: str | None = None) -> ExperimentConfig:
    """Parse and validate a YAML config document.

    ``experiment`` supplies the tag when the document omits it (the CLI passes
    its subcommand); a document tag that contradicts it is an error.
    """
    try:
        raw = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as err:
        raise ConfigError(f"config syntax error: {err}") from err
    raw = _require_mapping(raw, "top level")
    _reject_unknown(raw, {f.name for f in _schema(ExperimentConfig)}, "top level")

    tag = raw.get("experiment", experiment)
    if tag is None:
        raise ConfigError("missing 'experiment' tag and no subcommand default given")
    tag = _as_str(tag, "experiment", EXPERIMENTS)
    if experiment is not None and tag != experiment:
        raise ConfigError(f"config experiment '{tag}' contradicts requested '{experiment}'")

    # grid.periodic and run.scheme are still accepted because existing configs
    # (the benchmark's among them) name them; each has one legal value (a
    # periodic grid, the split step), and nothing after the parser reads them
    grid_sec = _section(raw, "grid", SpatialGrid, extra=("periodic",))
    if grid_sec.get("periodic", True) is not True:
        raise ConfigError(f"'grid.periodic' must be true, got {grid_sec['periodic']!r}: the "
                          "grid is periodic, and open grids are no longer in the package")
    try:
        grid = SpatialGrid(**_values(SpatialGrid, grid_sec, "grid"))
    except ValueError as err:
        raise ConfigError(f"grid: {err}") from err

    phys_sec = _section(raw, "physics", PhysicsParams)
    try:
        physics = PhysicsParams(**_values(PhysicsParams, phys_sec, "physics"))
    except ValueError as err:
        raise ConfigError(f"physics: {err}") from err

    pot_sec = _require_mapping(raw.get("potential"), "potential")
    kind = _as_str(pot_sec.get("kind", PotentialConfig.kind), "potential.kind", tuple(_POTENTIALS))
    schema = _POTENTIALS[kind]
    potential = schema(**_values(schema, _section(raw, "potential", schema), "potential"))

    init = _values(InitialConfig, _section(raw, "initial", InitialConfig), "initial")
    if init["kind"] == "custom" and init["path"] is None:
        raise ConfigError("'initial.path' is required for a custom initial state")
    if init["kind"] == "coherent" and init["sigma"] is not None:
        raise ConfigError(f"'initial.sigma': a coherent state has the trap's ground-state "
                          f"width and takes none, got sigma={init['sigma']}; "
                          f"use kind gaussian for another width")

    dis_sec = _section(raw, "disruptor", DisruptorConfig)
    # meta.json files written while pde_dt had no default echo it as null
    dis_sec = {k: v for k, v in dis_sec.items() if not (k == "pde_dt" and v is None)}
    disruptor = _values(DisruptorConfig, dis_sec, "disruptor")

    sweep = None
    if tag == "sweep":
        sweep_sec = _section(raw, "sweep", SweepConfig)
        if not sweep_sec:
            raise ConfigError("sweep experiments need a 'sweep' section")
        sweep = SweepConfig(**_values(SweepConfig, sweep_sec, "sweep"))
    elif "sweep" in raw:
        raise ConfigError("a 'sweep' section is only allowed for sweep experiments")

    # a sweep point takes the run defaults of the experiment it runs
    run_sec = _section(raw, "run", RunConfig, extra=("scheme",))
    run = _values(RunConfig, run_sec, "run",
                  _RUN_OVERRIDES.get(sweep.experiment if sweep else tag))
    if "scheme" in run_sec:
        scheme = _as_str(run_sec["scheme"], "run.scheme")
        if scheme != "split_step_spectral":
            raise ConfigError(f"'run.scheme' must be 'split_step_spectral', got {scheme!r}: "
                              "the split step is the only propagator, and the "
                              "Crank-Nicolson scheme is no longer in the package")

    output = _values(OutputConfig, _section(raw, "output", OutputConfig), "output")

    return ExperimentConfig(experiment=tag, grid=grid, physics=physics, potential=potential,
                            initial=InitialConfig(**init),
                            disruptor=DisruptorConfig(**disruptor), run=RunConfig(**run),
                            output=OutputConfig(**output), sweep=sweep)


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
