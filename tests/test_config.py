"""Strict config parsing: defaults, rejection, and the effective-value echo."""

import pytest
import yaml

from quantum_descent.config import (ExperimentConfig, default_config,
                                    load_config, parse_config)
from quantum_descent.errors import ConfigError


def test_minimal_figure1_fills_documented_defaults():
    cfg = parse_config("experiment: figure1\n")
    assert cfg.physics.m == 1.0
    assert cfg.physics.mu == 1.0
    assert cfg.physics.hbar == 1.0
    assert cfg.potential == {"kind": "harmonic", "omega": 1.0}
    assert cfg.initial.x0 == -5.0
    assert cfg.initial.u0 == 0.0
    assert (cfg.grid.x_min, cfg.grid.x_max, cfg.grid.n) == (-20.0, 20.0, 2048)
    assert cfg.run.steps == 200
    assert cfg.run.stop_tol == 1e-8
    assert cfg.run.dt == 0.02
    # the field-sampled disruptor's step is resolved here, so meta.json echoes it
    assert cfg.effective_dict()["disruptor"] == {"kind": "zero", "pde_dt": 0.01}


def test_run_defaults_depend_on_experiment():
    assert parse_config("experiment: evolve\n").run.dt == 1e-3
    assert parse_config("experiment: evolve\n").run.t_final == 10.0
    assert parse_config("experiment: figure1\n").run.t_final == 20.0


def test_subcommand_supplies_missing_tag():
    cfg = parse_config("physics: {mu: 0.5}\n", experiment="learn")
    assert cfg.experiment == "learn"
    assert cfg.physics.mu == 0.5


def test_tag_conflict_rejected():
    with pytest.raises(ConfigError, match="contradicts"):
        parse_config("experiment: evolve\n", experiment="learn")


def test_zero_mass_names_the_field():
    with pytest.raises(ConfigError, match="m"):
        parse_config("experiment: learn\nphysics: {m: 0}\n")


def test_unknown_key_names_the_key():
    with pytest.raises(ConfigError, match="gamma"):
        parse_config("experiment: learn\nphysics: {gamma: 2.0}\n")


def test_unknown_top_level_section():
    with pytest.raises(ConfigError, match="lattice"):
        parse_config("experiment: learn\nlattice: {}\n")


def test_syntax_error_reported_distinctly():
    with pytest.raises(ConfigError, match="syntax"):
        parse_config("experiment: [unclosed\n")


def test_non_mapping_section_rejected():
    with pytest.raises(ConfigError, match="mapping"):
        parse_config("experiment: learn\nphysics: 3\n")


@pytest.mark.parametrize("snippet,field", [
    ("run: {steps: 0}", "steps"),
    ("run: {dt: -0.1}", "dt"),
    ("run: {stop_tol: 0}", "stop_tol"),
    ("run: {time_scale: 0}", "time_scale"),
    ("run: {snapshot_every: 0}", "snapshot_every"),
    ("grid: {n: 4}", "grid"),
    ("physics: {mu: 1.5}", "mu"),
    ("initial: {sigma: -1}", "sigma"),
    ("disruptor: {pde_dt: 0}", "pde_dt"),
    ("potential: {kind: harmonic, omega: -2}", "omega"),
])
def test_invariant_violations_name_the_field(snippet, field):
    with pytest.raises(ConfigError, match=field):
        parse_config(f"experiment: learn\n{snippet}\n")


def test_momentum_alias_divides_by_mass():
    cfg = parse_config("experiment: learn\nphysics: {m: 4.0}\ninitial: {p0: 2.0}\n")
    assert cfg.initial.u0 == 0.5
    assert cfg.p0 == 2.0


def test_velocity_and_momentum_together_rejected():
    with pytest.raises(ConfigError, match="not both"):
        parse_config("experiment: learn\ninitial: {u0: 1.0, p0: 1.0}\n")


def test_integer_fields_reject_floats():
    with pytest.raises(ConfigError, match="integer"):
        parse_config("experiment: learn\ngrid: {n: 2048.0}\n")


def test_potential_kinds_parse():
    quartic = parse_config("experiment: learn\npotential: {kind: quartic, c: 2.0}\n")
    assert quartic.potential == {"kind": "quartic", "c": 2.0}
    poly = parse_config(
        "experiment: learn\npotential: {kind: polynomial, coefficients: [0, 0, 0.5]}\n")
    assert poly.build_potential().gradient(3.0) == pytest.approx(3.0)
    tab = parse_config(
        "experiment: learn\n"
        "potential: {kind: tabulated, x: [-1, 0, 1], V: [0.5, 0.0, 0.5]}\n")
    assert tab.build_potential().evaluate(1.0) == pytest.approx(0.5)


def test_potential_kind_specific_keys():
    with pytest.raises(ConfigError, match="omega"):
        parse_config("experiment: learn\npotential: {kind: quartic, c: 1.0, omega: 2}\n")


def test_custom_initial_requires_path():
    with pytest.raises(ConfigError, match="path"):
        parse_config("experiment: evolve\ninitial: {kind: custom}\n")


def test_sweep_requires_section_and_known_parameter():
    with pytest.raises(ConfigError, match="sweep"):
        parse_config("experiment: sweep\n")
    with pytest.raises(ConfigError, match="parameter"):
        parse_config("experiment: sweep\nsweep: {parameter: physics.gamma, values: [1]}\n")
    with pytest.raises(ConfigError, match="values"):
        parse_config("experiment: sweep\nsweep: {parameter: physics.mu, values: []}\n")


def test_sweep_section_forbidden_elsewhere():
    with pytest.raises(ConfigError, match="only allowed"):
        parse_config("experiment: learn\nsweep: {parameter: physics.mu, values: [1]}\n")


def test_sweep_parses_values():
    cfg = parse_config(
        "experiment: sweep\n"
        "sweep: {parameter: physics.mu, values: [0.0, 0.5, 1.0], experiment: learn}\n")
    assert cfg.sweep.values == (0.0, 0.5, 1.0)
    assert cfg.sweep.experiment == "learn"


def test_effective_dict_round_trips():
    """Re-parsing the echoed effective values reproduces the config exactly."""
    text = (
        "experiment: evolve\n"
        "grid: {x_min: -15, x_max: 15, n: 1024}\n"
        "physics: {m: 2.0, mu: 0.25}\n"
        "potential: {kind: harmonic, omega: 0.5}\n"
        "initial: {kind: gaussian, x0: -3.0, u0: 0.4, sigma: 0.9}\n"
        "run: {dt: 0.002, t_final: 4.0}\n"
    )
    cfg = parse_config(text)
    echoed = yaml.safe_dump(cfg.effective_dict())
    again = parse_config(echoed)
    assert again == cfg


def test_default_config_equals_minimal_parse():
    assert default_config("figure1") == parse_config("experiment: figure1\n")


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/path.yaml")
