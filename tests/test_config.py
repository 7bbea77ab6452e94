"""Strict config parsing: defaults, rejection, and the effective-value echo."""

import numpy as np
import pytest
import yaml

from quantum_descent.cli import main
from quantum_descent.config import (ExperimentConfig, default_config,
                                    load_config, parse_config)
from quantum_descent.errors import ConfigError
from quantum_descent.output import read_meta


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
    ("potential: {kind: tabulated, x: [-10, 0, 10], V: [50, 0, 50], h: 0.0}", "h=0.0"),
    ("potential: {kind: tabulated, x: [-10, 0, 10], V: [50, 0, 50], h: -1.0e-6}", "h=-1e-06"),
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


# keys the parser takes as another spelling and does not echo
ALIASES = {"initial": {"p0"}, "grid": {"periodic"}, "run": {"scheme"}}
# every key the README's config reference names, in any section
DOCUMENTED_KEYS = {
    "x_min", "x_max", "n", "periodic", "m", "hbar", "mu", "kind", "omega", "c",
    "coefficients", "x", "V", "h", "x0", "u0", "p0", "sigma", "path", "pde_dt",
    "steps", "stop_tol", "t_final", "dt", "snapshot_every", "time_scale", "scheme",
    "directory", "format", "parameter", "values", "experiment",
}
POTENTIALS = {
    "harmonic": {"kind": "harmonic"},
    "quartic": {"kind": "quartic"},
    "polynomial": {"kind": "polynomial", "coefficients": [0.0, 0.0, 1.0]},
    "tabulated": {"kind": "tabulated", "x": [-1.0, 0.0, 1.0], "V": [1.0, 0.0, 1.0]},
}


def _accepts(doc: dict, section: str, key: str) -> bool:
    """Whether the parser takes ``key`` in ``section`` of ``doc``; it may
    still reject the probe value, but not the key."""
    probe = {**doc, section: {**doc.get(section, {}), key: 1.0}}
    try:
        parse_config(yaml.safe_dump(probe))
    except ConfigError as err:
        return f"unknown key '{key}'" not in str(err)
    return True


@pytest.mark.parametrize("kind", POTENTIALS)
def test_echoed_keys_are_the_accepted_keys(kind):
    """Each section of the echo names exactly the keys its section accepts,
    aliases aside: among every documented or echoed key, and some that no
    section takes, a section accepts only its own."""
    doc = {"experiment": "sweep", "potential": POTENTIALS[kind],
           "sweep": {"parameter": "physics.mu", "values": [0.5]}}
    echo = parse_config(yaml.safe_dump(doc)).effective_dict()
    sections = [name for name, value in echo.items() if isinstance(value, dict)]
    assert sorted(sections) == ["disruptor", "grid", "initial", "output", "physics",
                                "potential", "run", "sweep"]
    candidates = DOCUMENTED_KEYS.union(*(echo[name] for name in sections),
                                       {"dx", "beta", "lam", "gamma"})
    for name in sections:
        accepted = {key for key in candidates if _accepts(doc, name, key)}
        assert accepted == set(echo[name]) | ALIASES.get(name, set()), name


def _gaussian_table(tmp_path) -> str:
    x = np.linspace(-10.0, 10.0, 41)
    path = tmp_path / "seed.csv"
    rows = np.column_stack([x, np.exp(-(x + 1.0) ** 2), np.zeros_like(x)])
    np.savetxt(path, rows, delimiter=",", header="x,re,im", comments="")
    return str(path)


SMALL_GRID = "grid: {x_min: -10.0, x_max: 10.0, n: 256}\n"
RERUN_CONFIGS = {
    "learn_harmonic_field_sampled": (
        "experiment: learn\n" + SMALL_GRID
        + "physics: {mu: 0.5}\ninitial: {kind: gaussian, x0: -2.0, sigma: 1.1}\n"
        "disruptor: {kind: field_sampled, pde_dt: 0.05}\nrun: {steps: 4}\n"),
    "learn_tabulated_p0": (
        "experiment: learn\nphysics: {m: 2.0, mu: 0.3, hbar: 0.0}\n"
        "potential: {kind: tabulated, x: [-10, 0, 10], V: [50, 0, 50], h: 1.0e-4}\n"
        "initial: {kind: gaussian, x0: -3.0, p0: 0.5}\nrun: {steps: 40}\n"),
    "evolve_custom": (
        "experiment: evolve\n" + SMALL_GRID
        + "initial: {kind: custom, path: TABLE}\n"
        "run: {dt: 0.01, t_final: 0.1, snapshot_every: 5}\n"),
    "compare_quartic": (
        "experiment: compare\nphysics: {mu: 0.2}\npotential: {kind: quartic, c: 0.5}\n"
        "initial: {kind: gaussian, x0: -1.5, u0: 0.1}\nrun: {steps: 60, stop_tol: 1.0e-3}\n"),
    "figure1_harmonic": (
        "experiment: figure1\n" + SMALL_GRID
        + "physics: {mu: 0.4}\npotential: {kind: harmonic, omega: 0.8}\n"
        "initial: {kind: coherent, x0: -3.0, u0: 0.2}\n"
        "run: {dt: 0.01, t_final: 0.1, snapshot_every: 5, steps: 30, time_scale: 0.5}\n"
        "output: {format: json}\n"),
    "sweep_polynomial": (
        "experiment: sweep\nphysics: {m: 4.0}\n"
        "potential: {kind: polynomial, coefficients: [0.0, 0.0, -0.5, 0.0, 0.25]}\n"
        "initial: {kind: gaussian, x0: -1.5}\nrun: {steps: 50}\n"
        "sweep: {parameter: physics.mu, values: [0.2, 0.4], experiment: compare}\n"),
}


def _data_files(directory) -> dict:
    """Every file under ``directory`` but the meta.json files, by relative path."""
    return {str(path.relative_to(directory)): path.read_bytes()
            for path in sorted(directory.rglob("*"))
            if path.is_file() and path.name != "meta.json"}


@pytest.mark.parametrize("name", RERUN_CONFIGS)
def test_rerun_from_effective_config_writes_the_same_bytes(tmp_path, name):
    """A run re-run from its own meta.json's effective_config, dumped to YAML,
    writes the same data files byte for byte, and echoes the same config."""
    text = RERUN_CONFIGS[name].replace("TABLE", _gaussian_table(tmp_path))
    first, second = tmp_path / "first", tmp_path / "second"
    (tmp_path / "c.yaml").write_text(text)
    tag = yaml.safe_load(text)["experiment"]
    assert main([tag, "--config", str(tmp_path / "c.yaml"), "--out", str(first),
                 "--quiet"]) == 0
    effective = read_meta(first / "meta.json")["effective_config"]
    (tmp_path / "echo.yaml").write_text(yaml.safe_dump(effective))
    assert main([tag, "--config", str(tmp_path / "echo.yaml"), "--out", str(second),
                 "--quiet"]) == 0
    assert _data_files(first) and _data_files(second) == _data_files(first)
    again = read_meta(second / "meta.json")["effective_config"]
    assert again["output"].pop("directory") == str(second)
    assert effective["output"].pop("directory") == str(first)
    assert again == effective


def test_default_config_equals_minimal_parse():
    assert default_config("figure1") == parse_config("experiment: figure1\n")


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/path.yaml")
