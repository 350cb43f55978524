"""Scenario files: ``load_scenario`` checks the shape, the config objects the values.

Every invalid case below breaks one rule, and ``build_episode(load_scenario(path))``
must raise ConfigError for it.  ``test_rule_is_enforced`` holds the rules
a scenario file has always been held to; ``test_refused_since_shape_check``
holds the inputs refused since the config objects became the only
description of a valid scenario, and those refused since every leaf is
concave by construction.  ``test_readme_tables_match_the_loader`` keeps
the README's tables of keys and types equal to what ``load_scenario``
accepts.
"""

import copy
import math
from pathlib import Path

import pytest
import yaml

from stlfunnel import scenario
from stlfunnel.cli import main
from stlfunnel.controller import TriggerConfig
from stlfunnel.errors import ConfigError
from stlfunnel.funnel import SynthesisConfig
from stlfunnel.scenario import build_episode, bundled_scenario_path, load_scenario

INTEGRATOR = {
    "name": "toy",
    "plant": {"kind": "single_integrator", "dim": 1, "gain": 1.0, "w_max": 0.0},
    "formula": "F[0,3](ball(0;2;1.5))",
    "x0": [0.0],
    "dt": 0.01,
    "seed": 3,
}
OMNI = {
    "plant": {"kind": "omni_team", "n_agents": 1, "input_gain": 1.0, "w_max": 0.0},
    "formula": "F[0,3](ball(0,1;2,0;1.5))",
    "x0": [0.0, 0.0, 0.0],
}
DROP = object()
ROOT = Path(__file__).resolve().parents[1]


def _with(base, path, value):
    """A copy of ``base`` with the key at ``path`` set to ``value`` (removed for DROP)."""
    cfg = copy.deepcopy(base)
    *parents, last = path
    node = cfg
    for key in parents:
        node = node.setdefault(key, {})
    if value is DROP:
        del node[last]
    else:
        node[last] = value
    return cfg


def _build(tmp_path, cfg):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return build_episode(load_scenario(path))


TRIGGER_NUMBERS = ("delta_u", "delta_x0", "delta_t0")
SYNTHESIS_NUMBERS = ("chi", "r_frac", "t_star", "rho_max", "r", "gamma0", "gamma_inf", "l")

# (id, base, path, value): one broken rule each.
RULES = [
    # The wrong type for each field.
    ("type-name", INTEGRATOR, ("name",), 5),
    ("type-plant", INTEGRATOR, ("plant",), "single_integrator"),
    ("type-formula", INTEGRATOR, ("formula",), 5),
    ("type-eta", INTEGRATOR, ("eta",), "1.0"),
    ("type-x0", INTEGRATOR, ("x0",), "0.0"),
    ("type-dt", INTEGRATOR, ("dt",), "0.01"),
    ("type-horizon", INTEGRATOR, ("horizon",), "5"),
    ("type-seed-str", INTEGRATOR, ("seed",), "3"),
    ("type-seed-fraction", INTEGRATOR, ("seed",), 1.5),
    ("type-terminal_tail", INTEGRATOR, ("terminal_tail",), "0"),
    ("type-allow_nonconcave", INTEGRATOR, ("allow_nonconcave",), 1),
    ("type-trigger", INTEGRATOR, ("trigger",), [1.0]),
    ("type-synthesis-str", INTEGRATOR, ("synthesis",), "chi"),
    ("type-synthesis-number", INTEGRATOR, ("synthesis",), 5),
    ("type-plant-kind", INTEGRATOR, ("plant", "kind"), 5),
    ("type-plant-n_agents", OMNI, ("plant", "n_agents"), 1.5),
    ("type-plant-dim", INTEGRATOR, ("plant", "dim"), "1"),
    ("type-plant-input_gain", OMNI, ("plant", "input_gain"), "1"),
    ("type-plant-gain", INTEGRATOR, ("plant", "gain"), "1"),
    ("type-plant-w_max", INTEGRATOR, ("plant", "w_max"), "0"),
    *[(f"type-trigger-{k}", INTEGRATOR, ("trigger", k), "x") for k in TRIGGER_NUMBERS],
    *[(f"type-synthesis-{k}", INTEGRATOR, ("synthesis", k), "x") for k in SYNTHESIS_NUMBERS],
    ("type-synthesis-item-chi", INTEGRATOR, ("synthesis",), [{"chi": "x"}]),
    # A bool where a number or an integer is expected.
    *[(f"bool-{k}", INTEGRATOR, (k,), True) for k in ("eta", "dt", "horizon", "seed", "terminal_tail")],
    ("bool-x0-item", INTEGRATOR, ("x0",), [True]),
    ("bool-plant-n_agents", OMNI, ("plant", "n_agents"), True),
    ("bool-plant-input_gain", OMNI, ("plant", "input_gain"), True),
    ("bool-plant-dim", INTEGRATOR, ("plant", "dim"), True),
    ("bool-plant-gain", INTEGRATOR, ("plant", "gain"), True),
    ("bool-plant-w_max", INTEGRATOR, ("plant", "w_max"), False),
    ("bool-trigger-delta_u", INTEGRATOR, ("trigger", "delta_u"), True),
    ("bool-synthesis-chi", INTEGRATOR, ("synthesis", "chi"), True),
    ("bool-synthesis-item-chi", INTEGRATOR, ("synthesis",), [{"chi": True}]),
    # Each missing required key.
    *[(f"missing-{k}", INTEGRATOR, (k,), DROP) for k in ("plant", "formula", "x0")],
    ("missing-plant-kind", INTEGRATOR, ("plant", "kind"), DROP),
    # An unknown key at every level, and an unknown plant kind.
    ("unknown-root", INTEGRATOR, ("extra",), 1.0),
    ("unknown-plant", INTEGRATOR, ("plant", "extra"), 1.0),
    ("unknown-trigger", INTEGRATOR, ("trigger", "extra"), 1.0),
    ("unknown-synthesis", INTEGRATOR, ("synthesis", "extra"), 1.0),
    ("unknown-synthesis-item", INTEGRATOR, ("synthesis",), [{"extra": 1.0}]),
    ("unknown-plant-kind", INTEGRATOR, ("plant", "kind"), "warp_drive"),
    # x0 and the synthesis list.
    ("x0-empty", INTEGRATOR, ("x0",), []),
    ("x0-item-str", INTEGRATOR, ("x0",), ["a"]),
    ("x0-item-null", INTEGRATOR, ("x0",), [None]),
    ("synthesis-empty", INTEGRATOR, ("synthesis",), []),
    ("synthesis-item-number", INTEGRATOR, ("synthesis",), [5]),
    # Each minimum and exclusive bound.
    ("min-plant-n_agents", OMNI, ("plant", "n_agents"), 0),
    ("min-plant-input_gain", OMNI, ("plant", "input_gain"), 0.0),
    ("min-plant-dim", INTEGRATOR, ("plant", "dim"), 0),
    ("min-plant-gain", INTEGRATOR, ("plant", "gain"), 0.0),
    ("min-plant-w_max", INTEGRATOR, ("plant", "w_max"), -0.1),
    ("min-eta", INTEGRATOR, ("eta",), 0.0),
    ("min-dt", INTEGRATOR, ("dt",), 0.0),
    ("min-horizon", INTEGRATOR, ("horizon",), 0.0),
    ("min-seed", INTEGRATOR, ("seed",), -1),
    ("min-terminal_tail", INTEGRATOR, ("terminal_tail",), -0.1),
    ("min-trigger-delta_u", INTEGRATOR, ("trigger", "delta_u"), 0.0),
    ("min-trigger-delta_x0", INTEGRATOR, ("trigger", "delta_x0"), 0.0),
    ("min-trigger-delta_t0", INTEGRATOR, ("trigger", "delta_t0"), 0.0),
    *[(f"min-synthesis-{k}", INTEGRATOR, ("synthesis", k), 0.0)
      for k in ("chi", "r_frac", "rho_max", "r", "gamma0", "gamma_inf")],
    ("max-synthesis-r_frac", INTEGRATOR, ("synthesis", "r_frac"), 1.0),
    ("min-synthesis-t_star", INTEGRATOR, ("synthesis", "t_star"), -0.1),
    ("min-synthesis-l", INTEGRATOR, ("synthesis", "l"), -0.1),
    ("min-synthesis-item-chi", INTEGRATOR, ("synthesis",), [{"chi": 0.0}]),
]


@pytest.mark.parametrize("base, path, value", [r[1:] for r in RULES], ids=[r[0] for r in RULES])
def test_rule_is_enforced(tmp_path, base, path, value):
    with pytest.raises(ConfigError):
        _build(tmp_path, _with(base, path, value))


NONCONCAVE = [
    ("allow_nonconcave", INTEGRATOR, ("allow_nonconcave",), True),
    ("not-ball", INTEGRATOR, ("formula",), "F[0,3](ball(0;2;1.5) and not ball(0;0;1))"),
    ("not-join", OMNI, ("formula",), "F[0,3](ball(0,1;2,0;1.5) and not join(0;1;0.5))"),
]
REFUSED = [
    # An integral float in an integer field.
    ("float-seed", INTEGRATOR, ("seed",), 7.0),
    ("float-n_agents", OMNI, ("plant", "n_agents"), 1.0),
    ("float-dim", INTEGRATOR, ("plant", "dim"), 1.0),
    # A plant field that does not belong to the plant's kind.
    ("integrator-input_gain", INTEGRATOR, ("plant", "input_gain"), 5.0),
    ("integrator-n_agents", INTEGRATOR, ("plant", "n_agents"), 1),
    ("omni-gain", OMNI, ("plant", "gain"), 100.0),
    ("omni-dim", OMNI, ("plant", "dim"), 3),
    # NaN in a field with a range.
    *[(f"nan-trigger-{k}", INTEGRATOR, ("trigger", k), math.nan)
      for k in TRIGGER_NUMBERS],
    *[(f"nan-{k}", INTEGRATOR, (k,), math.nan) for k in ("horizon", "terminal_tail")],
    *[(f"nan-synthesis-{k}", INTEGRATOR, ("synthesis", k), math.nan)
      for k in ("chi", "t_star", "rho_max", "r", "gamma0", "gamma_inf", "l")],
    # Every leaf is concave: there is no switch for a negated ball or join.
    *NONCONCAVE,
]


@pytest.mark.parametrize("base, path, value", [r[1:] for r in REFUSED], ids=[r[0] for r in REFUSED])
def test_refused_since_shape_check(tmp_path, base, path, value):
    with pytest.raises(ConfigError):
        _build(tmp_path, _with(base, path, value))


@pytest.mark.parametrize("cfg", [_with(*r[1:]) for r in NONCONCAVE], ids=[r[0] for r in NONCONCAVE])
def test_nonconcave_scenario_exits_2_without_output(tmp_path, monkeypatch, cfg):
    monkeypatch.setattr("stlfunnel.cli.run_episode", lambda spec: pytest.fail("a run started"))
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


ACCEPTED = [
    ("integer-numbers", INTEGRATOR, ("dt",), 1),
    ("integer-horizon", INTEGRATOR, ("horizon",), 5),
    ("zero-seed", INTEGRATOR, ("seed",), 0),
    ("zero-w_max", OMNI, ("plant", "w_max"), 0),
    ("zero-terminal_tail", INTEGRATOR, ("terminal_tail",), 0.0),
    ("zero-synthesis-bounds", INTEGRATOR, ("synthesis",), {"t_star": 0.0, "l": 0}),
    ("synthesis-list", INTEGRATOR, ("synthesis",), [{"chi": 0.5}]),
    ("not-aff", INTEGRATOR, ("formula",), "F[0,3](ball(0;2;1.5) and not aff(1;-3))"),
    ("minimal", INTEGRATOR, ("name",), DROP),
]


@pytest.mark.parametrize("base, path, value", [r[1:] for r in ACCEPTED], ids=[r[0] for r in ACCEPTED])
def test_valid_scenario_builds(tmp_path, base, path, value):
    spec = _build(tmp_path, _with(base, path, value))
    assert spec.plant.n == len(spec.x0)


def test_shipped_scenarios_build():
    bundled = build_episode(load_scenario(bundled_scenario_path()))
    assert (bundled.plant.n, bundled.seed, bundled.horizon, len(bundled.seq_cfg.synthesis)) == (9, 7, 100.0, 2)
    assert bundled.plant.gain == 100.0 and bundled.trigger.delta_u == 50.0
    patrol = build_episode(load_scenario(ROOT / "perfbench" / "patrol2d.yaml"))
    assert (patrol.plant.n, patrol.plant.gain, patrol.dt, patrol.trigger.delta_u) == (2, 5.0, 0.0025, 20.0)


def test_synthesis_count_checked_before_any_run(tmp_path, monkeypatch):
    # Three entries for the two-phase bundled formula: neither one nor one per task.
    cfg = load_scenario(bundled_scenario_path())
    cfg["synthesis"] = cfg["synthesis"] + [{"chi": 0.06}]
    with pytest.raises(ConfigError, match="3 synthesis entries for 2 tasks"):
        build_episode(cfg)
    monkeypatch.setattr("stlfunnel.cli.run_episode", lambda spec: pytest.fail("a run started"))
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def test_shape_errors_name_the_key(tmp_path):
    with pytest.raises(ConfigError, match=r"at seed: expected an integer, got 7\.0"):
        _build(tmp_path, _with(INTEGRATOR, ("seed",), 7.0))
    with pytest.raises(ConfigError, match=r"at trigger: unknown key 'sample_count'"):
        _build(tmp_path, _with(INTEGRATOR, ("trigger", "sample_count"), 128))
    with pytest.raises(ConfigError, match=r"at plant: unknown key 'input_gain'"):
        _build(tmp_path, _with(INTEGRATOR, ("plant", "input_gain"), 5.0))
    with pytest.raises(ConfigError, match="trigger lengths must be positive"):
        _build(tmp_path, _with(INTEGRATOR, ("trigger", "delta_u"), math.nan))


def _readme_tables():
    """The README's "Scenario files" tables in order, each as rows of cells
    with the backticks stripped."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Scenario files\n", 1)[1].split("\n## ", 1)[0]
    tables, rows = [], []
    for line in section.splitlines() + [""]:
        if line.startswith("|"):
            rows.append([cell.strip().strip("`") for cell in line.strip("|").split("|")])
        elif rows:
            tables.append(rows[2:])
            rows = []
    return tables


def test_readme_tables_match_the_loader():
    # A "number", an "integer" or a "string"; any other type (a mapping or
    # a list) is a nested value, which the loader marks None.
    types = {"number": float, "integer": int, "string": str}
    root, plants, trigger, synthesis = _readme_tables()
    assert {row[0]: types.get(row[1]) for row in root} == scenario._ROOT
    documented, kind = {}, None
    for row in plants:
        kind = row[0] or kind
        documented.setdefault(kind, {})[row[1]] = types.get(row[2])
    assert documented == scenario._PLANTS
    assert {row[0]: types.get(row[1]) for row in trigger} == scenario._section(TriggerConfig)
    assert {row[0]: types.get(row[1]) for row in synthesis} == scenario._section(SynthesisConfig)
