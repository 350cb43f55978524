"""Scenario files: YAML describing one episode; shape checked at load, values at build.

``load_scenario`` checks that each key is known and each value of the right
type; the ``trigger`` and ``synthesis`` keys are read from ``TriggerConfig``
and ``SynthesisConfig``.  ``build_episode`` builds the objects, and each
range rule lives once, in the object that holds the value.
"""

from __future__ import annotations

from dataclasses import fields
from importlib import resources
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import yaml

from .controller import TriggerConfig
from .errors import ConfigError, ParseError
from .formulas import SmoothingConfig
from .funnel import SynthesisConfig
from .parsing import parse_formula
from .plants import omni_robot_team, single_integrator
from .sequencer import SequencerConfig
from .sim import EpisodeSpec

__all__ = ["load_scenario", "build_episode", "bundled_scenario_path"]


def _section(cls: type) -> dict[str, type]:
    """A config dataclass's fields and their types, ``float | None`` read as float."""
    hints = get_type_hints(cls)
    return {f.name: next(t for t in get_args(hints[f.name]) or (hints[f.name],) if t is not type(None))
            for f in fields(cls)}


# A None type marks a nested value, checked by ``_check_shape`` itself.
_ROOT = {
    "name": str, "formula": str, "eta": float, "dt": float, "horizon": float, "seed": int,
    "terminal_tail": float, "plant": None, "x0": None, "trigger": None, "synthesis": None,
}
_PLANTS = {
    "omni_team": {"n_agents": int, "input_gain": float, "w_max": float},
    "single_integrator": {"dim": int, "gain": float, "w_max": float},
}
_TYPE_NAMES = {str: "a string", float: "a number", int: "an integer"}


def _fail(where: list, message: str) -> ConfigError:
    return ConfigError(f"scenario invalid at {'/'.join(map(str, where)) or '<root>'}: {message}")


def _check_value(value: object, kind: type, where: list) -> None:
    # A bool is an int to Python, but neither a number nor an integer here.
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise _fail(where, f"expected {_TYPE_NAMES[kind]}, got {value!r}")


def _check_fields(data: object, known: dict, where: list) -> None:
    if not isinstance(data, dict):
        raise _fail(where, f"expected a mapping, got {data!r}")
    for key, value in data.items():
        if key not in known:
            raise _fail(where, f"unknown key {key!r}")
        if known[key] is not None:
            _check_value(value, known[key], where + [key])


def _check_shape(data: object) -> None:
    """Raise ConfigError unless ``data`` has a scenario's keys and value types."""
    _check_fields(data, _ROOT, [])
    for key in ("plant", "formula", "x0"):
        if key not in data:
            raise _fail([], f"missing required key {key!r}")
    plant = data["plant"]
    kind = plant.get("kind") if isinstance(plant, dict) else None
    if not isinstance(kind, str) or kind not in _PLANTS:
        raise _fail(["plant", "kind"], f"expected one of {', '.join(_PLANTS)}, got {kind!r}")
    _check_fields(plant, {"kind": str, **_PLANTS[kind]}, ["plant"])
    x0 = data["x0"]
    if not isinstance(x0, list) or not x0:
        raise _fail(["x0"], f"expected a non-empty list of numbers, got {x0!r}")
    for i, value in enumerate(x0):
        _check_value(value, float, ["x0", i])
    _check_fields(data.get("trigger", {}), _section(TriggerConfig), ["trigger"])
    synth = data.get("synthesis", {})
    if isinstance(synth, list):
        for i, entry in enumerate(synth):
            _check_fields(entry, _section(SynthesisConfig), ["synthesis", i])
    else:
        _check_fields(synth, _section(SynthesisConfig), ["synthesis"])


def load_scenario(path: str | Path) -> dict:
    """Read a scenario file and check its shape; ``build_episode`` checks its values."""
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"scenario is not valid YAML: {exc}") from exc
    _check_shape(data)
    return data


def build_episode(cfg: dict, seed: int | None = None, dt: float | None = None) -> EpisodeSpec:
    """Build the episode of a loaded scenario; each object checks the values it holds,
    and a ValueError from any of them, or a formula that does not parse, is a ConfigError."""
    plant_cfg = cfg["plant"]
    synth = cfg.get("synthesis", {})
    entries = [synth] if isinstance(synth, dict) else synth
    try:
        args = {k: v for k, v in plant_cfg.items() if k != "kind"}
        plant = omni_robot_team(**args) if plant_cfg["kind"] == "omni_team" else single_integrator(**{"dim": 2, **args})
        theta = parse_formula(cfg["formula"])
        seq_cfg = SequencerConfig(
            synthesis=tuple(SynthesisConfig(**entry) for entry in entries),
            smoothing=SmoothingConfig(eta=float(cfg.get("eta", 1.0))),
            terminal_tail=float(cfg.get("terminal_tail", 0.0)),
        )
        return EpisodeSpec(
            plant=plant,
            theta=theta,
            x0=np.asarray(cfg["x0"], dtype=float),
            seq_cfg=seq_cfg,
            trigger=TriggerConfig(**cfg.get("trigger", {})),
            dt=float(dt if dt is not None else cfg.get("dt", 0.01)),
            horizon=cfg.get("horizon"),
            seed=seed if seed is not None else cfg.get("seed", 0),
        )
    except ParseError as exc:
        raise ConfigError(f"formula: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def bundled_scenario_path(name: str = "multi_robot.yaml") -> Path:
    """Path of a scenario shipped inside the package."""
    return Path(resources.files("stlfunnel") / "scenarios" / name)
