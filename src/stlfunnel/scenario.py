"""Scenario files: schema-validated YAML describing one episode."""

from __future__ import annotations

from importlib import resources
from pathlib import Path

import jsonschema
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

__all__ = ["SCENARIO_SCHEMA", "load_scenario", "build_episode", "bundled_scenario_path"]

_SYNTHESIS_PROPS = {
    "chi": {"type": "number", "exclusiveMinimum": 0},
    "r_frac": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
    "t_star": {"type": "number", "minimum": 0},
    "rho_max": {"type": "number", "exclusiveMinimum": 0},
    "r": {"type": "number", "exclusiveMinimum": 0},
    "gamma0": {"type": "number", "exclusiveMinimum": 0},
    "gamma_inf": {"type": "number", "exclusiveMinimum": 0},
    "l": {"type": "number", "minimum": 0},
}

SCENARIO_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["plant", "formula", "x0"],
    "properties": {
        "name": {"type": "string"},
        "plant": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["omni_team", "single_integrator"]},
                "n_agents": {"type": "integer", "minimum": 1},
                "dim": {"type": "integer", "minimum": 1},
                "input_gain": {"type": "number", "exclusiveMinimum": 0},
                "gain": {"type": "number", "exclusiveMinimum": 0},
                "w_max": {"type": "number", "minimum": 0},
            },
        },
        "formula": {"type": "string"},
        "eta": {"type": "number", "exclusiveMinimum": 0},
        "x0": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "dt": {"type": "number", "exclusiveMinimum": 0},
        "horizon": {"type": "number", "exclusiveMinimum": 0},
        "seed": {"type": "integer", "minimum": 0},
        "terminal_tail": {"type": "number", "minimum": 0},
        "allow_nonconcave": {"type": "boolean"},
        "trigger": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "delta_u": {"type": "number", "exclusiveMinimum": 0},
                "lipschitz_safety": {"type": "number", "minimum": 1},
                "delta_x0": {"type": "number", "exclusiveMinimum": 0},
                "delta_t0": {"type": "number", "exclusiveMinimum": 0},
                "shrink": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "sample_count": {"type": "integer", "minimum": 1},
                "delta_floor": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "synthesis": {
            "oneOf": [
                {"type": "object", "additionalProperties": False, "properties": _SYNTHESIS_PROPS},
                {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "additionalProperties": False,
                        "properties": _SYNTHESIS_PROPS,
                    },
                },
            ]
        },
    },
}


def load_scenario(path: str | Path) -> dict:
    """Read and schema-validate a scenario file."""
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"scenario is not valid YAML: {exc}") from exc
    try:
        jsonschema.validate(data, SCENARIO_SCHEMA)
    except jsonschema.ValidationError as exc:
        path_str = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"scenario invalid at {path_str}: {exc.message}") from exc
    return data


def build_episode(
    cfg: dict, seed: int | None = None, dt: float | None = None
) -> EpisodeSpec:
    """Turn a validated scenario mapping into an episode spec."""
    plant_cfg = cfg["plant"]
    w_max = float(plant_cfg.get("w_max", 0.0))
    if plant_cfg["kind"] == "omni_team":
        plant = omni_robot_team(
            n_agents=int(plant_cfg.get("n_agents", 3)),
            input_gain=float(plant_cfg.get("input_gain", 1.0)),
            w_max=w_max,
        )
    else:
        plant = single_integrator(
            dim=int(plant_cfg.get("dim", 2)),
            gain=float(plant_cfg.get("gain", 1.0)),
            w_max=w_max,
        )

    try:
        theta = parse_formula(cfg["formula"], allow_nonconcave=bool(cfg.get("allow_nonconcave", False)))
    except ParseError as exc:
        raise ConfigError(f"formula: {exc}") from exc

    raw_synth = cfg.get("synthesis", {})
    if isinstance(raw_synth, dict):
        synth = (SynthesisConfig(**raw_synth),)
    else:
        synth = tuple(SynthesisConfig(**entry) for entry in raw_synth)
    seq_cfg = SequencerConfig(
        synthesis=synth,
        smoothing=SmoothingConfig(eta=float(cfg.get("eta", 1.0))),
        terminal_tail=float(cfg.get("terminal_tail", 0.0)),
    )
    trigger = TriggerConfig(**cfg.get("trigger", {}))

    try:
        return EpisodeSpec(
            plant=plant,
            theta=theta,
            x0=np.asarray(cfg["x0"], dtype=float),
            seq_cfg=seq_cfg,
            trigger=trigger,
            dt=float(dt if dt is not None else cfg.get("dt", 0.01)),
            horizon=cfg.get("horizon"),
            seed=int(seed if seed is not None else cfg.get("seed", 0)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def bundled_scenario_path(name: str = "multi_robot.yaml") -> Path:
    """Path of a scenario shipped inside the package."""
    return Path(resources.files("stlfunnel") / "scenarios" / name)
