"""Scenario configuration: versioned JSON schema, strict validation, defaults.

Unknown keys are rejected everywhere.  Every built-in value is the `default`
of its field in `SCHEMA`; a scenario's registry entry may override some of
them.  User configs are merged over those defaults, so a config file only
needs the fields it changes.
"""

from __future__ import annotations

import copy
import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import jsonschema

from .. import crew
from ..gpws import AttackSchedule
from ..tcas import AdvisoryThresholds, FalseIntruderPlan
from ..world import RunwayModel, TerrainProfile
from .scenarios import SCENARIOS

CONFIG_VERSION = 1


class ConfigError(Exception):
    """Invalid scenario configuration; message carries the failing field."""


def _obj(properties: dict, required: Optional[List[str]] = None) -> dict:
    schema = {
        "type": "object",
        "properties": properties,
        "additionalProperties": False,
    }
    if required:
        schema["required"] = required
    return schema


def _num(default: Optional[float] = None, **bounds: float) -> dict:
    """Number field; `default` is its built-in value (None: no default)."""

    schema = {"type": "number", **bounds}
    return schema if default is None else {**schema, "default": default}


_pos = functools.partial(_num, exclusiveMinimum=0)
_nonneg = functools.partial(_num, minimum=0)
_PROB = {"type": "number", "minimum": 0, "maximum": 1}
_DIST = {
    "type": "object",
    "additionalProperties": {"type": "number", "minimum": 0, "maximum": 1},
}

SCHEMA = _obj(
    {
        "version": {"const": CONFIG_VERSION, "default": CONFIG_VERSION},
        "scenario": {"enum": list(SCENARIOS), "default": "GPWS"},
        "trials": {"type": "integer", "minimum": 1, "default": 100},
        "master_seed": {"type": "integer", "minimum": 0, "default": 20190118},
        "output_dir": {"type": "string", "default": "out"},
        "world": _obj(
            {
                "dt_s": _pos(0.1),
                "runway": _obj(
                    {
                        "threshold_position_m": _num(0.0),
                        "touchdown_zone_offset_m": _nonneg(300.0),
                        "elevation_m": _num(100.0),
                        "true_bearing_deg": _num(327.0),
                        "length_m": _pos(2600.0),
                    }
                ),
                "terrain": {
                    "type": "array",
                    "minItems": 2,
                    "items": {
                        "type": "array",
                        "items": _num(),
                        "minItems": 2,
                        "maxItems": 2,
                    },
                    "default": [[-50000.0, 100.0], [50000.0, 100.0]],
                },
                "approach": _obj(
                    {
                        "ground_speed_kn": _pos(130.0),
                        "descent_rate_fpm": _pos(700.0),
                        "start_agl_ft": _pos(1500.0),
                    }
                ),
                "cruise": _obj(
                    {"altitude_ft": _pos(12000.0), "ground_speed_kn": _pos(230.0)}
                ),
            }
        ),
        "attacker": _obj(
            {
                "enabled": {"type": "boolean", "default": True},
                "gpws": _obj(
                    {
                        "base_trigger_ft": _pos(500.0),
                        "increment_per_approach_ft": _nonneg(250.0),
                        "jitter_window_ft": _nonneg(50.0),
                        "apparent_descent_rate_mps": _pos(15.4),
                    }
                ),
                "tcas": _obj(
                    {
                        "approach_bearing_deg": _num(45.0),
                        "approach_speed_mps": _pos(180.0),
                        "vertical_offset_ft": _num(-500.0),
                        "activation_floor_ft": _nonneg(2000.0),
                        "alert_budget": {"type": "integer", "minimum": 0, "default": 10},
                        "start_tau_s": _pos(50.0),
                        "bearing_jitter_deg": _nonneg(180.0),
                        "speed_jitter_mps": _nonneg(60.0),
                        "position_m": {
                            "type": "array",
                            "items": _num(),
                            "minItems": 3,
                            "maxItems": 3,
                            "default": [-5000.0, 8000.0, 150.0],
                        },
                    }
                ),
                "gs": _obj(
                    {
                        "shift_m": _pos(2050.0),
                        "tx_power_w": _pos(50.0),
                        "path_angle_deg": _pos(3.0),
                    }
                ),
            }
        ),
        # Policy fields carry no schema default: an absent field falls back
        # to the crew model's own calibrated value.
        "policies": _obj(
            {
                "gpws": _obj(
                    {
                        "approach_actions": {"type": "array", "items": _DIST},
                        "reaction_latency_mean_s": _nonneg(),
                        "reaction_latency_sd_s": _pos(),
                    }
                ),
                "tcas": _obj(
                    {
                        "p_downgrade": _PROB,
                        "p_standby_given_downgrade": _PROB,
                        "ras_before_ta_only_mean": _pos(),
                        "ras_before_ta_only_sd": _pos(),
                        "extra_tas_before_standby_mean": _nonneg(),
                        "extra_tas_before_standby_sd": _pos(),
                        "action_given_final_mode": {
                            "type": "object",
                            "additionalProperties": _DIST,
                        },
                    }
                ),
                "gs": _obj(
                    {
                        "p_go_around_first": _PROB,
                        "go_around_agl_mean_ft": _pos(),
                        "go_around_agl_sd_ft": _pos(),
                        "go_around_agl_lo_ft": _pos(),
                        "go_around_agl_hi_ft": _pos(),
                        "fallback_approaches": _DIST,
                    }
                ),
            }
        ),
        "tcas_system": _obj(
            {
                "tau_ta_s": _pos(48.0),
                "tau_ra_s": _pos(30.0),
                "ta_band_ft": _pos(1200.0),
                "ra_band_ft": _pos(600.0),
                "max_episodes": {"type": "integer", "minimum": 1, "default": 30},
                "inter_episode_gap_s": _pos(20.0),
            }
        ),
        "sentinel": _obj(
            {
                "sensor_extent_m": _pos(20000.0),
                "clock_jitter_ns": _nonneg(100.0),
                "residual_threshold_m": _pos(500.0),
            }
        ),
        "output": _obj({"altitude_trace": {"type": "boolean", "default": False}}),
    },
    required=["version", "scenario"],
)


def _schema_defaults(schema: dict) -> Dict[str, Any]:
    """Nested dict of every field's `default`.  Descends only into objects
    that declare `properties`, so open maps (distributions, policy tables)
    get no default that would replace the crew model's own."""

    out: Dict[str, Any] = {}
    for key, sub in schema["properties"].items():
        if "properties" in sub:
            out[key] = _schema_defaults(sub)
        elif "default" in sub:
            out[key] = copy.deepcopy(sub["default"])
    return out


def apply_scenario(data: Dict[str, Any], scenario: str) -> Dict[str, Any]:
    """`data` switched to `scenario`, with that scenario's overrides merged in."""

    if scenario not in SCENARIOS:
        raise ConfigError(f"scenario: unknown scenario {scenario!r}")
    return _merge({**data, "scenario": scenario}, SCENARIOS[scenario].overrides)


def default_config_dict(scenario: Optional[str] = None) -> Dict[str, Any]:
    """Schema defaults for `scenario` (the schema's default scenario if None)."""

    data = _schema_defaults(SCHEMA)
    return apply_scenario(data, scenario or data["scenario"])


def _merge(base: Dict[str, Any], override: Dict[str, Any]) -> Dict[str, Any]:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


@dataclass
class ScenarioConfig:
    raw: Dict[str, Any] = field(repr=False, default_factory=dict)

    # -- convenience accessors -------------------------------------------

    @property
    def scenario(self) -> str:
        return self.raw["scenario"]

    @property
    def trials(self) -> int:
        return self.raw["trials"]

    @property
    def master_seed(self) -> int:
        return self.raw["master_seed"]

    @property
    def output_dir(self) -> str:
        return self.raw["output_dir"]

    @property
    def dt(self) -> float:
        return self.raw["world"]["dt_s"]

    @property
    def attacker_enabled(self) -> bool:
        return self.raw["attacker"]["enabled"]

    def runway(self) -> RunwayModel:
        r = self.raw["world"]["runway"]
        return RunwayModel(
            threshold_position=r["threshold_position_m"],
            touchdown_zone_offset=r["touchdown_zone_offset_m"],
            elevation=r["elevation_m"],
            true_bearing=r["true_bearing_deg"],
            length=r["length_m"],
        )

    def terrain(self) -> TerrainProfile:
        return TerrainProfile([tuple(p) for p in self.raw["world"]["terrain"]])

    def approach(self) -> Dict[str, float]:
        return self.raw["world"]["approach"]

    def cruise(self) -> Dict[str, float]:
        return self.raw["world"]["cruise"]

    def gpws_attack_schedule(self) -> AttackSchedule:
        a = self.raw["attacker"]["gpws"]
        return AttackSchedule(
            base_trigger_ft=a["base_trigger_ft"],
            increment_per_approach_ft=a["increment_per_approach_ft"],
            jitter_window_ft=a["jitter_window_ft"],
        )

    def gpws_policy(self) -> crew.GpwsPolicy:
        p = self.raw["policies"]["gpws"]
        kwargs: Dict[str, Any] = {}
        if "approach_actions" in p:
            kwargs["approach_actions"] = tuple(dict(d) for d in p["approach_actions"])
        for key in ("reaction_latency_mean_s", "reaction_latency_sd_s"):
            if key in p:
                kwargs[key] = p[key]
        return crew.GpwsPolicy(**kwargs)

    def tcas_policy(self) -> crew.TcasPolicy:
        p = dict(self.raw["policies"]["tcas"])
        return crew.TcasPolicy(**p)

    def gs_policy(self) -> crew.GsPolicy:
        p = dict(self.raw["policies"]["gs"])
        return crew.GsPolicy(**p)

    def tcas_thresholds(self) -> AdvisoryThresholds:
        s = self.raw["tcas_system"]
        return AdvisoryThresholds(
            tau_ta_s=s["tau_ta_s"],
            tau_ra_s=s["tau_ra_s"],
            ta_band_ft=s["ta_band_ft"],
            ra_band_ft=s["ra_band_ft"],
        )

    def false_intruder_plan(self) -> FalseIntruderPlan:
        a = self.raw["attacker"]["tcas"]
        return FalseIntruderPlan(
            approach_bearing=a["approach_bearing_deg"],
            approach_speed=a["approach_speed_mps"],
            vertical_offset=a["vertical_offset_ft"],
            activation_floor=a["activation_floor_ft"],
            alert_budget=a["alert_budget"],
            start_tau_s=a["start_tau_s"],
            bearing_jitter_deg=a["bearing_jitter_deg"],
            speed_jitter_mps=a["speed_jitter_mps"],
        )


def validate_config_dict(data: Dict[str, Any]) -> None:
    validator = jsonschema.Draft202012Validator(SCHEMA)
    errors = sorted(validator.iter_errors(data), key=lambda e: list(e.absolute_path))
    if errors:
        msgs = []
        for err in errors:
            path = ".".join(str(p) for p in err.absolute_path) or "<root>"
            msgs.append(f"{path}: {err.message}")
        raise ConfigError("; ".join(msgs))


def make_config(data: Dict[str, Any]) -> ScenarioConfig:
    """Validate a (possibly partial) config dict and merge it over defaults."""

    if not isinstance(data, dict):
        raise ConfigError("<root>: config must be a JSON object")
    validate_config_dict(data)
    merged = _merge(default_config_dict(data["scenario"]), data)
    validate_config_dict(merged)
    cfg = ScenarioConfig(raw=merged)
    # Semantic checks jsonschema cannot express.
    try:
        cfg.runway()
        cfg.terrain()
        cfg.gpws_policy()
        cfg.tcas_policy()
        cfg.gs_policy()
        cfg.false_intruder_plan()
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def load_config(path: str | Path) -> ScenarioConfig:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return make_config(data)
