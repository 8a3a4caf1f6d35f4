"""Scenario configuration: versioned JSON schema, strict validation, defaults.

This is the only module that knows the config's JSON layout.  Unknown keys
are rejected everywhere.  Every built-in value is the `default` of its field
in `SCHEMA`; a scenario's registry entry may override some of them.  User
configs are merged over those defaults, so a config file only needs the
fields it changes.

`make_config` builds a frozen `ScenarioConfig` once, holding every object
and scalar the trials and the CLI read.  Building those objects is the
semantic validation (threshold ordering, runway geometry, distributions,
terrain under the approach and below its descent path); each failure names
its JSON path.
"""

from __future__ import annotations

import copy
import functools
import json
import math
import numbers
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .. import crew
from ..gpws import AttackSchedule
from ..ils import GlideslopeTx
from ..tcas import MIN_CLOSURE_MPS, AdvisoryThresholds, FalseIntruderPlan
from ..world import RunwayModel, TerrainProfile
from .scenarios import (
    SCENARIOS, approach_start, flown_glideslope, gpws_lead_end, gs_eval_agl, gs_path_along,
)

CONFIG_VERSION = 1
#: The longest time a TCAS run may span, s.  Floats there are 2**-20 s
#: (about 1 us) apart, so its 1 Hz cycle times stay distinct.
TCAS_SPAN_LIMIT_S = 2.0**32
#: The most steps a GPWS approach's fine loop may take.  Its blocks grow 4x
#: until one holds the approach, so an array stays under 4 MiB.
GPWS_STEP_LIMIT = 2**17


class ConfigError(Exception):
    """Invalid scenario configuration; message carries the failing field."""


def _obj(properties: dict, **keywords: Any) -> dict:
    return {"type": "object", "properties": properties, "additionalProperties": False, **keywords}


def _num(default: Optional[float] = None, **bounds: float) -> dict:
    """Number field; `default` is its built-in value (None: no default)."""

    schema = {"type": "number", **bounds}
    return schema if default is None else {**schema, "default": default}


_pos = functools.partial(_num, exclusiveMinimum=0)
_nonneg = functools.partial(_num, minimum=0)
_PROB = {"type": "number", "minimum": 0, "maximum": 1}
_DIST = {"type": "object", "additionalProperties": _PROB}

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
                "cruise": _obj({
                    "altitude_ft": {**_pos(12000.0, maximum=1e9), "description": "floats are "
                                    "1.2e-7 ft apart at 1e9 ft; 1e308 absorbs a -500 ft offset"},
                    "ground_speed_kn": {**_pos(230.0, maximum=1e4), "description": "1e4 kn "
                                        "is 2.2e13 m in a 2**32 s TCAS run; floats there are "
                                        "0.004 m apart"},
                }),
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
                        "apparent_descent_rate_mps": {
                            **_pos(15.4, maximum=1e9), "description": "m/s; the ramp "
                            "falls rate x 1.5 s, which overflows at 1e308"},
                    }
                ),
                "tcas": _obj(
                    {
                        "approach_bearing_deg": _num(45.0),
                        "approach_speed_mps": _pos(180.0),
                        "vertical_offset_ft": {**_num(-500.0, minimum=-1e9, maximum=1e9),
                                               "description": "ft; the slant range squares "
                                               "it, and floats are 1.2e-7 ft apart at 1e9 ft"},
                        "activation_floor_ft": _nonneg(2000.0),
                        "alert_budget": {"type": "integer", "minimum": 0, "default": 10},
                        "start_tau_s": _pos(50.0),
                        "bearing_jitter_deg": {**_nonneg(180.0, maximum=180), "description":
                                               "+/- degrees; 180 already covers every bearing"},
                        "speed_jitter_mps": {**_nonneg(60.0, maximum=sys.float_info.max / 2),
                                             "description": "+/- m/s; 2 * jitter must be finite"},
                        "position_m": {
                            "type": "array",
                            "items": {**_num(minimum=-1e9, maximum=1e9), "description": "m; "
                                      "floats are 1.2e-7 m apart at 1e9 m; at 1e308 the "
                                      "TOA check's distances overflow"},
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
                "sensor_extent_m": {**_pos(20000.0, maximum=1e9), "description": "floats are "
                                    "1.2e-7 m apart at 1e9 m; at 1e150 they hide kilometres"},
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

    return {key: _schema_defaults(sub) if "properties" in sub else copy.deepcopy(sub["default"])
            for key, sub in schema["properties"].items() if "properties" in sub or "default" in sub}


def default_config_dict(scenario: Optional[str] = None) -> Dict[str, Any]:
    """Schema defaults for `scenario` (the schema's default scenario if None),
    with that scenario's overrides merged in."""

    data = _schema_defaults(SCHEMA)
    scenario = scenario or data["scenario"]
    return _merge({**data, "scenario": scenario}, SCENARIOS[scenario].overrides)


def _merge(base: Dict[str, Any], override: Dict[str, Any]) -> Dict[str, Any]:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated config, built once by `make_config`.  `raw` is the merged
    JSON, kept only to write and re-resolve a run's ``config.json``; the trials
    and the CLI read the typed fields.  `glideslope` holds the genuine
    transmitter, then the rogue one when the attacker is enabled."""

    raw: Dict[str, Any] = field(repr=False)
    scenario: str
    trials: int
    master_seed: int
    output_dir: str
    attacker_enabled: bool
    altitude_trace: bool
    dt_s: float
    runway: RunwayModel
    terrain: TerrainProfile
    approach_ground_speed_kn: float
    approach_descent_rate_fpm: float
    approach_start_agl_ft: float
    cruise_altitude_ft: float
    cruise_ground_speed_kn: float
    gpws_attack_schedule: AttackSchedule
    apparent_descent_rate_mps: float
    gpws_policy: crew.GpwsPolicy
    tcas_thresholds: AdvisoryThresholds
    max_episodes: int
    inter_episode_gap_s: float
    false_intruder_plan: FalseIntruderPlan
    attacker_position_m: Tuple[float, float, float]
    tcas_policy: crew.TcasPolicy
    glideslope: Tuple[GlideslopeTx, ...]
    gs_policy: crew.GsPolicy
    sensor_extent_m: float
    clock_jitter_ns: float
    residual_threshold_m: float


_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "integer": int, "number": numbers.Number}


def _is(kind: str, value: Any) -> bool:
    """JSON Schema's `type`, but an `integer` is an `int`: 3.0 is a `number` only."""

    return isinstance(value, _TYPES[kind]) and (kind == "boolean") == isinstance(value, bool)


#: jsonschema's messages for each keyword `SCHEMA` uses, from (its argument,
#: the value, the enclosing schema).  `_check` descends by `properties`,
#: `additionalProperties` and `items` itself.
_KEYWORDS: Dict[str, Callable[[Any, Any, dict], List[str]]] = {
    "type": lambda t, v, s: [] if _is(t, v) else [f"{v!r} is not of type {t!r}"],
    "enum": lambda e, v, s: [] if any(x == v and isinstance(x, bool) == isinstance(v, bool)
                                      for x in e) else [f"{v!r} is not one of {e!r}"],
    "const": lambda c, v, s: [f"{c!r} was expected"] if _KEYWORDS["enum"]([c], v, s) else [],
    "minimum": lambda n, v, s: [f"{v!r} is less than the minimum of {n!r}"]
    if _is("number", v) and v < n else [],
    "exclusiveMinimum": lambda n, v, s: [f"{v!r} is less than or equal to the minimum of {n!r}"]
    if _is("number", v) and v <= n else [],
    "maximum": lambda n, v, s: [f"{v!r} is greater than the maximum of {n!r}"]
    if _is("number", v) and v > n else [],
    "minItems": lambda n, v, s: [f"{v!r} is too short"] if _is("array", v) and len(v) < n else [],
    "maxItems": lambda n, v, s: [f"{v!r} is too long"] if _is("array", v) and len(v) > n else [],
    "required": lambda r, v, s: [f"{k!r} is a required property" for k in r
                                 if _is("object", v) and k not in v],
    "additionalProperties": lambda a, v, s: [
        f"Additional properties are not allowed ({', '.join(map(repr, x))} "
        f"{'was' if len(x) == 1 else 'were'} unexpected)"
        for x in [sorted((k for k in v if k not in s.get("properties", {})), key=str)] if x
    ] if a is False and _is("object", v) else [],
    **dict.fromkeys(["properties", "items", "default", "description"], lambda *_: []),
}


def _check(schema: dict, value: Any, path: tuple = ()) -> Iterator[Tuple[bool, tuple, str]]:
    """Every error of `value` under `schema`, as (from a keyword?, path, message):
    a number beyond float range anywhere (the bounds let NaN pass, and an int
    overflows in arithmetic), then each keyword the value fails, in the
    schema's order; then the same for each item or member."""

    if _is("number", value) and not -sys.float_info.max <= value <= sys.float_info.max:
        yield False, path, f"must be a finite number, got {value}"
    for keyword, arg in schema.items():
        yield from ((True, path, msg) for msg in _KEYWORDS[keyword](arg, value, schema))
    extra = schema.get("items" if isinstance(value, list) else "additionalProperties")
    known, extra = schema.get("properties", {}), extra if isinstance(extra, dict) else {}
    children = dict(enumerate(value)) if isinstance(value, list) else value
    for key, child in children.items() if isinstance(children, dict) else ():
        yield from _check(known.get(key, extra), child, path + (key,))


def validate_config_dict(data: Dict[str, Any]) -> None:
    # Non-finite numbers in document order, then keyword errors by path, as jsonschema sorts.
    errors = sorted(_check(SCHEMA, data), key=lambda e: (e[0], e[1] if e[0] else ()))
    if errors:
        raise ConfigError("; ".join(
            f"{'.'.join(map(str, path)) or '<root>'}: {msg}" for _, path, msg in errors))


def field_errors(name: str, value: Any) -> List[str]:
    """The schema's messages for `value` as the top-level field `name`."""

    return [msg for _, _, msg in _check(SCHEMA["properties"][name], value)]


def _build(path: str, make: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """`make(*args, **kwargs)`; its ValueError/TypeError is a config error at
    `path`, or at the policy field below it that a `crew.PolicyFieldError`
    names."""

    try:
        return make(*args, **kwargs)
    except crew.PolicyFieldError as exc:
        raise ConfigError(f"{path}.{exc}") from exc
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def make_config(data: Dict[str, Any]) -> ScenarioConfig:
    """Validate a (possibly partial) config dict, merge it over the defaults
    and build every object the trials read; building them is the semantic
    validation, so a `ConfigError` names the failing field."""

    if not isinstance(data, dict):
        raise ConfigError("<root>: config must be a JSON object")
    validate_config_dict(data)
    raw = _merge(default_config_dict(data["scenario"]), data)
    validate_config_dict(raw)
    world, attacker, policies = raw["world"], raw["attacker"], raw["policies"]
    rw, ap, cruise = world["runway"], world["approach"], world["cruise"]
    a_gpws, a_tcas, a_gs = attacker["gpws"], attacker["tcas"], attacker["gs"]
    sysc, sen = raw["tcas_system"], raw["sentinel"]

    runway = _build(
        "world.runway.touchdown_zone_offset_m", RunwayModel,
        threshold_position=rw["threshold_position_m"],
        touchdown_zone_offset=rw["touchdown_zone_offset_m"],
        elevation=rw["elevation_m"],
        true_bearing=0.0,  # the frame is runway-aligned: no computation reads it
        length=rw["length_m"],
    )
    angle = a_gs["path_angle_deg"]
    glideslope = [_build("attacker.gs.path_angle_deg", GlideslopeTx,
                         antenna_position=runway.touchdown_zone_offset, path_angle=angle)]
    if attacker["enabled"]:
        glideslope.append(GlideslopeTx(
            antenna_position=runway.touchdown_zone_offset + a_gs["shift_m"],
            path_angle=angle, tx_power=a_gs["tx_power_w"], legitimacy="adversarial",
        ))
    gpws_policy = dict(policies["gpws"])
    if "approach_actions" in gpws_policy:
        gpws_policy["approach_actions"] = tuple(gpws_policy["approach_actions"])

    cfg = ScenarioConfig(
        raw=raw,
        scenario=raw["scenario"],
        trials=raw["trials"],
        master_seed=raw["master_seed"],
        output_dir=raw["output_dir"],
        attacker_enabled=attacker["enabled"],
        altitude_trace=raw["output"]["altitude_trace"],
        dt_s=world["dt_s"],
        runway=runway,
        terrain=_build("world.terrain", TerrainProfile, [tuple(p) for p in world["terrain"]]),
        approach_ground_speed_kn=ap["ground_speed_kn"],
        approach_descent_rate_fpm=ap["descent_rate_fpm"],
        approach_start_agl_ft=ap["start_agl_ft"],
        cruise_altitude_ft=cruise["altitude_ft"],
        cruise_ground_speed_kn=cruise["ground_speed_kn"],
        gpws_attack_schedule=AttackSchedule(
            base_trigger_ft=a_gpws["base_trigger_ft"],
            increment_per_approach_ft=a_gpws["increment_per_approach_ft"],
            jitter_window_ft=a_gpws["jitter_window_ft"],
        ),
        apparent_descent_rate_mps=a_gpws["apparent_descent_rate_mps"],
        gpws_policy=_build("policies.gpws", crew.GpwsPolicy, **gpws_policy),
        tcas_thresholds=_build(
            "tcas_system", AdvisoryThresholds,
            tau_ta_s=sysc["tau_ta_s"],
            tau_ra_s=sysc["tau_ra_s"],
            ta_band_ft=sysc["ta_band_ft"],
            ra_band_ft=sysc["ra_band_ft"],
        ),
        max_episodes=sysc["max_episodes"],
        inter_episode_gap_s=sysc["inter_episode_gap_s"],
        false_intruder_plan=FalseIntruderPlan(
            approach_bearing=a_tcas["approach_bearing_deg"],
            approach_speed=a_tcas["approach_speed_mps"],
            vertical_offset=a_tcas["vertical_offset_ft"],
            activation_floor=a_tcas["activation_floor_ft"],
            alert_budget=a_tcas["alert_budget"],
            start_tau_s=a_tcas["start_tau_s"],
            bearing_jitter_deg=a_tcas["bearing_jitter_deg"],
            speed_jitter_mps=a_tcas["speed_jitter_mps"],
        ),
        attacker_position_m=tuple(a_tcas["position_m"]),
        tcas_policy=_build("policies.tcas", crew.TcasPolicy, **policies["tcas"]),
        glideslope=tuple(glideslope),
        gs_policy=_build("policies.gs", crew.GsPolicy, **policies["gs"]),
        sensor_extent_m=sen["sensor_extent_m"],
        clock_jitter_ns=sen["clock_jitter_ns"],
        residual_threshold_m=sen["residual_threshold_m"],
    )
    # The approach is part of `world`, so every scenario needs terrain under
    # it, from its start point to the end of the runway.
    terrain = cfg.terrain
    lo, hi = terrain.domain
    first = approach_start(cfg, 0.0)
    start = first.along_track
    end = runway.threshold_position + runway.length
    if not lo <= start < end <= hi:
        raise ConfigError(
            f"world.terrain: covers {lo} to {hi} m, but the approach runs from "
            f"{start:.2f} m to the runway end at {end} m"
        )
    # The terrain must also stay below the descent path until the threshold,
    # or the approach flies into it.  Both are piecewise linear, so the end
    # points and the terrain vertices between them decide.
    threshold = runway.threshold_position
    if start < threshold:
        points = [(start, terrain.elevation_at(start))]
        points += [(x, z) for x, z in terrain.vertices if start < x < threshold]
        points.append((threshold, terrain.elevation_at(threshold)))
        for x, z in points:
            path = first.altitude_msl + first.vertical_speed * (x - start) / first.ground_speed
            # Meeting the path is contact, except where the path ends on the
            # ground: a touchdown zone at the threshold.
            if z > path or (z == path and x < runway.touchdown_zone_position):
                raise ConfigError(
                    f"world.terrain: {z:.2f} m at {x:.2f} m meets or rises above the "
                    f"approach path ({path:.2f} m there), which runs from "
                    f"{start:.2f} m to the runway threshold at {threshold} m"
                )
    # A GPWS fine loop flies from `gpws_lead_end` at the farthest to touchdown
    # (by the touchdown zone) and a step on; each step needs terrain under it.
    tdz, lead_end = runway.touchdown_zone_position, gpws_lead_end(cfg)
    reach = max(tdz, lead_end) + first.ground_speed * cfg.dt_s
    if reach > hi:
        name = "world.dt_s" if lead_end <= tdz else "world.runway.elevation_m"
        raise ConfigError(
            f"{name}: a GPWS fine loop may step to {reach:g} m, past the terrain's end at {hi} m:"
            f" one {cfg.dt_s:g} s step past the touchdown zone at {tdz} m or past its start, "
            f"{lead_end:g} m (its jump from the approach start, {first.altitude_msl:g} m high)")
    steps = cfg.approach_start_agl_ft / (cfg.approach_descent_rate_fpm / 60.0) / cfg.dt_s
    if steps > GPWS_STEP_LIMIT:
        raise ConfigError(
            f"world.dt_s: a GPWS approach (world.approach) may take {steps:g} fine-loop steps of "
            f"{cfg.dt_s:g} s, more than the {GPWS_STEP_LIMIT} its arrays are bounded by")
    # A glideslope crew cross-checks the glideslope, then may go around,
    # between the approach start and the runway threshold.  Above the start,
    # the event would come before t = 0; at or past the threshold there is no
    # PAPI picture, and the aircraft may be past a transmitter.
    gs_policy = cfg.gs_policy
    highest = gs_eval_agl(gs_policy.go_around_agl_hi_ft)
    if highest > cfg.approach_start_agl_ft:
        raise ConfigError(
            f"world.approach.start_agl_ft: the approach starts at "
            f"{cfg.approach_start_agl_ft} ft, below the highest crew go-around or "
            f"glideslope check height, {highest} ft (from policies.gs.go_around_agl_hi_ft)"
        )
    lowest = gs_eval_agl(gs_policy.go_around_agl_lo_ft)
    past = gs_path_along(cfg, lowest) - threshold
    if past >= 0:
        tx = flown_glideslope(cfg)
        fields = ["world.runway.touchdown_zone_offset_m"]
        if tx.legitimacy == "adversarial":
            fields.append("attacker.gs.shift_m")
        raise ConfigError(
            f"{fields[-1]}: the lowest glideslope check, at {lowest} ft (from "
            f"policies.gs.go_around_agl_lo_ft), lies {past:.2f} m past the runway "
            f"threshold on the flown {tx.path_angle} deg path (attacker.gs.path_angle_deg) "
            f"from the transmitter {tx.antenna_position} m beyond the threshold "
            f"({' + '.join(fields)})"
        )
    # A TCAS run's cycle times stay distinct, and the claim's reach within the
    # larger tau (+ 1 s) squares in float range, as `_first_cycles` needs.
    plan = cfg.false_intruder_plan
    span = min(cfg.max_episodes, TCAS_SPAN_LIMIT_S) * (
        float(cfg.inter_episode_gap_s) + math.ceil(plan.start_tau_s))
    if span > TCAS_SPAN_LIMIT_S:
        raise ConfigError(
            f"tcas_system.inter_episode_gap_s: a TCAS run may span {span:g} s (tcas_system."
            f"max_episodes x (tcas_system.inter_episode_gap_s + ceil(attacker.tcas.start_tau_s)))"
            f", past the {TCAS_SPAN_LIMIT_S:.0f} s within which its 1 Hz cycle times stay distinct")
    speed = max(MIN_CLOSURE_MPS, float(plan.approach_speed) + plan.speed_jitter_mps)
    reach = speed * (cfg.tcas_thresholds.tau_ta_s + 1.0)
    if not math.isfinite(reach * reach):
        raise ConfigError(
            f"attacker.tcas.approach_speed_mps: a claim may close at {speed:g} m/s (with "
            f"attacker.tcas.speed_jitter_mps), {reach:g} m in tcas_system.tau_ta_s + 1 s, "
            "whose square overflows")
    return cfg


def load_config(path: str | Path) -> ScenarioConfig:
    """`make_config` of a JSON file (see `read_config`)."""

    return read_config(path)[1]


def read_config(path: str | Path) -> Tuple[Dict[str, Any], ScenarioConfig]:
    """A JSON config file's own settings and their `make_config`; errors start with its path."""

    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # An integer of more than 4,300 digits; arrays nested about 1,000 deep.
        raise ConfigError(f"{path}: cannot parse JSON: {exc}") from exc
    try:
        return raw, make_config(raw)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
