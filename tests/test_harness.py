"""Config validation, trial logs, determinism, summaries, costs, CLI."""

import dataclasses
import itertools
import json
import math
import re
import sys
import tracemalloc
import warnings
import unittest.mock
import weakref

import pytest
import numpy as np
from hypothesis import example, given, settings, strategies as st

from spoofsim import ils, sentinel, tcas
from spoofsim.harness import (
    ConfigError,
    default_config_dict,
    disruption_cost,
    load_config,
    run,
    summarize,
)
from spoofsim.harness import cost as cost_mod
from spoofsim.harness import log as log_module
from spoofsim.harness import output, runner
from spoofsim.harness.cli import main
from spoofsim.harness.config import GPWS_STEP_LIMIT, make_config, validate_config_dict
from spoofsim.harness.log import TrialLog
from spoofsim.harness.output import emit, load_run, read_logs
from spoofsim.harness.runner import CHUNK_TRIALS, run_chunks, trial_seeds
from spoofsim.harness.scenarios import SCENARIOS, approach_start
from spoofsim.harness.seeds import seed_states, trial_generators
from spoofsim.harness.summary import Summary, _mean_sd


def small_config(scenario, trials=5, **extra):
    data = {"version": 1, "scenario": scenario, "trials": trials}
    data.update(extra)
    return make_config(data)


def _reread(out):
    """A run directory's config and all its trial logs, read as `summarize` reads them."""

    cfg = load_run(out)
    return cfg, list(read_logs(out, cfg, range(cfg.trials)))


# ---------------------------------------------------------------------------
# config


def test_default_config_valid():
    for scenario in ("GPWS", "TCAS", "GS", "BASELINE"):
        cfg = make_config(default_config_dict(scenario))
        assert cfg.scenario == scenario


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        make_config({"version": 1, "scenario": "GPWS", "bogus": 1})
    with pytest.raises(ConfigError):
        make_config({"version": 1, "scenario": "GPWS", "world": {"gravity": 9.8}})


def test_bad_values_rejected():
    with pytest.raises(ConfigError):
        make_config({"version": 2, "scenario": "GPWS"})
    with pytest.raises(ConfigError):
        make_config({"version": 1, "scenario": "NOPE"})
    with pytest.raises(ConfigError):
        make_config({"version": 1, "scenario": "GPWS", "trials": 0})


def test_config_error_names_field():
    with pytest.raises(ConfigError, match="trials"):
        make_config({"version": 1, "scenario": "GPWS", "trials": -3})
    # A semantic error (one the schema cannot express) names its JSON path too.
    with pytest.raises(ConfigError, match=r"^world\.runway\.touchdown_zone_offset_m: "):
        make_config({"version": 1, "scenario": "GPWS",
                     "world": {"runway": {"touchdown_zone_offset_m": 3000}}})
    with pytest.raises(ConfigError, match=r"^policies\.gs: fallback approaches"):
        make_config({"version": 1, "scenario": "GS",
                     "policies": {"gs": {"fallback_approaches": {"VOR": 0.5}}}})
    with pytest.raises(ConfigError, match=r"^attacker\.gs\.path_angle_deg: "):
        make_config({"version": 1, "scenario": "GS", "attacker": {"gs": {"path_angle_deg": 12}}})


@pytest.mark.parametrize("system, field", [
    ({"tau_ta_s": 20, "tau_ra_s": 40}, "tau_ra_s"),
    ({"tau_ta_s": 30, "tau_ra_s": 30}, "tau_ra_s"),
    ({"ta_band_ft": 500, "ra_band_ft": 600}, "ra_band_ft"),
])
def test_tcas_threshold_ordering_rejected(tmp_path, system, field):
    """An RA must fire inside the TA region: every scenario rejects a config
    whose RA thresholds are looser than its TA thresholds, with exit 2."""

    for scenario in ("TCAS", "GPWS"):
        with pytest.raises(ConfigError, match=rf"^tcas_system: {field} "):
            make_config({"version": 1, "scenario": scenario, "tcas_system": system})
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"version": 1, "scenario": "TCAS", "tcas_system": system}))
    assert main(["validate-config", "--config", str(path)]) == 2
    # Equal bands are consistent.
    make_config({"version": 1, "scenario": "TCAS",
                 "tcas_system": {"ta_band_ft": 600, "ra_band_ft": 600}})


def test_terrain_must_cover_approach(tmp_path):
    """The terrain must lie under the approach, from its start point (8,298.57 m
    before the threshold on the default approach) to the runway end (2,600 m),
    for every scenario; a config that passes runs to completion."""

    short = {"world": {"terrain": [[0, 100], [1, 100]]}}
    for scenario in ("GPWS", "TCAS", "GS", "BASELINE"):
        with pytest.raises(ConfigError, match=r"^world\.terrain: "):
            make_config({"version": 1, "scenario": scenario, **short})
    for terrain in ([[-8298, 100], [2600, 100]], [[-8300, 100], [2599, 100]]):
        with pytest.raises(ConfigError, match=r"^world\.terrain: "):
            make_config({"version": 1, "scenario": "GPWS", "world": {"terrain": terrain}})
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"version": 1, "scenario": "GPWS", **short}))
    assert main(["validate-config", "--config", str(path)]) == 2
    covering = small_config("GPWS", trials=20,
                            world={"terrain": [[-8299, 100], [2600, 100]]})
    assert len(run(covering)) == 20


def test_terrain_below_runway_lands(tmp_path):
    """Terrain that falls below the runway elevation after the threshold: the
    GPWS approach ends at touchdown on the runway instead of descending past
    the runway end and off the terrain profile."""

    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "version": 1, "scenario": "GPWS",
        "world": {"terrain": [[-9000, 100], [0, 100], [2600, -100]]},
        "attacker": {"gpws": {"apparent_descent_rate_mps": 0.1}},
    }))
    out = tmp_path / "out"
    assert main(["validate-config", "--config", str(path)]) == 0
    assert main(["run", "--config", str(path), "--trials", "20", "--out", str(out)]) == 0
    logs = _reread(out)[1]
    assert len(logs) == 20
    assert all(log.outcome == "LANDED" for log in logs)


def test_terrain_above_approach_path_rejected(tmp_path, capsys):
    """Terrain that meets or rises above the descent path between the
    approach start and the runway threshold is rejected up front, naming
    `world.terrain`, for every scenario; otherwise the approach flies into
    it.  Terrain just below the path, or meeting it only at a threshold that
    is also the touchdown zone, is accepted."""

    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "version": 1, "scenario": "GPWS",
        "world": {"terrain": [[-9000, 100], [-1000, 100], [0, 160], [2600, 160]]},
        "attacker": {"gpws": {"apparent_descent_rate_mps": 0.1}},
    }))
    assert main(["validate-config", "--config", str(path)]) == 2
    assert re.search(r"world\.terrain: .*approach path", capsys.readouterr().err)
    assert main(["run", "--config", str(path), "--trials", "5",
                 "--out", str(tmp_path / "out")]) == 2

    first = approach_start(small_config("GPWS"), 0.0)
    start, top = first.along_track, first.altitude_msl
    def ridge(z):  # a ridge at -4,000 m, where the default path is at 328.6 m MSL
        return {"terrain": [[-9000, 100], [-4000, z], [0, 100], [2600, 100]]}

    for scenario in ("GPWS", "TCAS", "GS", "BASELINE"):
        with pytest.raises(ConfigError, match=r"^world\.terrain: .*approach path"):
            small_config(scenario, world=ridge(330))
    assert small_config("GPWS", world=ridge(328))
    # Meeting the path is flying into the terrain: at the approach start ...
    with pytest.raises(ConfigError, match=r"^world\.terrain: "):
        small_config("GPWS", world={"terrain": [[start, top], [0, 100], [2600, 100]]})
    # ... or at the threshold, short of the touchdown zone.
    with pytest.raises(ConfigError, match=r"^world\.terrain: "):
        small_config("GPWS", world={"terrain": [[-9000, 100], [0, 116], [2600, 100]]})
    at_threshold = {"touchdown_zone_offset_m": 0.0}
    assert small_config("GPWS", world={"runway": at_threshold})
    with pytest.raises(ConfigError, match=r"^world\.terrain: "):
        small_config("GPWS", world={"runway": at_threshold,
                                    "terrain": [[-9000, 100], [0, 100.5], [2600, 100]]})


def _cli_rejects(tmp_path, capsys, data, pattern):
    """`validate-config` and `run` both exit 2 on `data`, with `pattern` in
    the error, and `run` writes no output directory."""

    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    assert main(["validate-config", "--config", str(path)]) == 2
    assert re.search(pattern, capsys.readouterr().err)
    assert main(["run", "--config", str(path), "--trials", "3",
                 "--out", str(tmp_path / "out")]) == 2
    assert re.search(pattern, capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("override, field, also", [
    ({"attacker": {"gs": {"shift_m": 2899}}}, "attacker.gs.shift_m", "shift_m"),
    ({"attacker": {"gs": {"shift_m": 3000}}}, "attacker.gs.shift_m", "shift_m"),
    ({"attacker": {"gs": {"shift_m": 4100}}}, "attacker.gs.shift_m", "shift_m"),
    ({"world": {"runway": {"touchdown_zone_offset_m": 1200}}}, "attacker.gs.shift_m",
     "world.runway.touchdown_zone_offset_m"),
    ({"attacker": {"gs": {"path_angle_deg": 6}}}, "attacker.gs.shift_m",
     "attacker.gs.path_angle_deg"),
    # A rogue transmitter weaker than the genuine one: the genuine path is flown.
    ({"world": {"runway": {"touchdown_zone_offset_m": 3500, "length_m": 5000}},
      "attacker": {"gs": {"tx_power_w": 1}}}, "world.runway.touchdown_zone_offset_m",
     "world.runway.touchdown_zone_offset_m"),
], ids=["shift-2899", "shift-3000", "shift-4100", "tdz-1200", "angle-6", "genuine-flown"])
def test_gs_check_past_threshold_rejected(tmp_path, capsys, override, field, also):
    """The glideslope cross-check at its lowest, max(go_around_agl_lo_ft,
    550 ft) on the flown path, must come before the runway threshold (and so
    before both transmitters); these runs used to exit 3 mid-run.  Every
    scenario rejects them with exit 2, naming the field that places the
    flown transmitter and the one changed."""

    for scenario in ("GPWS", "TCAS", "GS"):
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: .*threshold") as err:
            make_config({"version": 1, "scenario": scenario, **override})
        assert also in str(err.value) and "go_around_agl_lo_ft" in str(err.value)
    _cli_rejects(tmp_path, capsys, {"version": 1, "scenario": "GS", **override},
                 rf"{re.escape(field)}: ")


@pytest.mark.parametrize("override", [
    {"attacker": {"gs": {"shift_m": 2898}}},
    # A higher lowest check, 700 ft, lies before the threshold.
    {"attacker": {"gs": {"shift_m": 3000}}, "policies": {"gs": {"go_around_agl_lo_ft": 700}}},
    # No rogue transmitter: the genuine path is flown.
    {"attacker": {"enabled": False, "gs": {"shift_m": 4100}}},
], ids=["shift-2898", "shift-3000-lo-700", "no-attacker"])
def test_gs_check_before_threshold_runs(tmp_path, override):
    cfg = make_config({"version": 1, "scenario": "GS", "trials": 40, **override})
    assert len(run(cfg)) == 40


@pytest.mark.parametrize("override", [
    {"world": {"approach": {"start_agl_ft": 500}}},
    {"world": {"approach": {"start_agl_ft": 1400}}},
    {"policies": {"gs": {"go_around_agl_hi_ft": 3000, "go_around_agl_mean_ft": 1500}}},
], ids=["start-500", "start-1400", "hi-3000"])
def test_gs_go_around_above_approach_start_rejected(tmp_path, capsys, override):
    """A crew go-around height, or the glideslope check (no lower than
    550 ft), above the approach start came before t = 0 (the first event at
    t = -38.08 s for a 500 ft start).  Every scenario rejects it with exit 2;
    a go-around ceiling at the start height runs with no event before t = 0."""

    pattern = r"^world\.approach\.start_agl_ft: .*policies\.gs\.go_around_agl_hi_ft"
    for scenario in ("GPWS", "TCAS", "GS", "BASELINE"):
        with pytest.raises(ConfigError, match=pattern):
            make_config({"version": 1, "scenario": scenario, **override})
    _cli_rejects(tmp_path, capsys, {"version": 1, "scenario": "GS", **override},
                 pattern.lstrip("^"))
    cfg = make_config({"version": 1, "scenario": "GS", "trials": 40,
                       "world": {"approach": {"start_agl_ft": 1200}},
                       "policies": {"gs": {"go_around_agl_hi_ft": 1200}}})
    assert min(e["t"] for log in run(cfg) for e in log.events) >= 0.0


@pytest.mark.parametrize("text, field", [
    ('{"version": 1, "scenario": "GPWS", "world": {"terrain": [[-9000, NaN], [2600, 100]]}}',
     r"world\.terrain\.0\.1: must be a finite number, got nan"),
    ('{"version": 1, "scenario": "GPWS", "world": {"dt_s": NaN}}',
     r"world\.dt_s: must be a finite number, got nan"),
    ('{"version": 1, "scenario": "TCAS", "attacker": {"tcas": {"start_tau_s": Infinity}}}',
     r"attacker\.tcas\.start_tau_s: must be a finite number, got inf"),
], ids=["terrain-nan", "dt-nan", "start-tau-inf"])
def test_non_finite_numbers_rejected(tmp_path, capsys, text, field):
    """JSON's NaN and Infinity literals parse, and the schema bounds let NaN
    through; both commands reject them with exit 2, naming the field."""

    path = tmp_path / "c.json"
    path.write_text(text)
    assert main(["validate-config", "--config", str(path)]) == 2
    assert re.search(field, capsys.readouterr().err)
    assert main(["run", "--config", str(path), "--trials", "3",
                 "--out", str(tmp_path / "out")]) == 2
    assert re.search(field, capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("data, field", [
    ({"version": 1, "scenario": "TCAS", "trials": 3.0}, "trials"),
    ({"version": 1, "scenario": "GPWS", "master_seed": 5.0}, "master_seed"),
    ({"version": 1, "scenario": "TCAS", "tcas_system": {"max_episodes": 2.0}},
     "tcas_system.max_episodes"),
    ({"version": 1, "scenario": "TCAS", "attacker": {"tcas": {"alert_budget": 2.0}}},
     "attacker.tcas.alert_budget"),
], ids=["trials", "master-seed", "max-episodes", "alert-budget"])
def test_integral_floats_in_integer_fields_rejected(tmp_path, capsys, data, field):
    """A count is an `int`.  `trials: 3.0` used to validate, then `run` failed
    with a TypeError traceback after making `trials/`; both commands now
    reject every integer field given as a float with exit 2."""

    _cli_rejects(tmp_path, capsys, data, rf"{re.escape(field)}: \d\.0 is not of type 'integer'")


@pytest.mark.parametrize("field, bound", [
    ("bearing_jitter_deg", 180), ("speed_jitter_mps", sys.float_info.max / 2)])
def test_unbounded_injector_jitter_rejected(tmp_path, capsys, field, bound):
    """A jitter of 1e308 used to validate, then `run` failed with an
    OverflowError traceback from `Generator.uniform` after making `trials/`.
    Both commands now reject it with exit 2, naming the field; the bound
    itself validates."""

    data = {"version": 1, "scenario": "TCAS", "attacker": {"tcas": {field: 1e308}}}
    _cli_rejects(tmp_path, capsys, data, rf"attacker\.tcas\.{field}: 1e\+308 is greater "
                                         rf"than the maximum of {re.escape(repr(bound))}")
    data["attacker"]["tcas"][field] = bound
    validate_config_dict(data)


_SPAN = (r"tcas_system\.inter_episode_gap_s: a TCAS run may span {} s \(tcas_system\.max_episodes "
         r"x \(tcas_system\.inter_episode_gap_s \+ ceil\(attacker\.tcas\.start_tau_s\)\)\)")
_CLOSURE = (r"attacker\.tcas\.approach_speed_mps: a claim may close at {} m/s \(with "
            r"attacker\.tcas\.speed_jitter_mps\), .* whose square overflows")


@pytest.mark.parametrize("data, pattern", [
    ({"tcas_system": {"inter_episode_gap_s": 1e16}}, _SPAN.format(r"3e\+17")),
    ({"tcas_system": {"inter_episode_gap_s": 1e308}}, _SPAN.format("inf")),
    ({"attacker": {"tcas": {"approach_speed_mps": 1e300}}}, _CLOSURE.format(r"1e\+300")),
    ({"attacker": {"tcas": {"speed_jitter_mps": 1e154}}}, _CLOSURE.format(r"1e\+154")),
    ({"sentinel": {"sensor_extent_m": 1e150}},
     r"sentinel\.sensor_extent_m: 1e\+150 is greater than the maximum of 1000000000\.0"),
    ({"world": {"approach": {"start_agl_ft": 10**400}}},
     r"world\.approach\.start_agl_ft: must be a finite number, got 1000"),
], ids=["gap-1e16", "gap-1e308", "approach-speed-1e300", "speed-jitter-1e154",
        "sensor-extent-1e150", "start-agl-10**400"])
def test_values_past_float_resolution_rejected(tmp_path, capsys, data, pattern):
    """Values that floats cannot carry through a run are rejected up front,
    with exit 2 naming the field, by both commands.  A TCAS time span of
    1e16 s used to validate and put later cycles 2 s apart; one of 1e308
    exited 3 mid-run.  A closure of 1e154 m/s made `run` exit 1 with an
    OverflowError traceback.  A sensor grid 1e150 m out made `detect`
    call every message CLEAN, its displacement lost in rounding.  An integer
    beyond float range made `validate-config` exit 1 with an OverflowError
    traceback."""

    _cli_rejects(tmp_path, capsys, {"version": 1, "scenario": "TCAS", **data}, pattern)


def test_values_at_the_float_bounds_run(tmp_path, capsys):
    """The largest time span (2**32 s) and a closure whose reach squares just
    inside float range validate and run."""

    for data in ({"tcas_system": {"max_episodes": 1, "inter_episode_gap_s": 2.0**32 - 50}},
                 {"attacker": {"tcas": {"speed_jitter_mps": 1e152}}}):
        path, out = tmp_path / "c.json", tmp_path / "out"
        path.write_text(json.dumps({"version": 1, "scenario": "TCAS", **data}))
        assert main(["validate-config", "--config", str(path)]) == 0
        assert main(["run", "--config", str(path), "--trials", "3", "--out", str(out)]) == 0
    capsys.readouterr()


_GPWS_REACH = r"{}: a GPWS fine loop may step to {} m, past the terrain's end at 50000\.0 m"


def _max(field, bound):
    return rf"{re.escape(field)}: 1e\+308 is greater than the maximum of {re.escape(repr(bound))}"


@pytest.mark.parametrize("data, pattern", [
    ({"scenario": "GPWS", "world": {"dt_s": 1e15}},
     _GPWS_REACH.format(r"world\.dt_s", r"6\.68778e\+16")),
    ({"scenario": "GPWS", "world": {"runway": {"elevation_m": 1e15}}},
     _GPWS_REACH.format(r"world\.runway\.elevation_m", r"1\.8807e\+16")),
    ({"scenario": "TCAS", "world": {"cruise": {"ground_speed_kn": 1e308}}},
     _max("world.cruise.ground_speed_kn", 1e4)),
    ({"scenario": "TCAS", "world": {"cruise": {"altitude_ft": 1e308}}},
     _max("world.cruise.altitude_ft", 1e9)),
    ({"scenario": "TCAS", "attacker": {"tcas": {"vertical_offset_ft": 1e308}}},
     _max("attacker.tcas.vertical_offset_ft", 1e9)),
    ({"scenario": "TCAS", "attacker": {"tcas": {"vertical_offset_ft": -1e308}}},
     r"attacker\.tcas\.vertical_offset_ft: -1e\+308 is less than the minimum of "
     r"-1000000000\.0"),
    ({"scenario": "TCAS", "attacker": {"tcas": {"position_m": [1e308, 0, 0]}}},
     _max("attacker.tcas.position_m.0", 1e9)),
    ({"scenario": "TCAS", "attacker": {"tcas": {"position_m": [0, 0, -1e308]}}},
     r"attacker\.tcas\.position_m\.2: -1e\+308 is less than the minimum of -1000000000\.0"),
    ({"scenario": "GPWS", "attacker": {"gpws": {"apparent_descent_rate_mps": 1e308}}},
     _max("attacker.gpws.apparent_descent_rate_mps", 1e9)),
], ids=["gpws-dt-1e15", "gpws-runway-elevation-1e15", "tcas-ground-speed-1e308",
        "tcas-altitude-1e308", "tcas-offset-1e308", "tcas-offset-minus-1e308",
        "tcas-attacker-site-1e308", "tcas-attacker-site-minus-1e308", "gpws-ramp-rate-1e308"])
def test_geometry_and_magnitudes_that_break_a_run_rejected(tmp_path, capsys, data, pattern):
    """Configs that validated and then could not run consistently are
    rejected up front, with exit 2 naming the field, by both commands.  The
    two GPWS ones stepped off the terrain: `run` exited 3 after making an
    empty `trials/`.  A 1e308 kn cruise logged an infinite claimed position
    that `detect` refused as corrupt; a 1e308 ft offset overflowed the slant
    range; a 1e308 ft cruise absorbed the claim's offset, so its RAs read
    HOLD_VS.  An attacker site 1e308 m out made `detect` call every message
    UNDETERMINED, its distances overflowed; a 1e308 m/s ramp overflowed
    `radalt.ramp_heights` with a RuntimeWarning."""

    _cli_rejects(tmp_path, capsys, {"version": 1, "trials": 3, **data}, pattern)


def test_gpws_step_limit_rejected_up_front(tmp_path, capsys):
    """A 1e-9 s step validated, and `run` then asked for one 47.7 GiB block.
    `make_config` and `validate-config` now reject steps that would make an
    approach's fine loop longer than `GPWS_STEP_LIMIT`, with exit 2 naming
    `world.dt_s`; a step just inside it validates.  Nothing here runs: a run
    past a missing check would allocate that block."""

    pattern = (r"world\.dt_s: a GPWS approach \(world\.approach\) may take 1\.28571e\+11 "
               rf"fine-loop steps of 1e-09 s, more than the {GPWS_STEP_LIMIT} its arrays")
    data = {"version": 1, "scenario": "GPWS", "trials": 3, "world": {"dt_s": 1e-9}}
    with pytest.raises(ConfigError, match=pattern):
        make_config(data)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    assert main(["validate-config", "--config", str(path)]) == 2
    assert re.search(pattern, capsys.readouterr().err)
    # The default approach, 1500 ft at 700 ft/min, lasts 128.57 s.
    data["world"]["dt_s"] = 128.6 / GPWS_STEP_LIMIT
    make_config(data)


@pytest.mark.parametrize("data", [
    {"world": {"cruise": {"ground_speed_kn": 1e4}}},
    {"world": {"cruise": {"altitude_ft": 1e9}}},
    {"attacker": {"tcas": {"vertical_offset_ft": 1e9}}},
    {"attacker": {"tcas": {"vertical_offset_ft": -1e9}}},
    {"attacker": {"tcas": {"position_m": [1e9] * 3}}},
    {"attacker": {"tcas": {"position_m": [-1e9] * 3}}},
], ids=["ground-speed", "altitude", "offset", "minus-offset", "attacker-site",
        "minus-attacker-site"])
def test_tcas_magnitudes_at_their_bounds_run(tmp_path, capsys, data):
    """Each TCAS magnitude at its schema bound validates, runs without a
    floating-point warning and logs finite numbers that `detect` reads and
    resolves: no message is UNDETERMINED."""

    path, out = tmp_path / "c.json", tmp_path / "out"
    path.write_text(json.dumps({"version": 1, "scenario": "TCAS", **data}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(path), "--trials", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["detect", "--out", str(out)]) == 0
    assert "Infinity" not in "".join(p.read_text() for p in (out / "trials").iterdir())
    assert re.fullmatch(r"checked \d+ messages: \d+ SUSPECT \(\d+\.\d%\)\n",
                        capsys.readouterr().out)


def test_ramp_rate_at_its_bound_runs(tmp_path, capsys):
    """A GPWS ramp at the schema's bound, 1e9 m/s, runs and summarizes
    without a floating-point warning."""

    path, out = tmp_path / "c.json", tmp_path / "out"
    path.write_text(json.dumps({"version": 1, "scenario": "GPWS",
                                "attacker": {"gpws": {"apparent_descent_rate_mps": 1e9}}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(path), "--trials", "20", "--out", str(out)]) == 0
        assert main(["summarize", "--out", str(out)]) == 0
    capsys.readouterr()


_TABLE = re.escape("policies.tcas.action_given_final_mode")
_GPWS_TABLE = re.escape("policies.gpws.approach_actions")


@pytest.mark.parametrize("scenario, policies, field", [
    ("TCAS", {"tcas": {"action_given_final_mode": {"TA_RA": {"CONTINUE": 1}}}},
     rf"{_TABLE}: needs a row .*missing TA_ONLY, STANDBY"),
    ("TCAS", {"tcas": {"action_given_final_mode": {
        "TA_RA": {"CONTINUE": 1}, "TA_ONLY": {"LAND": 1}, "STANDBY": {"LAND": 1}}}},
     rf"{_TABLE}\.TA_ONLY: unknown action 'LAND'"),
    ("TCAS", {"tcas": {"action_given_final_mode": {
        "TA_RA": {"CONTINUE": 0.5, "DIVERT": 0.5}, "TA_ONLY": {"CONTINUE": 1},
        "STANDBY": {"CONTINUE": 1}}}},
     rf"{_TABLE}\.TA_RA: must be"),
    ("TCAS", {"tcas": {"action_given_final_mode": {
        "TA_RA": {"CONTINUE": 1}, "TA_ONLY": {"CONTINUE": 1}, "STANDBY": {"CONTINUE": 1},
        "OFF": {"CONTINUE": 1}}}},
     rf"{_TABLE}\.OFF: unknown mode"),
    ("TCAS", {"tcas": {"ras_before_ta_only_mean": 0.5}},
     r"policies\.tcas\.ras_before_ta_only_mean: mean 0\.5 .*\(1\.0, inf\)"),
    ("TCAS", {"tcas": {"ras_before_ta_only_mean": 1}},
     r"policies\.tcas\.ras_before_ta_only_mean: "),
    ("TCAS", {"tcas": {"extra_tas_before_standby_mean": 0}},
     r"policies\.tcas\.extra_tas_before_standby_mean: "),
    ("GPWS", {"gpws": {"reaction_latency_mean_s": 0}},
     r"policies\.gpws\.reaction_latency_mean_s: "),
    ("GPWS", {"gpws": {"approach_actions": []}},
     rf"{_GPWS_TABLE}: needs at least one row"),
    ("GPWS", {"gpws": {"approach_actions": [{"LAND": 1}, {"LANDD": 1}]}},
     rf"{_GPWS_TABLE}\.1: unknown action 'LANDD'"),
    ("GS", {"gs": {"go_around_agl_mean_ft": 1600}},
     r"policies\.gs\.go_around_agl_mean_ft: mean 1600 .*\(200\.0, 1500\.0\)"),
    ("GS", {"gs": {"go_around_agl_mean_ft": 700, "go_around_agl_lo_ft": 700}},
     r"policies\.gs\.go_around_agl_mean_ft: "),
], ids=["table-partial", "table-land", "table-ta-ra", "table-unknown-mode",
        "ras-mean-0.5", "ras-mean-at-floor", "extra-tas-mean-0", "latency-mean-0",
        "gpws-table-empty", "gpws-table-landd",
        "go-around-mean-1600", "go-around-mean-at-lo"])
def test_unusable_crew_policies_rejected(tmp_path, capsys, scenario, policies, field):
    """A crew table without a row for every final mode, or with an action the
    outcome map does not know, died mid-run with a KeyError traceback (exit
    1); an empty GPWS table died with an IndexError traceback (exit 1), and an
    unknown GPWS action landed and then failed the log check (exit 3); a
    bounded mean on or outside its sampler's bounds died mid-run with exit 3.
    Both commands now reject them with exit 2, naming the field."""

    data = {"version": 1, "scenario": scenario, "policies": policies}
    with pytest.raises(ConfigError, match="^" + field):
        make_config(data)
    _cli_rejects(tmp_path, capsys, data, field)


@pytest.mark.parametrize("table, row", [
    ([{"GO_AROUND": 1}], 0),
    ([{"LAND": 0.5, "GO_AROUND": 0.5}, {"GO_AROUND": 1.0}], 1),
    # Within the sum check's slack of 1, and alone in its row, so the sampler
    # falls through to it every time.
    ([{"GO_AROUND": 0.9999999999}], 0),
])
def test_gpws_table_that_never_lands_rejected(tmp_path, capsys, table, row):
    """The last row of the GPWS table repeats for every later approach, and
    the trigger climbs until every approach alerts, so a last row that always
    goes around made `run` loop forever.  It is rejected up front; it is
    checked through `make_config` and `validate-config` only, never `run`."""

    field = rf"{_GPWS_TABLE}\.{row}: the last row repeats .*GO_AROUND probability must be below 1"
    data = {"version": 1, "scenario": "GPWS", "policies": {"gpws": {"approach_actions": table}}}
    with pytest.raises(ConfigError, match="^" + field):
        make_config(data)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    assert main(["validate-config", "--config", str(path)]) == 2
    assert re.search(field, capsys.readouterr().err)


def test_gpws_table_rows_decide():
    """A table whose early rows go around and whose last row may land runs,
    and each approach's action comes from its own row."""

    table = [{"GO_AROUND": 1.0}, {"TURN_OFF_GPWS": 0.5, "GO_AROUND": 0.5}]
    cfg = make_config({"version": 1, "scenario": "GPWS", "trials": 20,
                       "policies": {"gpws": {"approach_actions": table}}})
    for log in run(cfg):
        for event in log.iter_kind("crew_action"):
            payload = event["payload"]
            row = table[min(payload["approach"], len(table)) - 1]
            assert row.get(payload["action"], 0.0) > 0.0, payload
        assert log.events[-1]["payload"]["approach"] >= 2


def test_full_crew_table_replaces_the_built_in_one():
    """A table with a row for every final mode runs, and its rows decide."""

    table = {"TA_RA": {"CONTINUE": 1.0}, "TA_ONLY": {"DIVERT": 1.0},
             "STANDBY": {"AVOIDANCE": 1.0}}
    cfg = make_config({"version": 1, "scenario": "TCAS", "trials": 40,
                       "policies": {"tcas": {"action_given_final_mode": table}}})
    for log in run(cfg):
        end = log.events[-1]["payload"]
        assert end["final_action"] in table[end["final_mode"]], end


def test_partial_config_merges_over_defaults():
    cfg = make_config({"version": 1, "scenario": "GS", "trials": 7,
                       "attacker": {"gs": {"shift_m": 1000.0}}})
    assert cfg.trials == 7
    assert cfg.raw["attacker"]["gs"]["shift_m"] == 1000.0
    assert cfg.raw["attacker"]["gs"]["tx_power_w"] == 50.0  # default retained


#: Built-in defaults that stay beside the schema's, because code that runs
#: without a config builds these objects with no arguments (the acceptance
#: gate among it): each must equal what `make_config` builds from the
#: schema's defaults.
_BUILT_IN_COPIES = {
    "false-intruder-plan": (lambda: tcas.FalseIntruderPlan(),
                            lambda cfg: cfg.false_intruder_plan),
    "advisory-thresholds": (lambda: tcas.AdvisoryThresholds(),
                            lambda cfg: cfg.tcas_thresholds),
    "sensor-grid": (lambda: sentinel.default_sensor_grid(),
                    lambda cfg: sentinel.default_sensor_grid(cfg.sensor_extent_m)),
    "residual-threshold": (lambda: sentinel.DEFAULT_RESIDUAL_THRESHOLD_M,
                           lambda cfg: cfg.residual_threshold_m),
    "glideslope-path-angle": (lambda: ils.GlideslopeTx(antenna_position=0.0).path_angle,
                              lambda cfg: cfg.glideslope[0].path_angle),
}


@pytest.mark.parametrize("name", list(_BUILT_IN_COPIES))
def test_built_in_copies_equal_config_defaults(name):
    """A schema default changed without its built-in copy fails here."""

    built_in, configured = _BUILT_IN_COPIES[name]
    assert built_in() == configured(make_config(default_config_dict()))


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)


@pytest.mark.parametrize("data, reason", [
    (b'{"version": 1, "scenario": "GS", "master_seed": ' + b"9" * 5000 + b"}",
     "cannot parse JSON: Exceeds the limit (4300 digits)"),
    (b'{"version": 1, "scenario": "GS", "zz": ' + b"[" * 5000 + b"]" * 5000 + b"}",
     "cannot parse JSON: maximum recursion depth exceeded"),
    (b'{"version": 1, "scenario": "GS", "zz": "\xff"}',
     "cannot read: 'utf-8' codec can't decode byte 0xff"),
], ids=["5000-digit-seed", "5000-deep-arrays", "not-utf-8"])
@pytest.mark.parametrize("command", ["validate-config", "run"])
def test_cli_unparseable_config_exit_code(tmp_path, capsys, data, reason, command):
    """A config file whose text `json.loads` cannot turn into values (an
    integer of more than 4,300 digits, arrays nested past the recursion
    limit) or that is not UTF-8 is a config error naming the file: exit 2,
    and `run` makes no output directory."""

    path = tmp_path / "config.json"
    path.write_bytes(data)
    out = tmp_path / "out"
    argv = [command, "--config", str(path)] + (["--out", str(out)] if command == "run" else [])
    assert main(argv) == 2
    assert f"config error: {path}: {reason}" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# trial log


def test_trial_log_ordering_and_terminal():
    log = TrialLog(trial_id=0, seed=1, scenario="GS")
    log.add(0.0, "a")
    with pytest.raises(ValueError):
        log.add(-1.0, "b")
    log.finish(1.0, "LANDED")
    assert log.outcome == "LANDED"
    with pytest.raises(ValueError):
        log.add(2.0, "c")


def test_trial_log_jsonl_round_trip():
    log = TrialLog(trial_id=3, seed=42, scenario="GS")
    log.add(0.0, "a", {"x": 1})
    log.finish(1.0, "LANDED")
    blob = log.to_jsonl()
    for line in blob.strip().splitlines():
        record = json.loads(line)
        assert record["trial_id"] == 3
        assert record["seed"] == 42
        assert set(record) == {"t", "kind", "payload", "trial_id", "seed"}
    clone = TrialLog.from_jsonl(blob, scenario="GS")
    assert clone.events == log.events
    with pytest.raises(ValueError, match="not an object"):
        TrialLog.from_jsonl("[1, 2]\n", scenario="GS")


# Strings with non-ASCII, control, quote and backslash characters, or any.
_text = st.text() | st.text(alphabet=st.characters(max_codepoint=0x1F)
                            | st.sampled_from('"\\/\x7f\xe9\u2028\u20ac\U0001f600'))
# Signed zeros, subnormals, the infinities and NaN, or any float.
_float = st.floats() | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 1e-310, math.inf, -math.inf, math.nan])
_value = st.recursive(
    st.none() | st.booleans() | _float | _text
    | st.integers(min_value=-2**70, max_value=2**70) | st.sampled_from([2**53 + 1, 2**64 - 1]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_text, inner, max_size=4),
    max_leaves=12,
)
_events = st.lists(st.fixed_dictionaries({
    "t": _float, "kind": _text, "payload": st.dictionaries(_text, _value, max_size=5),
}), min_size=1, max_size=4)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(events=_events, trial_id=st.integers(0, 2**64), seed=st.integers(0, 2**64),
       pure_python=st.booleans())
def test_trial_log_jsonl_equals_json_dumps(events, trial_id, seed, pure_python):
    """Property: each line `to_jsonl` writes is `json.dumps` of the event with
    the log's trial id and seed added, keys sorted, whatever strings, floats
    and integers the payload and the time hold, with the C encoder or the
    pure-Python one."""

    log = TrialLog(trial_id=trial_id, seed=seed, scenario="GS", events=events)
    expected = "".join(
        json.dumps({**event, "trial_id": trial_id, "seed": seed}, sort_keys=True) + "\n"
        for event in events)
    encoder = log_module._build_encoder(None) if pure_python else log_module._iterencode
    with unittest.mock.patch.object(log_module, "_iterencode", encoder), \
            unittest.mock.patch.dict(log_module._shapes, clear=True):
        assert log.to_jsonl() == expected


# ---------------------------------------------------------------------------
# runner determinism


def test_runs_are_deterministic():
    cfg = small_config("GPWS", trials=10)
    logs1 = run(cfg)
    logs2 = run(cfg)
    assert [l.to_jsonl() for l in logs1] == [l.to_jsonl() for l in logs2]


def test_trial_seed_independent_of_count():
    few = run(small_config("GS", trials=3))
    many = run(small_config("GS", trials=6))
    for a, b in zip(few, many):
        assert a.to_jsonl() == b.to_jsonl()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    master=st.one_of(st.sampled_from([0, 20190118, 2**64 + 5, 2**200 - 1]),
                     st.integers(0, 2**64), st.integers(0, 2**256)),
    start=st.integers(0, 3 * CHUNK_TRIALS),
    length=st.integers(0, 2 * CHUNK_TRIALS + 1),
)
# Two whole chunks, and ranges across a chunk boundary.
@example(master=20190118, start=0, length=2 * CHUNK_TRIALS)
@example(master=2**200 - 1, start=CHUNK_TRIALS - 1, length=3)
@example(master=0, start=2 * CHUNK_TRIALS - 2, length=CHUNK_TRIALS + 4)
def test_trial_seeds_are_words_of_generate_state(master, start, length):
    """Property: the seeds of any range of trial ids are, as Python ints,
    those words of ``SeedSequence(master).generate_state(n, np.uint64)``,
    the seeds the whole run's state would give them."""

    ids = range(start, start + length)
    state = np.random.SeedSequence(master).generate_state(ids.stop, np.uint64)
    seeds = trial_seeds(master, ids)
    assert seeds == [int(s) for s in state[start:]]
    assert all(type(s) is int for s in seeds)


_EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seeds=st.lists(st.one_of(st.sampled_from(_EDGE_SEEDS), st.integers(0, 2**64 - 1)),
                      max_size=2 * CHUNK_TRIALS + 1))
@example(seeds=_EDGE_SEEDS)
@example(seeds=[])
def test_trial_generators_are_default_rng(seeds):
    """Property: for any 64-bit seeds, `seed_states` gives the words of
    ``SeedSequence(s).generate_state(4, np.uint64)`` and `trial_generators`
    the generator ``np.random.default_rng(s)`` gives, state and draws."""

    states = seed_states(seeds)
    assert states.shape == (len(seeds), 4) and states.dtype == np.uint64
    for seed, words, rng in zip(seeds, states, trial_generators(seeds), strict=True):
        assert words.tolist() == np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()
        expected = np.random.default_rng(seed)
        assert rng.bit_generator.state == expected.bit_generator.state
        assert rng.integers(2**64, size=3, dtype=np.uint64).tolist() == \
            expected.integers(2**64, size=3, dtype=np.uint64).tolist()


def test_first_chunk_allocates_for_the_chunk_only():
    """`run_chunks` makes each chunk's seeds as it reaches the chunk: taking
    the first chunk of a run of 10**6 trials allocates no more than of a
    run of one chunk (all N seeds would take tens of MB)."""

    def first_chunk_peak(trials):
        chunks = run_chunks(small_config("GS", trials=trials), range(trials))
        tracemalloc.start()
        try:
            next(chunks)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_chunk, large = first_chunk_peak(CHUNK_TRIALS), first_chunk_peak(10**6)
    assert large < one_chunk + 2**20, (one_chunk, large)


def test_seed_changes_results():
    a = run(small_config("GPWS", trials=10))
    b = run(small_config("GPWS", trials=10, master_seed=999))
    assert [l.to_jsonl() for l in a] != [l.to_jsonl() for l in b]


def test_baseline_all_land_no_alerts():
    cfg = small_config("BASELINE", trials=20)
    logs = run(cfg)
    assert all(l.outcome == "LANDED" for l in logs)
    for log in logs:
        assert not list(log.iter_kind("gpws_alert"))
        assert not list(log.iter_kind("advisory"))


# ---------------------------------------------------------------------------
# summaries


def test_summarize_rejects_empty_and_mixed():
    with pytest.raises(ValueError):
        summarize([])
    mixed = run(small_config("GS", trials=2)) + run(small_config("GPWS", trials=2))
    with pytest.raises(ValueError):
        summarize(mixed)


def test_summarize_single_trial():
    logs = run(small_config("GS", trials=1))
    s = summarize(logs)
    assert s["trials"] == 1
    assert sum(s["outcomes"].values()) == 1


def test_mean_sd_adds_left_to_right():
    """`_mean_sd` adds in list order from int 0, as `sum` added floats before
    Python 3.12 made it compensated, so the summary's statistics have the
    same bits on every supported Python.  Here 1e16 + 1.0 rounds back to
    1e16, so the mean is 0.0 (compensated summation gives 1/3)."""

    mean = ((0 + 1e16) + 1.0 + -1e16) / 3
    var = ((0 + (1e16 - mean) ** 2) + (1.0 - mean) ** 2 + (-1e16 - mean) ** 2) / 2
    assert mean == 0.0
    assert _mean_sd([1e16, 1.0, -1e16]) == {"n": 3, "mean": mean, "sd": math.sqrt(var)}


def test_gpws_summary_table_labels():
    s = summarize(run(small_config("GPWS", trials=40)))
    labels = {row[1] for row in s["tables"]["actions"]["rows"]}
    assert labels <= {"Land", "Go-around", "Turn off"}
    # Counts per approach sum to that approach's participants.
    by_approach = {}
    for approach, _label, count, _pct, participants in s["tables"]["actions"]["rows"]:
        by_approach.setdefault(approach, [0, participants])
        by_approach[approach][0] += count
    for total, participants in by_approach.values():
        assert total == participants


def test_gpws_summary_counts_unalerted_landings_on_later_approaches():
    """Every crew that goes around on approach k flies approach k + 1 and is
    one of its participants, also when it then lands unalerted, with no
    crew action on that approach."""

    cfg = small_config("GPWS", trials=300, master_seed=5, attacker={"gpws": {
        "base_trigger_ft": 300, "jitter_window_ft": 500, "increment_per_approach_ft": 0}})
    rows = summarize(run(cfg))["tables"]["actions"]["rows"]
    participants = {approach: n for approach, _label, _count, _pct, n in rows}
    go_arounds = {approach: count for approach, label, count, _pct, _n in rows
                  if label == "Go-around"}
    assert participants[1] == 300
    assert go_arounds[1] > 0
    for approach in sorted(participants)[1:]:
        assert participants[approach] == go_arounds[approach - 1]
    assert set(participants) == {1} | {k + 1 for k in go_arounds}


def test_tcas_summary_matrix_labels():
    s = summarize(run(small_config("TCAS", trials=30)))
    rows = {row[0] for row in s["tables"]["responses"]["rows"]}
    assert rows == {"Continue on route", "Avoidance manoeuvre", "Divert to origin"}
    headers = s["tables"]["responses"]["headers"]
    assert "TA/RA" in headers and "TA-Only" in headers and "Standby" in headers
    fractions = [
        s["stats"]["final_mode_ta_ra_fraction"],
        s["stats"]["final_mode_ta_only_fraction"],
        s["stats"]["final_mode_standby_fraction"],
    ]
    assert math.isclose(sum(fractions), 1.0, rel_tol=1e-9)


# ---------------------------------------------------------------------------
# cost model


def test_cost_reference_values():
    assert disruption_cost(cost_mod.MISSED_APPROACH, cost_mod.B737_800).usd == pytest.approx(77.14, abs=0.005)
    assert disruption_cost(cost_mod.SECOND_APPROACH, cost_mod.B737_800).usd == pytest.approx(139.69, abs=0.005)
    assert disruption_cost(cost_mod.MISSED_APPROACH, cost_mod.B777_200).usd == pytest.approx(205.90, abs=0.005)
    assert disruption_cost(cost_mod.SECOND_APPROACH, cost_mod.B777_200).usd == pytest.approx(516.25, abs=0.005)


def test_cost_kg_from_gallons():
    report = disruption_cost(cost_mod.SECOND_APPROACH, cost_mod.B737_800)
    assert report.extra_fuel_kg == pytest.approx(75.68 * 3.039)
    assert report.note == ""
    flagged = disruption_cost(cost_mod.MISSED_APPROACH, cost_mod.B777_200)
    assert "399" in flagged.note  # published figure inconsistent with density


def test_cost_diversion_band():
    report = disruption_cost(cost_mod.DIVERSION, cost_mod.B737_800)
    assert report.diversion_band_gbp == (10_000.0, 80_000.0)


def test_cost_errors():
    with pytest.raises(ValueError):
        disruption_cost(cost_mod.MISSED_APPROACH, "A320")
    with pytest.raises(ValueError):
        disruption_cost("teleport", cost_mod.B737_800)


# ---------------------------------------------------------------------------
# emit + CLI


def test_emit_files(tmp_path):
    out = tmp_path / "out"
    cfg = small_config("GS", trials=3, output_dir=str(out))
    logs = run(cfg)
    written = emit(cfg, Summary())
    files = sorted(p for p in out.rglob("*") if p.is_file())
    assert [str(p.relative_to(out)) for p in files] == [
        "config.json", "report.txt", "summary.csv",
        "trials/trial_00000.jsonl", "trials/trial_00001.jsonl", "trials/trial_00002.jsonl"]
    assert isinstance(written, int) and written == len(files)
    assert sorted(written) == files
    reread_cfg, reread = _reread(out)
    assert reread_cfg.raw == cfg.raw
    assert [l.to_jsonl() for l in reread] == [l.to_jsonl() for l in logs]
    assert {l.scenario for l in reread} == {"GS"}


def test_emit_deterministic(tmp_path):
    for d in ("a", "b"):
        cfg = small_config("GS", trials=3, output_dir=str(tmp_path / d))
        emit(cfg, Summary())
    for name in ("summary.csv", "report.txt", "trials/trial_00001.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def _emit_peak_growth(tmp_path, monkeypatch, cpus):
    """The `tracemalloc` peaks of `emit` over GS runs of 600 and 2,400 trials
    with ``cpus`` usable CPUs.  `tracemalloc` sees this process only."""

    monkeypatch.setattr(runner, "usable_cpus", lambda: cpus)

    def peak(trials):
        cfg = small_config("GS", trials=trials, output_dir=str(tmp_path / f"{cpus}-{trials}"))
        tracemalloc.start()
        try:
            emit(cfg, Summary())
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(CHUNK_TRIALS)  # first-call allocations: imports, caches
    return peak(600), peak(2400)


def test_emit_memory_does_not_grow_with_trials(tmp_path, monkeypatch):
    """`emit` keeps nothing per trial log it writes: its peak memory over a
    GS run of 2,400 trials is within 64 bytes a trial of a run of 600 (the
    summary's per-trial scalars), where a path kept per trial costs hundreds.
    One usable CPU, so that every trial runs in this process."""

    small, large = _emit_peak_growth(tmp_path, monkeypatch, 1)
    assert large - small < 64 * (2400 - 600), (small, large)


def test_emit_memory_does_not_grow_with_trials_in_two_workers(tmp_path, monkeypatch):
    """The same bound with two usable CPUs, measured in this process, which
    runs the first half of the trials and merges the forked worker's
    summary: what it holds of the worker's results stays within it too."""

    small, large = _emit_peak_growth(tmp_path, monkeypatch, 2)
    assert large - small < 64 * (2400 - 600), (small, large)


def test_altitude_trace_emitted(tmp_path):
    cfg = small_config("GPWS", trials=1, output={"altitude_trace": True},
                       output_dir=str(tmp_path / "out"))
    written = emit(cfg, Summary())
    traces = list((tmp_path / "out" / "traces").iterdir())
    assert [p.name for p in traces] == ["trial_00000.csv"]
    assert written == 1 + 1 + 3  # the log, the trace, summary, report and config
    header = traces[0].read_text().splitlines()[0]
    assert header == "time_s,altitude_ft,indicated_agl_ft"


def test_rerun_into_run_directory_replaces_it(tmp_path, capsys):
    """A smaller run into a used directory leaves a directory of that run:
    the earlier run's surplus trial logs are removed, and the logs both runs
    write are overwritten in place, not deleted and recreated."""

    out = tmp_path / "out"
    trials = _gs_run(out, trials=12)
    inode = (trials / "trial_00000.jsonl").stat().st_ino
    _gs_run(out, trials=5)
    assert sorted(p.name for p in trials.iterdir()) == [
        f"trial_{i:05d}.jsonl" for i in range(5)]
    assert (trials / "trial_00000.jsonl").stat().st_ino == inode
    capsys.readouterr()
    assert main(["summarize", "--out", str(out)]) == 0
    assert "trials,5" in capsys.readouterr().out


def test_rerun_without_traces_removes_them(tmp_path):
    """A run without altitude traces into the directory of a traced run
    leaves no trace behind; the directory then reads as the later run."""

    out = tmp_path / "out"
    for altitude_trace in (True, False):
        cfg = small_config("GPWS", trials=2, output={"altitude_trace": altitude_trace},
                           output_dir=str(out))
        logs = run(cfg)
        emit(cfg, Summary())
        if altitude_trace:
            assert len(list((out / "traces").glob("trial_*.csv"))) == 2
    assert not list((out / "traces").glob("trial_*.csv"))
    reread_cfg, reread = _reread(out)
    assert reread_cfg.raw == cfg.raw
    assert [log.to_jsonl() for log in reread] == [log.to_jsonl() for log in logs]


def test_cli_run_and_summarize(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--scenario", "GS", "--trials", "4", "--seed", "5",
               "--out", str(out)])
    assert rc == 0
    assert (out / "summary.csv").is_file()
    rc = main(["summarize", "--out", str(out)])
    assert rc == 0
    assert "scenario,GS" in capsys.readouterr().out


def test_cli_detect(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--scenario", "TCAS", "--trials", "5", "--seed", "5",
                 "--out", str(out)]) == 0
    assert main(["detect", "--scenario", "TCAS", "--out", str(out)]) == 0
    assert "SUSPECT" in capsys.readouterr().out
    assert (out / "verdicts.csv").is_file()


@pytest.mark.parametrize("scenario", ["GPWS", "GS", "BASELINE"])
def test_cli_detect_without_surveillance(tmp_path, capsys, scenario):
    """A run that logs no surveillance messages has no ground-side check:
    detect says so, exits 0 and writes a verdicts.csv with its header only."""

    out = tmp_path / "out"
    assert main(["run", "--scenario", scenario, "--trials", "3", "--seed", "5",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["detect", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed == (f"no ground-side integrity check: the {scenario} run logged "
                       "no surveillance messages\n")
    assert (out / "verdicts.csv").read_text() == "subject,residual_m,flag,reason\n"


def test_cli_detect_uses_run_config(tmp_path, capsys):
    """Without --config, detect checks a run directory with the settings in
    its config.json; an unreadable one is a corrupt artefact."""

    out = tmp_path / "out"
    config = tmp_path / "tcas.json"
    config.write_text(json.dumps({
        "version": 1, "scenario": "TCAS", "trials": 5, "master_seed": 5,
        "sentinel": {"residual_threshold_m": 1e9},
    }))
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    for extra in ([], ["--scenario", "TCAS", "--seed", "5"]):
        assert main(["detect", "--out", str(out)] + extra) == 0
        checked, suspect = re.match(
            r"checked (\d+) messages: (\d+) SUSPECT", capsys.readouterr().out
        ).groups()
        assert int(checked) > 0 and int(suspect) == 0
    (out / "config.json").write_text("{not json")
    assert main(["detect", "--out", str(out)]) == 3
    assert "config.json" in capsys.readouterr().err


@pytest.mark.parametrize("run_overrides, detect_overrides", [
    ({"sentinel": {"clock_jitter_ns": 1e300}}, None),
    ({}, {"sentinel": {"clock_jitter_ns": 1e300}}),
])
def test_cli_detect_non_finite_residuals_undetermined(tmp_path, capsys, run_overrides,
                                                      detect_overrides):
    """Clock jitter so large that the timing differences' squares overflow,
    whether the run's own config or `detect --config` sets it, gives
    residuals that are not finite: each such message is UNDETERMINED, not
    CLEAN, and numpy's overflow warnings stay off stderr.  (A sensor grid or
    an attacker site that far out is rejected up front,
    `test_values_past_float_resolution_rejected` and
    `test_attacker_site_and_ramp_rate_past_bounds_rejected`.)"""

    out, config = tmp_path / "out", tmp_path / "run.json"
    config.write_text(json.dumps({"version": 1, "scenario": "TCAS", "trials": 3,
                                  **run_overrides}))
    argv = ["detect", "--out", str(out)]
    if detect_overrides:
        (tmp_path / "detect.json").write_text(json.dumps({"version": 1, "scenario": "TCAS",
                                                          **detect_overrides}))
        argv += ["--config", str(tmp_path / "detect.json")]
    assert main(["validate-config", "--config", str(config)]) == 0
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    printed = capsys.readouterr()
    checked, undetermined = re.fullmatch(
        r"checked (\d+) messages: 0 SUSPECT \(0\.0%\), (\d+) UNDETERMINED\n", printed.out
    ).groups()
    assert int(checked) > 0 and undetermined == checked, printed.out
    assert printed.err == ""
    rows = (out / "verdicts.csv").read_text().splitlines()[1:]
    assert len(rows) == int(checked)
    assert all(row.split(",")[2] == sentinel.UNDETERMINED for row in rows), rows


def test_cli_cost(capsys):
    assert main(["cost"]) == 0
    out = capsys.readouterr().out
    assert "77.14" in out and "516.25" in out


@pytest.mark.parametrize("argv", [
    ["summarize", "--trials", "3"],
    ["summarize", "--seed", "3"],
    ["summarize", "--scenario", "TCAS"],
    ["summarize", "--config", "c.json"],
    ["detect", "--trials", "3"],
    ["cost", "--scenario", "TCAS"],
    ["cost", "--trials", "5"],
    ["cost", "--seed", "3"],
    ["cost", "--config", "c.json"],
    ["validate-config", "--scenario", "GPWS"],
    ["validate-config", "--trials", "3"],
    ["validate-config", "--seed", "3"],
    ["validate-config", "--out", "out"],
], ids=" ".join)
def test_cli_rejects_flags_it_does_not_read(capsys, argv):
    """Each subcommand declares only the flags it reads.  summarize and detect
    read everything else from the run directory named by --out, which they
    require."""

    required = ["--out", "out"] if argv[0] in ("summarize", "detect") else []
    with pytest.raises(SystemExit) as exc:
        main(argv + required)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 1, "scenario": "GPWS", "oops": True}))
    assert main(["validate-config", "--config", str(bad)]) == 2
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"version": 1, "scenario": "GPWS"}))
    assert main(["validate-config", "--config", str(good)]) == 0


def test_cli_runtime_error_exit_code(tmp_path, capsys):
    # A directory that holds no run is a corrupt artefact, not a config error.
    for command in (["summarize"], ["detect"]):
        assert main(command + ["--out", str(tmp_path / "nothing")]) == 3
        assert "config.json" in capsys.readouterr().err


def _gs_run(out, trials=4):
    assert main(["run", "--scenario", "GS", "--trials", str(trials), "--seed", "5",
                 "--out", str(out)]) == 0
    return out / "trials"


def test_cli_truncated_log_exit_code(tmp_path, capsys):
    trials = _gs_run(tmp_path / "out")
    path = trials / "trial_00002.jsonl"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    assert main(["summarize", "--out", str(tmp_path / "out")]) == 3
    assert "trial_00002.jsonl" in capsys.readouterr().err


def test_load_rejects_unordered_or_doubled_outcome(tmp_path):
    trials = _gs_run(tmp_path / "out")
    path = trials / "trial_00001.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    first = json.loads(lines[0])
    first["t"] = 1e9
    path.write_text(json.dumps(first) + "\n" + "".join(lines[1:]))
    with pytest.raises(RuntimeError, match="trial_00001.jsonl.*time order"):
        _reread(tmp_path / "out")
    path.write_text("".join(lines + lines[-1:]))
    with pytest.raises(RuntimeError, match="trial_00001.jsonl.*one outcome"):
        _reread(tmp_path / "out")


@pytest.mark.parametrize("corrupt", [
    lambda data: [],
    lambda data: {**data, "trials": "3"},
    lambda data: {**data, "scenario": "NOPE"},
], ids=["not-an-object", "string-trials", "unknown-scenario"])
@pytest.mark.parametrize("command", [
    ["summarize"], ["detect", "--seed", "5"],
    ["detect"], ["detect", "--scenario", "GS"],
])
def test_cli_corrupt_run_config_exit_code(tmp_path, capsys, corrupt, command):
    """summarize and detect read a run's config.json through one reader: a
    corrupt one is exit 3 with a message naming it, never a traceback."""

    out = tmp_path / "out"
    _gs_run(out)
    path = out / "config.json"
    path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
    assert main(command + ["--out", str(out)]) == 3
    assert "corrupt run directory" in capsys.readouterr().err


def test_removed_true_bearing_leaf_rejected(tmp_path, capsys):
    """`world.runway.true_bearing_deg` is gone: the frame is runway-aligned
    and no computation read the bearing.  A config that still sets it exits
    2 naming `world.runway`, and a run directory whose config.json carries
    it is a corrupt run directory (exit 3), not a traceback."""

    _cli_rejects(tmp_path, capsys, {"version": 1, "scenario": "GPWS",
                                    "world": {"runway": {"true_bearing_deg": 327}}},
                 r"world\.runway: .*'true_bearing_deg'")
    out = tmp_path / "run"
    _gs_run(out)
    path = out / "config.json"
    data = json.loads(path.read_text())
    data["world"]["runway"]["true_bearing_deg"] = 327.0
    path.write_text(json.dumps(data))
    assert main(["summarize", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "corrupt run directory" in err and "true_bearing_deg" in err


def test_cli_missing_log_exit_code(tmp_path, capsys):
    out = tmp_path / "out"
    trials = _gs_run(out, trials=12)
    (trials / "trial_00009.jsonl").unlink()
    assert main(["summarize", "--out", str(out)]) == 3
    assert main(["detect", "--scenario", "GS", "--out", str(out)]) == 3
    assert "missing [9]" in capsys.readouterr().err


def test_missing_logs_found_at_the_cost_of_the_files_present(tmp_path, monkeypatch, capsys):
    """A config.json that claims far more trials than the directory holds is
    refused at once: the reader names the first five missing ids after
    formatting at most (files + 5) file names, not one per claimed trial."""

    class CountingFormat(str):
        calls = 0

        def format(self, *args):
            CountingFormat.calls += 1
            return str.format(self, *args)

    out = tmp_path / "out"
    _gs_run(out, trials=3)
    path = out / "config.json"
    data = json.loads(path.read_text())
    data["trials"] = 10**12
    path.write_text(json.dumps(data))
    monkeypatch.setattr(output, "_TRIAL_LOG", CountingFormat(output._TRIAL_LOG))
    assert main(["summarize", "--out", str(out)]) == 3
    assert "missing [3, 4, 5, 6, 7]" in capsys.readouterr().err
    assert 0 < CountingFormat.calls <= 3 + 5


def test_detect_rejects_a_negative_seed(tmp_path, capsys):
    """`detect --seed` is the jitter seed: a negative one is a config error
    naming `--seed` (exit 2), as `run --seed -1` names `master_seed`."""

    out = tmp_path / "out"
    _gs_run(out)
    assert main(["detect", "--seed", "-1", "--out", str(out)]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not (out / "verdicts.csv").exists()


def test_cli_misplaced_or_stray_log_exit_code(tmp_path, capsys):
    """The reader takes N from config.json and reads trial i from its own
    file: a file holding another trial, or a trial file beyond N (left by an
    earlier, larger run into the same directory), is exit 3."""

    out = tmp_path / "out"
    trials = _gs_run(out)
    extra = trials / "trial_00004.jsonl"
    extra.write_text((trials / "trial_00003.jsonl").read_text())
    assert main(["summarize", "--out", str(out)]) == 3
    assert "holds 5 trial logs, expected ids 0..3" in capsys.readouterr().err
    extra.unlink()
    (trials / "trial_00003.jsonl").write_text((trials / "trial_00002.jsonl").read_text())
    assert main(["summarize", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "trial_00003.jsonl" in err and "holds trial 2" in err


@pytest.mark.parametrize("stray, replaces", [
    ("trial_1.jsonl", None), ("trial_000001.jsonl", None), ("trial_00004.jsonl", None),
    ("trial_4.jsonl", None), ("trial_1.jsonl", "trial_00001.jsonl")])
def test_cli_noncanonical_log_names_refused_and_pruned(tmp_path, capsys, stray, replaces):
    """A run's trial logs are `trial_{:05d}.jsonl` of ids below N and nothing
    else: another spelling of an id, or an id at or beyond N, makes the run
    directory incomplete (exit 3), and a rerun into it removes the file."""

    out = tmp_path / "out"
    trials = _gs_run(out)
    (trials / stray).write_text((trials / "trial_00001.jsonl").read_text())
    if replaces:
        (trials / replaces).unlink()
    assert main(["summarize", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    if replaces:
        assert "holds 4 trial logs, expected ids 0..3; missing [1]" in err
    else:
        assert "holds 5 trial logs, expected ids 0..3" in err and "missing" not in err
    _gs_run(out)
    assert sorted(p.name for p in trials.iterdir()) == [f"trial_{i:05d}.jsonl" for i in range(4)]
    assert main(["summarize", "--out", str(out)]) == 0


def test_cli_run_scenario_flag_over_config_file(tmp_path):
    """`run --config F --scenario S` runs S with F's own settings: the
    overrides of F's scenario do not carry over (BASELINE's disabled attacker
    into a GS run)."""

    path = tmp_path / "baseline.json"
    path.write_text('{"version": 1, "scenario": "BASELINE", "master_seed": 11}')
    for name, flags in (("flag", ["--config", str(path)]), ("plain", ["--seed", "11"])):
        assert main(["run", *flags, "--scenario", "GS", "--trials", "3",
                     "--out", str(tmp_path / name)]) == 0
    flag, plain = (json.loads((tmp_path / name / "config.json").read_text())
                   for name in ("flag", "plain"))
    assert flag["attacker"]["enabled"] is True
    assert {**flag, "output_dir": None} == {**plain, "output_dir": None}


@pytest.mark.parametrize("command", ["summarize", "detect"])
def test_cli_run_readers_require_out(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
    assert "required: --out" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["summarize"], ["detect"]])
def test_cli_missing_run_config_exit_code(tmp_path, capsys, command):
    """config.json is the only record of a run's scenario and trial count: a
    run directory without one is corrupt, whatever its trial logs hold."""

    out = tmp_path / "out"
    _gs_run(out)
    (out / "config.json").unlink()
    assert main(command + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "corrupt run directory" in err and "config.json" in err


def test_cli_detect_scenario_must_match_run(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--scenario", "TCAS", "--trials", "2", "--seed", "5",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["detect", "--scenario", "GPWS", "--out", str(out)]) == 2
    assert "--scenario GPWS" in capsys.readouterr().err
    assert not (out / "verdicts.csv").exists()


def _rewrite_record(path, index, change):
    """Apply ``change`` to record ``index`` of a JSON-lines trial log."""

    records = [json.loads(line) for line in path.read_text().splitlines()]
    change(records[index])
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


@pytest.mark.parametrize("index,change", [
    (0, lambda r: r.update(t="x")),
    (0, lambda r: r.update(t=True)),
    (-1, lambda r: r.update(t=float("nan"))),
    (0, lambda r: r.update(trial_id="1")),
    (-1, lambda r: r.update(seed=r["seed"] + 1)),
    (0, lambda r: r.update(kind=7)),
    (0, lambda r: r.update(payload=None)),
    (1, lambda r: r.update(extra=[1])),
    (0, lambda r: r.update(t=10**400)),
], ids=["t-string", "t-bool", "t-nan", "trial_id-string", "seed-differs",
        "kind-int", "payload-null", "extra-field", "t-beyond-float"])
@pytest.mark.parametrize("command", ["summarize", "detect"])
def test_cli_mistyped_log_field_exit_code(tmp_path, capsys, index, change, command):
    """A JSON-valid trial log whose envelope fields have the wrong type is a
    corrupt artefact: exit 3 naming the file, never a traceback."""

    out = tmp_path / "out"
    _rewrite_record(_gs_run(out) / "trial_00001.jsonl", index, change)
    assert main([command, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "corrupt trial log" in err and "trial_00001.jsonl" in err


@pytest.mark.parametrize("command", ["summarize", "detect"])
def test_cli_deeply_nested_log_exit_code(tmp_path, capsys, command):
    """A trial log whose payload nests arrays past the recursion limit is a
    corrupt trial log naming the file (exit 3), like any other it cannot
    read."""

    out = tmp_path / "out"
    path = _gs_run(out) / "trial_00001.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    record = json.loads(lines[0])
    record["payload"] = "deep"
    lines[0] = json.dumps(record).replace('"deep"', "[" * 3000 + "]" * 3000) + "\n"
    path.write_text("".join(lines))
    assert main([command, "--out", str(out)]) == 3
    assert (f"corrupt trial log {path}: maximum recursion depth exceeded"
            in capsys.readouterr().err)


@pytest.mark.parametrize("scenario,kind,change,field", [
    ("GPWS", "crew_action", lambda p: p.pop("approach"), "approach"),
    ("GPWS", "crew_action", lambda p: p.update(approach="1"), "approach"),
    ("TCAS", "outcome", lambda p: p.update(final_mode="X"), "final_mode"),
    ("TCAS", "outcome", lambda p: p.update(episodes=None), "episodes"),
    ("GS", "outcome", lambda p: p.update(outcome=5), "outcome"),
    ("GS", "crew_action", lambda p: p.update(agl_ft="low"), "agl_ft"),
], ids=["gpws-no-approach", "gpws-string-approach", "tcas-final-mode",
        "tcas-episodes-null", "gs-outcome-int", "gs-agl-string"])
def test_cli_summarize_unreadable_payload_exit_code(tmp_path, capsys, scenario, kind,
                                                   change, field):
    """Payloads the summarizer cannot read give exit 3 naming the run
    directory and the field, never a traceback."""

    out = tmp_path / "out"
    assert main(["run", "--scenario", scenario, "--trials", "12", "--seed", "5",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    path = out / "trials" / "trial_00003.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    index = next(i for i, r in enumerate(records) if r["kind"] == kind)
    _rewrite_record(path, index, lambda r: change(r["payload"]))
    assert main(["summarize", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"corrupt trial log in {out}" in err
    assert f"trial 3: {kind} field {field!r}" in err


@pytest.mark.parametrize("scenario,kind,field,value", [
    ("TCAS", "outcome", "episodes", 10**400),
    ("GS", "crew_action", "agl_ft", 10**400),
    ("GPWS", "crew_action", "min_agl_ft", 10**400),
    ("TCAS", "outcome", "ras_observed", float("inf")),
    ("GS", "crew_action", "agl_ft", float("nan")),
], ids=["tcas-episodes-beyond-float", "gs-agl-beyond-float", "gpws-min-agl-beyond-float",
        "tcas-ras-infinite", "gs-agl-nan"])
def test_cli_summarize_number_outside_float_range_exit_code(tmp_path, capsys, scenario,
                                                            kind, field, value):
    """A payload number summarize averages must be finite and within the
    float range.  Set in every trial log, it gives exit 3 naming the trial,
    the event kind and the field, never a traceback or statistics built
    from it."""

    out = tmp_path / "out"
    assert main(["run", "--scenario", scenario, "--trials", "12", "--seed", "5",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    for path in (out / "trials").glob("trial_*.jsonl"):
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for index, record in enumerate(records):
            if record["kind"] == kind and field in record["payload"]:
                _rewrite_record(path, index, lambda r: r["payload"].update({field: value}))
    assert main(["summarize", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"corrupt trial log in {out}" in err
    assert re.search(rf"trial \d+: {kind} field {field!r}", err)


def test_cli_summarize_spread_beyond_float_range_exit_code(tmp_path, capsys):
    """Finite payload numbers whose standard deviation overflows a float (one
    go-around height of 1e200 ft among ordinary ones) give exit 3, not an
    OverflowError traceback."""

    out = tmp_path / "out"
    trials = _gs_run(out, trials=12)
    path = trials / "trial_00000.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for index, record in enumerate(records):
        if record["kind"] == "crew_action" and "agl_ft" in record["payload"]:
            _rewrite_record(path, index, lambda r: r["payload"].update(agl_ft=1e200))
    capsys.readouterr()
    assert main(["summarize", "--out", str(out)]) == 3
    assert f"corrupt trial log in {out}" in capsys.readouterr().err


@pytest.mark.parametrize("command,blocked", [
    ("run", "trials/trial_00000.jsonl"),
    ("summarize", "summary.csv"),
    ("detect", "verdicts.csv"),
    ("cost", "costs.csv"),
])
def test_cli_write_failure_exit_code(tmp_path, capsys, command, blocked):
    """A file a command cannot write is exit 3 with ``cannot write`` and its
    path, never a traceback."""

    out = tmp_path / "out"
    _gs_run(out)
    path = out / blocked
    path.unlink(missing_ok=True)
    path.mkdir()
    argv = [command, "--out", str(out)]
    if command == "run":
        argv += ["--scenario", "GS", "--trials", "4"]
    capsys.readouterr()
    assert main(argv) == 3
    assert f"cannot write {path}" in capsys.readouterr().err


@pytest.mark.parametrize("scenario, kind, where", [
    ("GPWS", "crew_action", "crew_action of approach 1 after one of approach 1"),
    ("GS", "crew_action", "2 first-approach go-arounds and 1 fallback_selected events"),
    ("GS", "fallback_selected", "1 first-approach go-arounds and 2 fallback_selected events"),
], ids=["GPWS", "GS-go-around", "GS-fallback"])
def test_cli_summarize_duplicated_line_exit_code(tmp_path, capsys, scenario, kind, where):
    """A log whose first ``kind`` line is duplicated counts one crew's
    action twice: a GPWS approach with two crew actions, a GS trial with two
    first-approach go-arounds or two fallbacks.  summarize exits 3 naming
    the trial, not a table of more participants than trials."""

    out = tmp_path / "out"
    assert main(["run", "--scenario", scenario, "--trials", "3", "--seed", "5",
                 "--out", str(out)]) == 0
    for trial_id in range(3):
        path = out / "trials" / f"trial_{trial_id:05d}.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        at = next((i for i, line in enumerate(lines) if json.loads(line)["kind"] == kind), None)
        if at is not None:
            path.write_text("".join(lines[:at + 1] + lines[at:]))
            break
    capsys.readouterr()
    assert main(["summarize", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"corrupt trial log in {out}: trial {trial_id}: {where}" in err, err


@pytest.fixture
def live_logs(monkeypatch):
    """A function that runs the CLI and returns the most `TrialLog`s that
    were alive at once while it ran, counted at each construction through a
    weak-reference set (a log is unhashable, so the set is keyed by a
    construction counter)."""

    alive = weakref.WeakValueDictionary()
    counter = itertools.count()
    peak = [0]
    init = TrialLog.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        alive[next(counter)] = self
        peak[0] = max(peak[0], len(alive))

    monkeypatch.setattr(TrialLog, "__init__", counting_init)

    def most_alive(argv):
        peak[0] = len(alive)
        assert main(argv) == 0
        return peak[0]

    return most_alive


def test_commands_hold_at_most_one_chunk_of_logs(tmp_path, capsys, live_logs):
    """run writes and folds each chunk before the next one is made, and
    summarize and detect parse each log only when they reach it, so none of
    them holds more than one chunk of trial logs, whatever N is.  A GS or
    GPWS run writes its logs from the values of its rounds and builds none."""

    trials = str(2 * CHUNK_TRIALS + 3)
    gs, gp, tc = str(tmp_path / "gs"), str(tmp_path / "gpws"), str(tmp_path / "tcas")
    peaks = {
        "GS run": live_logs(["run", "--scenario", "GS", "--trials", trials, "--out", gs]),
        "GS summarize": live_logs(["summarize", "--out", gs]),
        "GPWS run": live_logs(["run", "--scenario", "GPWS", "--trials", trials, "--out", gp]),
        "TCAS run": live_logs(["run", "--scenario", "TCAS", "--trials", trials, "--out", tc]),
        "TCAS detect": live_logs(["detect", "--out", tc]),
    }
    capsys.readouterr()
    assert peaks.pop("GS run") == 0 and peaks.pop("GPWS run") == 0, peaks
    assert all(0 < peak <= CHUNK_TRIALS for peak in peaks.values()), peaks


def test_interrupted_rerun_is_refused(tmp_path, monkeypatch, capsys):
    """A rerun that fails midway has overwritten some of an earlier run's
    trial logs, which the earlier config.json would describe just as well.
    run removes that config.json before it writes a trial log and writes its
    own last, so the mixture is refused as a corrupt run directory."""

    out = tmp_path / "out"
    trials = 2 * CHUNK_TRIALS + 3
    _gs_run(out, trials=trials)
    gs = SCENARIOS["GS"]

    def failing_trials(cfg, trial_ids, seeds):
        if CHUNK_TRIALS + 5 in trial_ids:
            raise RuntimeError(f"trial {CHUNK_TRIALS + 5} failed")
        return gs.trials(cfg, trial_ids, seeds)

    monkeypatch.setitem(SCENARIOS, "GS", dataclasses.replace(gs, trials=failing_trials))
    rerun = ["run", "--scenario", "GS", "--trials", str(trials), "--seed", "6",
             "--out", str(out)]
    assert main(rerun) == 3
    assert f"trial {CHUNK_TRIALS + 5} failed" in capsys.readouterr().err
    assert len(list((out / "trials").glob("trial_*.jsonl"))) == trials
    assert not (out / "config.json").exists()
    assert not (out / "config.json.tmp").exists()
    for command in (["summarize"], ["detect"]):
        assert main(command + ["--out", str(out)]) == 3
        assert "corrupt run directory" in capsys.readouterr().err

    monkeypatch.setitem(SCENARIOS, "GS", gs)
    assert main(rerun) == 0
    assert not (out / "config.json.tmp").exists()
    assert main(["summarize", "--out", str(out)]) == 0
    assert f"trials,{trials}" in capsys.readouterr().out


def test_cli_detect_bad_position_names_trial_file(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--scenario", "TCAS", "--trials", "3", "--seed", "5",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    path = out / "trials" / "trial_00002.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    index = next(i for i, r in enumerate(records) if r["kind"] == "surveillance")
    _rewrite_record(path, index, lambda r: r["payload"].update(position_m="abc"))
    assert main(["detect", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "corrupt trial log" in err and "trial_00002.jsonl" in err


@pytest.mark.parametrize("key,value", [
    ("claimed_position_m", [1.0, float("nan"), 3.0]),
    ("position_m", [float("inf"), 2.0, 3.0]),
    ("claimed_position_m", [1.0, True, 3.0]),
    ("position_m", [1.0, 2.0]),
    ("claimed_position_m", [1.0, 2.0, 3.0, 4.0]),
    ("position_m", [1.0, "2", 3.0]),
    ("claimed_position_m", [1.0, [2.0], 3.0]),
    ("position_m", {"x": 1.0}),
    ("claimed_position_m", [10**400, 2.0, 3.0]),
], ids=["nan", "inf", "bool", "two", "four", "string", "nested", "object", "beyond-float"])
def test_cli_detect_rejects_non_coordinates(tmp_path, capsys, key, value):
    """A surveillance position that is not three finite numbers (bools are
    not numbers) is exit 3 naming the trial file and the record's time, and
    no verdicts are written."""

    out = tmp_path / "out"
    assert main(["run", "--scenario", "TCAS", "--trials", "3", "--seed", "5",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    path = out / "trials" / "trial_00001.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    index = next(i for i, r in enumerate(records) if r["kind"] == "surveillance")
    _rewrite_record(path, index, lambda r: r["payload"].update({key: value}))
    assert main(["detect", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"corrupt trial log {path}: surveillance at t={records[index]['t']}: {key}" in err
    assert not (out / "verdicts.csv").exists()
