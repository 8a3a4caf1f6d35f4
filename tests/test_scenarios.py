"""Per-cycle evaluation in the TCAS trials: a run makes no `world.step`
call and, where the cruise stays on one side of the activation floor, no
terrain lookup, else one `np.interp` per lockstep iteration; the encounters
run as array rounds with no scalar cycle, an encounter builds one message
and no `IntruderTrack`, and no cycle calls `np.linalg.norm`.  The GPWS
approach set-up looks the terrain up once per batch, and the fine loop runs
as array kernels: it builds no state, echo or `world.step` call per step,
and makes no per-step scalar call; its ramp computes the heights of the
steps its blocks fly and no other sweep.  Trials read the objects
`make_config` built and construct none of their own.  TCAS encounters follow
their own geometry: the scheduled trial writes the logs of a plain 1 Hz
reference loop over random claims and thresholds.  The GPWS array loop
writes the logs of a reference loop that advances an `AircraftState` by
`world.step` each step, over random approaches, step sizes, attack rates
and terrain.  Both reference loops run the scalar models of `reference.py`,
which no module under `src` imports."""

import dataclasses
import functools
import json
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from spoofsim import crew, gpws, ils, radalt, tcas, world
from spoofsim.harness import run, runner, scenarios
from spoofsim.harness.config import ConfigError, make_config
from spoofsim.harness.log import TrialLog
from spoofsim.harness.output import emit
from spoofsim.harness.runner import CHUNK_TRIALS, trial_seeds
from spoofsim.harness.scenarios import (
    _GPWS_LEAD_FT, _GPWS_RAMP_DURATION_S, _SWEEP, SCENARIOS, approach_start,
)
from spoofsim.harness.summary import Summary, fold
from spoofsim.units import ft_to_m, kn_to_mps, m_to_ft

from reference import (
    ClosureRateEstimator, RampAttackPlan, evaluate, first_cycle_within, gs_trial_objects,
    mode_s_cycle,
)

#: The golden-output seed.
SEED = 20190118


def _cruise_state_fn(initial):
    """Own-ship state at time t of the 1 Hz reference: ``initial`` held
    before its time, then one ``world.step`` from it."""

    def fn(t):
        if t <= initial.time:
            return initial
        return world.step(
            initial, initial.vertical_speed, initial.ground_speed, t - initial.time
        )

    return fn


def _position(state):
    x, y = state.ground_position
    return x, y, state.altitude_msl


def _counting(counts, name, fn):
    """``fn``, counting its calls under ``name``."""

    def wrapped(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapped


#: A TCAS config whose terrain straddles the activation floor: a ridge past
#: the runway brings level cruise below it for part of the run, so the
#: injector falls silent mid-encounter.
_STRADDLING = {
    "version": 1, "scenario": "TCAS", "trials": 4, "master_seed": SEED,
    "world": {"cruise": {"altitude_ft": 2500.0},
              "terrain": [[-50000.0, 100.0], [5000.0, 100.0], [8000.0, 400.0],
                          [11000.0, 100.0], [50000.0, 100.0]]},
}


#: Level cruise over two ridges that bring it below the activation floor at
#: t in (4.7, 8.0) s and (10.6, 19.8) s.
_SILENT_RIDGES = {
    "version": 1, "scenario": "TCAS", "trials": 4, "master_seed": SEED,
    "world": {"cruise": {"altitude_ft": 2500.0},
              "terrain": [[-50000.0, 100.0], [550.0, 100.0], [600.0, 400.0], [900.0, 400.0],
                          [950.0, 100.0], [1250.0, 100.0], [1300.0, 400.0], [2300.0, 400.0],
                          [2350.0, 100.0], [50000.0, 100.0]]},
}


def _tcas_work(monkeypatch, raw):
    """Calls of the encounters' geometry and terrain lookups (``"terrain"``
    for `elevation_at`, ``"np.interp"``) over a TCAS `run()` of ``raw``, the
    rows of the cycles the encounter kernel evaluates (``"cycles"``, summed
    over its `tcas.slant_ranges` calls, one per lockstep iteration), and the
    trial count.  The config, whose checks look up the terrain too, is built
    before counting."""

    cfg = make_config(raw)
    counts = Counter()
    counting = functools.partial(_counting, counts)
    slant_ranges = tcas.slant_ranges

    def counting_ranges(own, other):
        counts["iterations"] += 1
        counts["cycles"] += len(own)
        return slant_ranges(own, other)

    monkeypatch.setattr(world, "step", counting("step", world.step))
    monkeypatch.setattr(world.AircraftState, "__init__",
                        counting("state", world.AircraftState.__init__))
    monkeypatch.setattr(world.TerrainProfile, "elevation_at",
                        counting("terrain", world.TerrainProfile.elevation_at))
    monkeypatch.setattr(np, "interp", counting("np.interp", np.interp))
    monkeypatch.setattr(tcas, "slant_ranges", counting_ranges)
    monkeypatch.setattr(scenarios, "_tcas_encounters",
                        counting("rounds", scenarios._tcas_encounters))
    monkeypatch.setattr(tcas, "alert_levels", counting("alert_levels", tcas.alert_levels))
    for owner, attr in [(tcas, "advise"), (tcas, "slant_range"),
                        (tcas.FalseIntruderInjector, "_claimed_position")]:
        monkeypatch.setattr(owner, attr, counting(f"scalar {attr}", getattr(owner, attr)))
    counts["episodes"] = sum(1 for log in run(cfg) for _ in log.iter_kind("episode_start"))
    monkeypatch.undo()
    return counts, cfg.trials


def test_tcas_cycle_evaluates_geometry_once(monkeypatch):
    """Work budget: a TCAS `run()` at N=20 makes no `world.step` call, builds
    at most one `AircraftState` per trial and, on the defaults (cruise far
    above the activation floor), makes no terrain lookup; the encounter
    kernel evaluates each cycle's geometry once, for at most 702 cycles, the
    count of the fixed schedule the encounter loop replaced.  Each lockstep
    iteration alerts all its rows in one `tcas.alert_levels` call, and no
    `advise` runs; on the defaults each round also gates its schedule's
    bands (`_first_cycles`) with one.  Where the terrain straddles the
    floor, each lockstep iteration looks up the terrain under all its rows
    in one `np.interp` call, with no `elevation_at`, and the run still
    writes the 1 Hz reference's logs."""

    counts, trials = _tcas_work(
        monkeypatch, {"version": 1, "scenario": "TCAS", "trials": 20, "master_seed": SEED})
    assert 0 < counts["cycles"] <= 702, counts
    assert counts["step"] == counts["terrain"] == counts["np.interp"] == 0, counts
    assert counts["state"] <= trials, counts
    assert counts["alert_levels"] == counts["iterations"] + counts["rounds"], counts
    assert counts["scalar advise"] == 0, counts

    counts, trials = _tcas_work(monkeypatch, _STRADDLING)
    assert counts["terrain"] == 0 and 0 < counts["np.interp"] == counts["iterations"], counts
    assert 0 < counts["alert_levels"] == counts["iterations"], counts
    assert counts["scalar advise"] == 0, counts
    assert counts["step"] == 0 and counts["state"] <= trials, counts
    _tcas_logs_agree(_STRADDLING)


@pytest.mark.parametrize("start_tau_s", [50.0, 1e5])
def test_tcas_encounters_run_as_array_rounds(monkeypatch, start_tau_s):
    """Work budget: a TCAS `run()` at N=20 flies its encounters in the
    kernel's array rounds, one `_tcas_encounters` call per round, and makes
    no scalar cycle: no `advise`, `slant_range` or `_claimed_position` call
    (the scalar Mode S cycle is a test reference, out of the run's reach).
    On the defaults each encounter runs its cycles 0, 2, 3, 20 and 21 or
    fewer, so the
    lockstep iterations per episode stay a handful whatever the claim's
    starting tau: a 1 Hz loop would run ``floor_cycle`` (about ``start_tau_s``)
    cycles."""

    counts, _ = _tcas_work(monkeypatch, {
        "version": 1, "scenario": "TCAS", "trials": 20, "master_seed": SEED,
        "attacker": {"tcas": {"start_tau_s": start_tau_s}}})
    assert counts["episodes"] >= 20 and 0 < counts["rounds"] <= counts["episodes"], counts
    assert not [name for name in counts if name.startswith("scalar")], counts
    assert counts["cycles"] <= 5 * counts["episodes"], counts
    assert counts["iterations"] <= 8 * counts["rounds"], counts


def _tcas_run_counting(monkeypatch, targets):
    """Calls of each (owner, attribute) in ``targets``, counted as
    ``"<owner>.<attribute>"``, over a TCAS `run()` at N=20, and its episodes."""

    cfg = make_config({"version": 1, "scenario": "TCAS", "trials": 20, "master_seed": SEED})
    counts = Counter()
    counting = functools.partial(_counting, counts)
    for owner, attr in targets:
        monkeypatch.setattr(owner, attr,
                            counting(f"{owner.__name__}.{attr}", getattr(owner, attr)))
    counts["episodes"] = sum(
        1 for log in run(cfg) for _ in log.iter_kind("episode_start"))
    return counts


def test_tcas_cycle_builds_one_message(monkeypatch):
    """Work budget: a surveillance cycle reads the injector's claim and builds
    no message; only each encounter's logged reply is a
    `SurveillanceMessage`, so a TCAS `run()` at N=20 builds at most one per
    `episode_start`."""

    counts = _tcas_run_counting(monkeypatch, [(tcas.SurveillanceMessage, "__init__")])
    messages = counts["SurveillanceMessage.__init__"]
    assert 0 < messages <= counts["episodes"], counts


def test_tcas_injector_holds_no_function_or_array(monkeypatch):
    """Work budget: a TCAS trial's injector, which the trial never asks
    whether it is active, holds no default AGL function and its site as a
    tuple of floats, not an array."""

    injectors = []

    class Recording(tcas.FalseIntruderInjector):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            injectors.append(self)

    monkeypatch.setattr(tcas, "FalseIntruderInjector", Recording)
    run(make_config({"version": 1, "scenario": "TCAS", "trials": 3, "master_seed": SEED}))
    assert len(injectors) == 3
    for injector in injectors:
        held = vars(injector).values()
        assert not [v for v in held if callable(v) or isinstance(v, np.ndarray)], vars(injector)
        assert injector.attacker_position == (-5000.0, 8000.0, 150.0)
        assert all(type(v) is float for v in injector.attacker_position)


def test_tcas_trial_holds_mode_and_advisories_as_values(monkeypatch):
    """Work budget: a TCAS `run()` at N=20 builds no `TcasUnit` (a trial
    keeps its alerting mode as a value) and at most one `Advisory` per trial
    (its RA's sense and rate, read once), and takes each round's schedule
    from one array `_first_cycles` call, with no scalar bound per encounter."""

    kernel = scenarios.__name__
    counts = _tcas_run_counting(monkeypatch, [
        (tcas.TcasUnit, "__init__"), (tcas.Advisory, "__init__"),
        (scenarios, "_first_cycles"), (scenarios, "_tcas_encounters")])
    assert counts["episodes"] > 0, counts
    assert counts["TcasUnit.__init__"] == 0, counts
    assert 0 < counts["Advisory.__init__"] <= 20, counts
    assert counts[f"{kernel}._first_cycles"] == counts[f"{kernel}._tcas_encounters"] > 0, counts
    assert not hasattr(tcas.FalseIntruderInjector, "first_cycle_within")


def test_tcas_integer_attacker_position_logs_floats():
    """An attacker site given as JSON integers logs the bytes of the same
    site given as floats (``-5000.0``, not ``-5000``)."""

    def logs(position):
        cfg = make_config({"version": 1, "scenario": "TCAS", "trials": 3, "master_seed": SEED,
                           "attacker": {"tcas": {"position_m": position}}})
        return [log.to_jsonl() for log in run(cfg)]

    as_floats = logs([-5000.0, 8000.0, 150.0])
    assert logs([-5000, 8000, 150]) == as_floats
    assert '"position_m": [-5000.0, 8000.0, 150.0]' in "".join(as_floats)


def test_tcas_tracks_update_in_place(monkeypatch):
    """Work budget: the encounter kernel keeps each encounter's track as
    array state, updated in place each cycle, and the slant range takes no
    `np.linalg.norm` call: a TCAS `run()` at N=20 builds no `IntruderTrack`
    and calls `np.linalg.norm` zero times."""

    counts = _tcas_run_counting(
        monkeypatch, [(tcas.IntruderTrack, "__init__"), (np.linalg, "norm")])
    assert counts["episodes"] > 0, counts
    assert counts["IntruderTrack.__init__"] == 0, counts
    assert counts["numpy.linalg.norm"] == 0, counts


def test_gpws_fine_loop_runs_as_array_kernels(monkeypatch):
    """Work budget: the fine loop flies each approach round as array blocks,
    so a GPWS `run()` over two batches makes no per-step scalar call: no
    `Mode2Envelope.threshold_fpm` (the scalar closure estimator and ramp are
    test references, out of the run's reach).  Every approach starts at the
    same point, so the set-up looks the terrain up with `elevation_at` once
    per batch (for the jumps to the attack window), and `np.interp` is
    called at most twice per kernel call (terrain and envelope) besides.
    The config, whose checks look up the terrain too, is built before
    counting."""

    cfg = make_config({"version": 1, "scenario": "GPWS", "trials": CHUNK_TRIALS + 3,
                       "master_seed": SEED})
    counts = Counter()
    for owner, attr in [
        (gpws.Mode2Envelope, "threshold_fpm"), (world.TerrainProfile, "elevation_at"),
        (np, "interp"), (scenarios, "_gpws_block"),
    ]:
        monkeypatch.setattr(owner, attr, _counting(counts, attr, getattr(owner, attr)))
    approaches = sum(1 for log in run(cfg) for _ in log.iter_kind("approach_start"))
    assert approaches > cfg.trials and counts["_gpws_block"] > 0, counts
    assert counts["threshold_fpm"] == 0, counts
    assert counts["elevation_at"] == 2, counts
    assert 0 < counts["interp"] <= 2 * counts["_gpws_block"] + 2, counts


def test_gpws_ramp_computes_only_the_sweeps_read(monkeypatch):
    """Work budget: an attacked approach computes the injected echo's height
    of each step its array block flies, one `radalt.ramp_heights` call per
    block over that block's steps, and of no other sweep of the ramp; no
    per-sweep `height_to_delay` call."""

    cfg = make_config({"version": 1, "scenario": "GPWS", "trials": 20, "master_seed": SEED})
    counts = Counter()
    blocks, ramps = [], []
    block_fn, ramp_fn = scenarios._gpws_block, radalt.ramp_heights

    def counting_block(cfg, rows, steps):
        blocks.append((len(rows), steps))
        return block_fn(cfg, rows, steps)

    def counting_ramp(start_agl, elapsed, *args):
        ramps.append(np.shape(elapsed))
        return ramp_fn(start_agl, elapsed, *args)

    monkeypatch.setattr(scenarios, "_gpws_block", counting_block)
    monkeypatch.setattr(radalt, "ramp_heights", counting_ramp)
    monkeypatch.setattr(radalt, "height_to_delay",
                        _counting(counts, "delays", radalt.height_to_delay))
    run(cfg)
    assert blocks and ramps == blocks, (blocks, ramps)
    assert counts["delays"] == 0, counts


def test_gpws_fine_loop_builds_no_state_per_step(monkeypatch):
    """Work budget: the fine loop steps floats, so a GPWS `run()` at N=20
    builds at most three `AircraftState`s per approach (its start, the jump
    to the attack window and the loop's end), no `PulseEcho`, and calls
    `world.step` at most once per approach, for that jump.  The config, whose
    checks build approach states too, is built before counting."""

    cfg = make_config({"version": 1, "scenario": "GPWS", "trials": 20, "master_seed": SEED})
    counts = Counter()
    for cls in (world.AircraftState, radalt.PulseEcho):
        def counting_init(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    monkeypatch.setattr(world, "step", _counting(counts, "step", world.step))
    approaches = sum(1 for log in run(cfg) for _ in log.iter_kind("approach_start"))
    assert approaches >= 20 and counts["step"] > 0
    assert counts["AircraftState"] <= 3 * approaches, (approaches, counts)
    assert counts["PulseEcho"] == 0, counts
    assert counts["step"] <= approaches, (approaches, counts)


def test_gpws_alerts_handled_as_each_block_ends(monkeypatch):
    """A round's alerts are handled as their block ends: each alerting row of
    a `_gpws_block` call draws its crew latency before the next call, so a
    round holds one block of flights at a time.  At N=200 the first round
    has 200 rows; a 0.05 s step makes the first blocks 128 steps by 32 rows,
    so the rows of every 64 trials span two blocks."""

    cfg = make_config({"version": 1, "scenario": "GPWS", "trials": 200, "master_seed": SEED,
                       "world": {"dt_s": 0.05}})
    calls = []  # a block's count of alerting rows, or "latency"
    block_fn, latency_fn = scenarios._gpws_block, crew.gpws_reaction_latency

    def recording_block(cfg, rows, steps):
        flights = block_fn(cfg, rows, steps)
        calls.append(sum(1 for flight in flights if flight is not None and flight[0]))
        return flights

    def recording_latency(*args):
        calls.append("latency")
        return latency_fn(*args)

    monkeypatch.setattr(scenarios, "_gpws_block", recording_block)
    monkeypatch.setattr(crew, "gpws_reaction_latency", recording_latency)
    run(cfg)
    blocks = [i for i, call in enumerate(calls) if call != "latency"]
    assert len(blocks) >= 7 and calls[blocks[0]] > 0, calls
    for i, j in zip(blocks, blocks[1:] + [len(calls)]):
        assert calls[i + 1:j] == ["latency"] * calls[i], (i, calls)


@pytest.mark.parametrize("raw", [
    {"version": 1, "scenario": "GPWS", "trials": 20, "master_seed": SEED},
    # On the defaults a TCAS cycle looks nothing up; over terrain that
    # straddles the activation floor, it does.
    {**_STRADDLING, "trials": 20},
], ids=["GPWS", "TCAS"])
def test_lookups_make_no_numpy_calls(monkeypatch, raw):
    """Work budget: no terrain or Mode 2 lookup is made one point at a time
    beyond one per batch.  A GPWS `run()` at N=20 looks the terrain up once
    with `elevation_at` (one `np.interp`) for its approach set-up, and its
    array kernel makes two `np.interp` calls per block (terrain and
    envelope); a TCAS run over terrain that straddles the activation floor
    makes one per lockstep iteration, over all the iteration's rows, and no
    `elevation_at` call.  The config, whose checks look up the terrain too,
    is built before counting."""

    cfg = make_config(raw)
    counts = Counter()
    counting = functools.partial(_counting, counts)
    monkeypatch.setattr(np, "interp", counting("np.interp", np.interp))
    monkeypatch.setattr(world.TerrainProfile, "elevation_at",
                        counting("terrain", world.TerrainProfile.elevation_at))
    monkeypatch.setattr(scenarios, "_gpws_block",
                        counting("blocks", scenarios._gpws_block))
    monkeypatch.setattr(tcas, "slant_ranges", counting("iterations", tcas.slant_ranges))
    run(cfg)
    if cfg.scenario == "GPWS":
        assert counts["terrain"] == 1 and counts["blocks"] > 0, counts
        assert counts["np.interp"] == 2 * counts["blocks"] + 1, counts
    else:
        assert counts["terrain"] == 0 and counts["iterations"] > 0, counts
        assert counts["np.interp"] == counts["iterations"], counts


#: Objects built from the config (or, for the envelope and the sweep, from no
#: config at all): a trial reads them and constructs none.
_CONFIG_OBJECTS = (
    world.TerrainProfile, world.RunwayModel, crew.GpwsPolicy, crew.TcasPolicy,
    crew.GsPolicy, gpws.AttackSchedule, gpws.Mode2Envelope, radalt.SweepConfig,
    tcas.AdvisoryThresholds, tcas.FalseIntruderPlan, ils.GlideslopeTx,
)


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_trials_construct_no_config_objects(monkeypatch, scenario):
    """Work budget: `make_config` builds the runway, terrain and crew policies
    once; `run()` at N=20 constructs none of the config objects."""

    counts = Counter()
    for cls in _CONFIG_OBJECTS:
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    cfg = make_config({"version": 1, "scenario": scenario, "trials": 20, "master_seed": SEED})
    built = {"TerrainProfile", "RunwayModel", "GpwsPolicy", "TcasPolicy", "GsPolicy"}
    assert built <= set(counts)  # the counters see construction
    counts.clear()
    assert len(run(cfg)) == 20
    assert not counts, counts


@pytest.mark.parametrize("scenario, name", [
    ("TCAS", "tcas_trial"), ("GS", "gs_trial"), ("BASELINE", "gs_trial"),
])
def test_trials_call_the_trial_function_by_module_name(monkeypatch, scenario, name):
    """A TCAS or glideslope batch calls its one-trial function by its name
    in `harness.scenarios`, once per trial in trial order, so a function
    bound over that name (as perfbench's tracer binds its wrappers) sees
    every trial of a `run()` over more than one chunk.  Each is handed the
    generator ``default_rng`` of its seed would be, unused."""

    cfg = make_config({"version": 1, "scenario": scenario, "trials": CHUNK_TRIALS + 3,
                       "master_seed": SEED})
    seen = []
    trial = getattr(scenarios, name)

    def recording(cfg, trial_id, seed, rng):
        seen.append((trial_id, seed))
        assert rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state
        return trial(cfg, trial_id, seed, rng)

    monkeypatch.setattr(scenarios, name, recording)
    logs = run(cfg)
    assert seen == list(enumerate(trial_seeds(SEED, range(cfg.trials))))
    assert seen == [(log.trial_id, log.seed) for log in logs]


def _tcas_advisories(override):
    """Episodes and advisories by level over a TCAS run at N=5."""

    cfg = make_config({"version": 1, "scenario": "TCAS", "trials": 5, "master_seed": SEED,
                       **override})
    counts = Counter()
    for log in run(cfg):
        counts["episodes"] += sum(1 for _ in log.iter_kind("episode_start"))
        counts.update(e["payload"]["level"] for e in log.iter_kind("advisory"))
    return counts


@pytest.mark.parametrize("override", [
    pytest.param({}, id="defaults"),
    pytest.param({"attacker": {"tcas": {"start_tau_s": 51.0}}}, id="start-tau-51"),
    pytest.param({"tcas_system": {"tau_ra_s": 25.0}}, id="tau-ra-25"),
    pytest.param({"tcas_system": {"tau_ta_s": 40.0}}, id="tau-ta-40"),
])
def test_tcas_encounters_reach_resolution_advisories(override):
    """An injected intruder that starts at tau 50-51 s and keeps closing
    crosses the TA threshold and then the RA threshold within its encounter,
    so every episode raises a TA and a run raises RAs (43 episodes, 43 TAs,
    32 RAs on the defaults)."""

    counts = _tcas_advisories(override)
    assert counts["episodes"] > 0 and counts["TA"] == counts["episodes"], dict(counts)
    assert counts["RA"] > 0, dict(counts)


@pytest.mark.parametrize("override", [
    pytest.param({}, id="defaults"),
    pytest.param({"policies": {"tcas": {"p_downgrade": 0.0}}}, id="never-downgrade"),
    pytest.param({"policies": {"tcas": {"p_downgrade": 1.0, "p_standby_given_downgrade": 1.0}}},
                 id="always-standby"),
    # The first RA spends the budget, often before the crew's path ends.
    pytest.param({"attacker": {"tcas": {"alert_budget": 1}}}, id="budget-1"),
])
def test_tcas_run_outcome_invariants(override):
    """Whatever path a crew takes, and wherever the run stops on it, its final
    action is one the policy allows for the mode reached (CONTINUE in TA/RA),
    it observes no more RAs than the attacker's budget and no more episodes
    than allowed, and no episode raises its RA before its TA."""

    cfg = make_config({"version": 1, "scenario": "TCAS", "trials": 200, "master_seed": SEED,
                       **override})
    table = cfg.tcas_policy.action_given_final_mode
    for log in run(cfg):
        end = log.events[-1]["payload"]
        mode, action = end["final_mode"], end["final_action"]
        assert table[mode].get(action, 0.0) > 0.0, end
        assert mode != tcas.TA_RA or action == crew.CONTINUE, end
        assert end["ras_observed"] <= cfg.false_intruder_plan.alert_budget, end
        assert end["episodes"] <= cfg.max_episodes, end
        with_ta = set()
        for event in log.iter_kind("advisory"):
            level, episode = event["payload"]["level"], event["payload"]["episode"]
            if level == "TA":
                with_ta.add(episode)
            else:
                assert episode in with_ta, (log.trial_id, event)
        assert end["ras_observed"] == sum(
            e["payload"]["level"] == "RA" for e in log.iter_kind("advisory")), end


def _tcas_trial_1hz(cfg, trial_id, seed):
    """`tcas_trial` with a plain 1 Hz encounter loop, the reference the
    scheduled one must match: cycles run at t + k for k = 0, 1, 2, ..., each
    one advised, until an RA, a TA that leaves the unit outside TA/RA, or the
    cycle at which the claimed range reaches its floor (it stops closing).
    Only attacked runs: a run without the attacker has no encounter loop."""

    rng = np.random.default_rng(seed)
    log = TrialLog(trial_id=trial_id, seed=seed, scenario=cfg.scenario)
    terrain, policy = cfg.terrain, cfg.tcas_policy
    initial = world.AircraftState(
        time=0.0, ground_position=(0.0, 0.0), altitude_msl=ft_to_m(cfg.cruise_altitude_ft),
        vertical_speed=0.0, ground_speed=kn_to_mps(cfg.cruise_ground_speed_kn), heading=0.0,
    )
    state_fn = _cruise_state_fn(initial)

    def agl_fn(t):
        s = state_fn(t)
        lo, hi = terrain.domain
        return m_to_ft(s.altitude_msl - terrain.elevation_at(min(max(s.along_track, lo), hi)))

    unit = tcas.TcasUnit(thresholds=cfg.tcas_thresholds, mode=tcas.TA_RA, rng=rng)
    crew_state = crew.sample_tcas_crew(policy, rng)
    injector = tcas.FalseIntruderInjector(
        cfg.false_intruder_plan, rng, target_fn=state_fn, target_agl_fn=agl_fn,
        attacker_position=cfg.attacker_position_m,
    )
    t, episodes = 0.0, 0
    while (episodes < cfg.max_episodes
           and crew_state.ra_count < cfg.false_intruder_plan.alert_budget
           and not crew_state.settled(unit.mode)):
        injector.start_episode(t)
        episodes += 1
        log.add(t, "episode_start", {
            "episode": episodes, "icao_id": injector.icao_id,
            "bearing_deg": injector._bearing, "closure_mps": injector._speed,
        })
        ta_handled = False
        sample = None
        k_end = max(0, math.ceil(
            cfg.false_intruder_plan.start_tau_s - tcas.CLAIM_FLOOR_M / injector._speed))
        for k in range(k_end + 1):
            tc = t + k
            claims = mode_s_cycle(unit, _position(state_fn(tc)), (injector,), tc)
            if sample is None and claims:
                sample = tc, claims[0]
            adv = tcas.advise(list(unit.tracks.values()), None, unit.mode, unit.thresholds, tc)
            if adv is None:
                continue
            if adv.level == "TA" and not ta_handled:
                ta_handled = True
                log.add(tc, "advisory", {"level": "TA", "episode": episodes})
                action, unit.mode = crew.tcas_act(adv.level, unit.mode, crew_state)
                log.add(tc, "crew_action", {"action": action, "episode": episodes})
                if unit.mode != tcas.TA_RA:
                    break
            elif adv.level == "RA":
                log.add(tc, "advisory", {
                    "level": "RA", "episode": episodes,
                    "ra_sense": adv.ra_sense, "commanded_rate_fpm": adv.commanded_rate,
                })
                action, unit.mode = crew.tcas_act(adv.level, unit.mode, crew_state)
                log.add(tc, "crew_action", {"action": action, "episode": episodes})
                break
        if sample is not None:
            log.add(tc, "surveillance", injector.reply(*sample).to_record())
        unit.tracks.clear()
        t = tc + cfg.inter_episode_gap_s

    final_mode = unit.mode
    if crew_state.settled(final_mode):
        final_action = crew_state.final_action
    elif final_mode == tcas.TA_RA:
        final_action = crew.CONTINUE
    else:
        final_action = crew.sample_categorical(rng, policy.action_given_final_mode[final_mode])
    outcome = {crew.CONTINUE: "CONTINUED", crew.AVOIDANCE: "AVOIDED",
               crew.DIVERT: "DIVERTED"}[final_action]
    log.finish(t, outcome, {
        "final_mode": final_mode, "final_action": final_action, "episodes": episodes,
        "ras_observed": crew_state.ra_count,
        "tas_after_downgrade": crew_state.ta_count_since_downgrade,
    })
    return log


def _tcas_logs_agree(raw):
    """The scheduled trials and the 1 Hz reference write the same JSONL."""

    cfg = make_config(raw)
    scheduled = [log.to_jsonl() for log in run(cfg)]
    reference = [_tcas_trial_1hz(cfg, i, seed).to_jsonl()
                 for i, seed in enumerate(trial_seeds(cfg.master_seed, range(cfg.trials)))]
    assert scheduled == reference


def _seconds(lo, hi):
    """Times in [lo, hi], whole seconds as often as not: a claim whose tau
    falls exactly on a threshold at a cycle tests the rounding margin."""

    return st.one_of(st.integers(math.ceil(lo), math.floor(hi)).map(float),
                     st.floats(min_value=lo, max_value=hi))


@st.composite
def _tcas_geometries(draw):
    """A TCAS config whose claim and thresholds vary: the vertical offset may
    be 0 or sit exactly on a band edge, and tau_ra_s lies anywhere below
    tau_ta_s."""

    tau_ta = draw(_seconds(1.0, 90.0))
    ta_band = draw(st.floats(min_value=100.0, max_value=2000.0))
    ra_band = draw(st.floats(min_value=50.0, max_value=ta_band))
    offset = draw(st.one_of(
        st.sampled_from([0.0, ra_band, -ra_band, ta_band, -ta_band]),
        st.floats(min_value=-2500.0, max_value=2500.0),
    ))
    return {
        "version": 1, "scenario": "TCAS", "trials": 2, "master_seed": draw(st.integers(0, 2**32)),
        "attacker": {"tcas": {
            "start_tau_s": draw(_seconds(0.5, 120.0)),
            "approach_speed_mps": draw(_seconds(20.0, 400.0)),
            "speed_jitter_mps": draw(st.sampled_from([0.0, 60.0]) | st.floats(0.0, 150.0)),
            "bearing_jitter_deg": draw(st.floats(min_value=0.0, max_value=180.0)),
            "vertical_offset_ft": offset,
        }},
        "tcas_system": {
            "tau_ta_s": tau_ta,
            "tau_ra_s": draw(_seconds(0.5, tau_ta).filter(lambda x: x < tau_ta)),
            "ta_band_ft": ta_band,
            "ra_band_ft": ra_band,
            # Few encounters a trial: one that raises nothing costs the
            # reference a cycle for every second of its claim.
            "max_episodes": draw(st.integers(min_value=1, max_value=6)),
        },
    }


@settings(max_examples=200, deadline=None, derandomize=True)
@given(raw=_tcas_geometries())
@example(raw={"version": 1, "scenario": "TCAS", "trials": 20, "master_seed": SEED})
# Tau falls exactly to tau_ta_s at cycle 1 in exact arithmetic; without its
# rounding margin the predicted crossing lands a cycle late.
@example(raw={
    "version": 1, "scenario": "TCAS", "trials": 2, "master_seed": 0,
    "attacker": {"tcas": {"start_tau_s": 14.0, "approach_speed_mps": 46.0,
                          "bearing_jitter_deg": 0.0, "vertical_offset_ft": 0.0}},
    "tcas_system": {"tau_ta_s": 13.0, "tau_ra_s": 1.0, "ta_band_ft": 100.0,
                    "ra_band_ft": 50.0, "max_episodes": 3},
})
@example(raw=_STRADDLING)
# An activation floor above the cruise: the injector never answers.
@example(raw={"version": 1, "scenario": "TCAS", "trials": 4, "master_seed": SEED,
              "attacker": {"tcas": {"activation_floor_ft": 20000.0}}})
# Two chunks on the defaults: rounds over each chunk, up to 15 of them.
@example(raw={"version": 1, "scenario": "TCAS", "trials": CHUNK_TRIALS + 3,
              "master_seed": SEED})
# Two ridges silence the injector between the first encounter's TA and RA:
# for 3 cycles (the next update's closure spans 4 s) and for 9, past
# `TRACK_STALENESS_S` (the track is dropped and built again).
@example(raw=_SILENT_RIDGES)
@example(raw={"version": 1, "scenario": "TCAS", "trials": 20, "master_seed": SEED,
              "policies": {"tcas": {"p_downgrade": 1.0, "p_standby_given_downgrade": 1.0}}})
@example(raw={"version": 1, "scenario": "TCAS", "trials": 20, "master_seed": SEED,
              "attacker": {"tcas": {"alert_budget": 1}}})
def test_tcas_schedule_matches_1hz_reference(raw):
    """Property: a scheduled encounter raises its TA and RA at exactly the
    cycles of the 1 Hz reference, whatever the claim, the thresholds and the
    terrain under the cruise, so the two write byte-identical logs (on the
    defaults, the golden bytes)."""

    _tcas_logs_agree(raw)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(raw=_tcas_geometries(), speeds=st.lists(_seconds(tcas.MIN_CLOSURE_MPS, 500.0),
                                               min_size=1, max_size=6))
# Whole seconds: tau falls exactly to tau_ta_s at cycle 1 in exact arithmetic.
@example(raw={"version": 1, "scenario": "TCAS",
              "attacker": {"tcas": {"start_tau_s": 14.0, "vertical_offset_ft": 0.0}},
              "tcas_system": {"tau_ta_s": 13.0, "tau_ra_s": 1.0, "ta_band_ft": 100.0,
                              "ra_band_ft": 50.0}}, speeds=[46.0, 30.0])
# In both bands, but tau(e) bottoms out above each threshold at the slowest
# closures: a negative discriminant.
@example(raw={"version": 1, "scenario": "TCAS",
              "attacker": {"tcas": {"vertical_offset_ft": -2000.0}},
              "tcas_system": {"ta_band_ft": 2000.0, "ra_band_ft": 2000.0}},
         speeds=[30.0, 31.0, 40.0, 180.0])
# On the RA band's edge and outside the TA band.
@example(raw={"version": 1, "scenario": "TCAS",
              "attacker": {"tcas": {"vertical_offset_ft": 600.0}}}, speeds=[180.0, 30.0])
@example(raw={"version": 1, "scenario": "TCAS",
              "attacker": {"tcas": {"vertical_offset_ft": -1200.5}}}, speeds=[180.0])
# The injector may fall silent, so every cycle runs; or it never answers.
@example(raw=_STRADDLING, speeds=[180.0, 30.0])
@example(raw={"version": 1, "scenario": "TCAS",
              "attacker": {"tcas": {"activation_floor_ft": 20000.0}}}, speeds=[180.0])
def test_first_cycles_equal_scalar_bound(raw, speeds):
    """Property: the encounter kernel's schedule, taken for all its rows as
    arrays, is the scalar bound of `reference.first_cycle_within` for each
    row, as integers (numpy's squares may differ from ``x ** 2`` in the last
    bit; the 1e-6 s margin absorbs that): ``inf`` outside a band or where the
    claim never closes that fast, and cycle 1 where the terrain straddles the
    activation floor."""

    cfg = make_config(raw)
    th, plan = cfg.tcas_thresholds, cfg.false_intruder_plan
    answers, _, rel = scenarios._claim_frame(cfg)

    def expected(tau_s, band_ft):
        if not answers:
            return [1] * len(speeds)
        if abs(rel) > band_ft:
            return [math.inf] * len(speeds)
        return [first_cycle_within(plan, v, tau_s) for v in speeds]

    ta_from, ra_from = scenarios._first_cycles(cfg, np.array(speeds))
    for got, want in [(ta_from, expected(th.tau_ta_s, th.ta_band_ft)),
                      (ra_from, expected(th.tau_ra_s, th.ra_band_ft))]:
        assert got.tolist() == want


def _gpws_trial(cfg, trial_id, seed):
    return SCENARIOS["GPWS"].trials(cfg, [trial_id], [seed])[0]


def _gpws_trial_stepped(cfg, trial_id, seed):
    """A GPWS trial with a fine loop that advances an `AircraftState` by
    `world.step` each step, ranges a `PulseEcho` from the ramp and alerts
    through `evaluate`: the reference the array loop must match."""

    rng = np.random.default_rng(seed)
    log = TrialLog(trial_id=trial_id, seed=seed, scenario=cfg.scenario)
    runway, terrain, policy = cfg.runway, cfg.terrain, cfg.gpws_policy
    apparent_rate = cfg.apparent_descent_rate_mps
    t = 0.0

    approach = 0
    while True:
        approach += 1
        state = approach_start(cfg, t)
        trigger = (
            gpws.scripted_trigger(approach, rng, cfg.gpws_attack_schedule)
            if cfg.attacker_enabled
            else -1.0
        )
        log.add(state.time, "approach_start", {
            "approach": approach,
            "start_agl_ft": cfg.approach_start_agl_ft,
            "trigger_agl_ft": trigger if trigger > 0 else None,
        })
        if trigger <= 0:
            t_land, _ = world.time_and_distance_to_touchdown(state, runway)
            log.finish(state.time + t_land, "LANDED", {"approach": approach})
            return log

        rate_fps = -m_to_ft(state.vertical_speed)
        agl_ft = m_to_ft(world.agl(state, terrain))
        lead = (agl_ft - (trigger + _GPWS_LEAD_FT)) / rate_fps
        if lead > 0:
            state = world.step(state, state.vertical_speed, state.ground_speed, lead)

        estimator = ClosureRateEstimator()
        plan = None
        attack_t0 = 0.0
        alert = None
        while True:
            state = world.step(state, state.vertical_speed, state.ground_speed, cfg.dt_s)
            true_agl = m_to_ft(world.agl(state, terrain))
            if true_agl <= 0 or state.altitude_msl <= runway.elevation:
                break
            if plan is None and true_agl <= trigger:
                plan = RampAttackPlan(
                    ft_to_m(true_agl), apparent_rate, _GPWS_RAMP_DURATION_S,
                    _SWEEP.sweep_period,
                )
                attack_t0 = state.time
                log.add(state.time, "attack_start", {
                    "approach": approach,
                    "trigger_agl_ft": trigger,
                    "apparent_descent_rate_mps": apparent_rate,
                })
            if plan is None:
                indicated = true_agl
            else:
                echo = plan.echo_at(state.time - attack_t0)
                indicated = m_to_ft(radalt.range_height(echo.round_trip_time, _SWEEP))
            if cfg.altitude_trace:
                log.add(state.time, "state", {
                    "altitude_ft": m_to_ft(state.altitude_msl),
                    "indicated_agl_ft": indicated,
                })
            closure = estimator.update(state.time, indicated)
            if closure is not None:
                alert = evaluate(
                    max(indicated, 0.0), closure, gpws.Mode2Envelope(), time=state.time
                )
                if alert is not None:
                    break

        if alert is None:
            log.finish(state.time, "LANDED", {"approach": approach})
            return log

        log.add(alert.time, "gpws_alert", {
            "approach": approach,
            "indicated_agl_ft": alert.trigger_agl,
            "true_agl_ft": m_to_ft(world.agl(state, terrain)),
            "kind": alert.kind,
        })
        latency = crew.gpws_reaction_latency(policy, rng)
        action = crew.gpws_act(approach, policy, rng)
        min_agl = max(
            0.0, m_to_ft(world.agl(state, terrain)) - rate_fps * latency
        )
        t_action = alert.time + latency

        if action == crew.GO_AROUND:
            log.add(t_action, "crew_action", {
                "approach": approach, "action": action, "min_agl_ft": min_agl,
            })
            t = t_action + 60.0
            continue
        t_land, _ = world.time_and_distance_to_touchdown(state, runway)
        t_done = max(t_action, state.time + t_land)
        log.add(t_action, "crew_action", {"approach": approach, "action": action})
        outcome = "LANDED_GPWS_OFF" if action == crew.TURN_OFF_GPWS else "LANDED"
        log.finish(t_done, outcome, {"approach": approach})
        return log


@pytest.mark.parametrize("dt, message", [
    (float("nan"), "dt must be finite, got nan"),
    (float("inf"), "dt must be finite, got inf"),
    (-0.1, "dt must be > 0, got -0.1"),
])
def test_gpws_fine_loop_keeps_step_checks(dt, message):
    """The fine loop checks its step once per approach and raises what
    `world.step` raises, as the stepped reference does.  (A zero step is left
    out: a loop without the check would spin on it rather than fail.)"""

    cfg = dataclasses.replace(
        make_config({"version": 1, "scenario": "GPWS", "master_seed": SEED}), dt_s=dt)
    for trial in (_gpws_trial, _gpws_trial_stepped):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            trial(cfg, 0, SEED)


# The terrain ends before the touchdown zone (300 m), or between the last
# step above the runway and the step that touches down (305.1 m).
@pytest.mark.parametrize("terrain_end", [250.0, 301.0])
def test_gpws_fine_loop_raises_off_the_terrain(terrain_end):
    """A step that leaves the terrain before the approach ends, or as it
    touches down, raises `elevation_at`'s ValueError, as in the stepped
    reference.  (`make_config` rejects a terrain that ends before the runway
    does.)"""

    cfg = make_config({"version": 1, "scenario": "GPWS", "master_seed": SEED,
                       "attacker": {"gpws": {"apparent_descent_rate_mps": 0.5}}})
    cfg = dataclasses.replace(
        cfg, terrain=world.TerrainProfile([(-50000.0, 0.0), (terrain_end, 0.0)]))
    messages = []
    for trial in (_gpws_trial, _gpws_trial_stepped):
        with pytest.raises(ValueError, match="outside terrain domain") as exc:
            trial(cfg, 0, SEED)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


@st.composite
def _gpws_approaches(draw):
    """A GPWS config whose approach, step, attack rate and terrain vary.  The
    terrain has up to three vertices between its ends, some of them above
    the runway under the early approach; configs whose terrain meets the
    descent path are rejected by `make_config` and not drawn again."""

    xs = draw(st.lists(st.floats(min_value=-40000.0, max_value=4000.0),
                       max_size=3, unique=True))
    terrain = [[-50000.0, draw(st.floats(min_value=-200.0, max_value=100.0))]]
    terrain += [[x, draw(st.floats(min_value=-200.0, max_value=250.0))] for x in sorted(xs)]
    terrain.append([50000.0, draw(st.floats(min_value=-200.0, max_value=100.0))])
    return {
        "version": 1, "scenario": "GPWS", "trials": 3,
        "master_seed": draw(st.integers(0, 2**32)),
        "world": {
            "dt_s": draw(st.sampled_from([0.1, 0.05, 0.2, 0.3, 1 / 3])
                         | st.floats(min_value=0.01, max_value=1.0)),
            "approach": {
                "descent_rate_fpm": draw(st.floats(min_value=300.0, max_value=3000.0)),
                "ground_speed_kn": draw(st.floats(min_value=60.0, max_value=250.0)),
            },
            "terrain": terrain,
        },
        "attacker": {
            "enabled": draw(st.booleans() | st.just(True)),
            "gpws": {"apparent_descent_rate_mps": draw(
                st.sampled_from([15.4, 1.0]) | st.floats(min_value=0.5, max_value=60.0))},
        },
        "output": {"altitude_trace": draw(st.booleans())},
    }


def _gpws_logs_agree(raw):
    """The array loop and the stepped reference write the same JSONL."""

    try:
        cfg = make_config(raw)
    except ConfigError:
        assume(False)
    fine = [log.to_jsonl() for log in run(cfg)]
    reference = [_gpws_trial_stepped(cfg, i, seed).to_jsonl()
                 for i, seed in enumerate(trial_seeds(cfg.master_seed, range(cfg.trials)))]
    assert fine == reference


@settings(max_examples=100, deadline=None, derandomize=True)
@given(raw=_gpws_approaches())
@example(raw={"version": 1, "scenario": "GPWS", "trials": 20, "master_seed": SEED})
@example(raw={"version": 1, "scenario": "GPWS", "trials": 5, "master_seed": SEED,
              "output": {"altitude_trace": True}})
# Terrain rising toward the runway under the attack window.
@example(raw={"version": 1, "scenario": "GPWS", "trials": 5, "master_seed": SEED,
              "world": {"terrain": [[-50000.0, 0.0], [-3000.0, 60.0], [50000.0, 100.0]]},
              "output": {"altitude_trace": True}})
# One round of 70 rows in two array blocks, and up to three approach rounds.
@example(raw={"version": 1, "scenario": "GPWS", "trials": 70, "master_seed": SEED,
              "output": {"altitude_trace": True}})
# No row alerts: each flies to touchdown, past its first block.
@example(raw={"version": 1, "scenario": "GPWS", "trials": 5, "master_seed": SEED,
              "attacker": {"gpws": {"apparent_descent_rate_mps": 0.5}}})
# A step that does not divide the closure window.
@example(raw={"version": 1, "scenario": "GPWS", "trials": 5, "master_seed": SEED,
              "world": {"dt_s": 0.07}})
# A step whose sums put samples exactly on the window's edge.
@example(raw={"version": 1, "scenario": "GPWS", "trials": 5, "master_seed": SEED,
              "world": {"dt_s": 0.25}})
# A ramp that reaches the ground before the alert, traced.
@example(raw={"version": 1, "scenario": "GPWS", "trials": 5, "master_seed": SEED,
              "attacker": {"gpws": {"apparent_descent_rate_mps": 3000.0}},
              "output": {"altitude_trace": True}})
def test_gpws_float_loop_matches_stepped_reference(raw):
    """Property: the array fine loop makes `world.step`'s additions in its
    order, and its closures, ramp and lookups are the scalar ones', so it
    writes the reference's bytes whatever the step, approach rates, attack
    rate, terrain and batch (on the defaults, the golden bytes)."""

    _gpws_logs_agree(raw)


# ---------------------------------------------------------------------------
# The glideslope round


@st.composite
def _gs_configs(draw):
    """A GS or BASELINE config whose path, transmitters, runway, approach and
    crew vary, past the genuine transmitter's 50 km range at the shallowest
    paths; configs `make_config` rejects are not drawn again."""

    lo = draw(st.floats(min_value=50.0, max_value=900.0))
    hi = draw(st.floats(min_value=lo + 100.0, max_value=1500.0))
    elevation = draw(st.floats(-400.0, 3000.0))
    return {
        "version": 1, "scenario": draw(st.sampled_from(["GS", "BASELINE"])), "trials": 20,
        "master_seed": draw(st.integers(0, 2**64 - 1)),
        "world": {
            "runway": {"threshold_position_m": draw(st.floats(-5000.0, 5000.0)),
                       "touchdown_zone_offset_m": draw(st.floats(0.0, 1000.0)),
                       "elevation_m": elevation},
            "terrain": [[-1e6, elevation], [1e6, elevation]],
            "approach": {"descent_rate_fpm": draw(st.floats(100.0, 3000.0))},
        },
        "attacker": {"gs": {
            "shift_m": draw(st.sampled_from([2050.0]) | st.floats(1.0, 60000.0)),
            "tx_power_w": draw(st.sampled_from([50.0, 5.0]) | st.floats(0.1, 500.0)),
            "path_angle_deg": draw(st.sampled_from([3.0, 0.3]) | st.floats(0.2, 9.5)),
        }},
        "policies": {"gs": {
            "p_go_around_first": draw(st.sampled_from([26 / 30]) | st.floats(0.0, 1.0)),
            "go_around_agl_lo_ft": lo, "go_around_agl_hi_ft": hi,
            "go_around_agl_mean_ft": draw(st.floats(lo + 1.0, hi - 1.0)),
            "go_around_agl_sd_ft": draw(st.floats(1.0, 500.0)),
        }},
    }


@settings(max_examples=60, deadline=None, derandomize=True)
@given(raw=_gs_configs())
@example(raw={"version": 1, "scenario": "GS", "trials": CHUNK_TRIALS + 3, "master_seed": SEED})
@example(raw={"version": 1, "scenario": "BASELINE", "trials": 20, "master_seed": SEED})
# No transmitter in range for some trials: a 0.3 deg path puts the check
# point 30-90 km out.
@example(raw={"version": 1, "scenario": "GS", "trials": 20, "master_seed": SEED,
              "attacker": {"gs": {"path_angle_deg": 0.3}}})
# Equal transmitter powers: the flown path is the first of them, the genuine one.
@example(raw={"version": 1, "scenario": "GS", "trials": 20, "master_seed": SEED,
              "attacker": {"gs": {"tx_power_w": 5.0}}})
def test_gs_round_matches_object_reference(raw):
    """Property: the glideslope round writes, trial for trial, the bytes of
    the object path it replaced (`reference.gs_trial_objects`: an
    `AircraftState`, `ils.receive`, `ils.papi` and a `TrialLog`), and folds
    their summary."""

    try:
        cfg = make_config(raw)
    except ConfigError:
        assume(False)
    ids = range(cfg.trials)
    reference = [gs_trial_objects(cfg, i, seed)
                 for i, seed in zip(ids, trial_seeds(cfg.master_seed, ids))]
    chunks = list(runner.run_chunks(cfg, ids))
    assert [text for chunk in chunks for text in chunk.texts] == [
        log.to_jsonl() for log in reference]
    folded = Summary()
    for chunk in chunks:
        folded.merge(chunk.summary)
    assert folded.result() == fold(reference).result()


def test_gs_round_raises_the_receiver_errors():
    """A geometry `ils.receive` or `ils.papi` refuses raises their error:
    an aircraft past a transmitter, or behind the runway threshold."""

    cfg = make_config({"version": 1, "scenario": "GS", "trials": 3, "master_seed": SEED})
    genuine, rogue = cfg.glideslope

    def moved(genuine_m, rogue_m):  # the antennas, m beyond the threshold
        return dataclasses.replace(cfg, glideslope=(
            dataclasses.replace(genuine, antenna_position=genuine_m),
            dataclasses.replace(rogue, antenna_position=rogue_m)))

    # The flown (rogue) path checks 3-9 km before its antenna.
    for bad, message in [(moved(-60000.0, 2350.0), "aircraft is past the transmitter"),
                         (moved(30000.0, 20000.0), "aircraft is behind the runway threshold")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            gs_trial_objects(bad, 0, 1)
        with pytest.raises(ValueError, match=f"^{message}$"):
            scenarios.gs_trials(bad, [0], [1])


@pytest.mark.parametrize("scenario", ["GS", "BASELINE"])
def test_gs_emit_builds_no_log_records(tmp_path, monkeypatch, scenario):
    """Work budget: a GS or BASELINE run writes its logs from the values of
    its round, with no `TrialLog.add` and no `TrialLog.to_jsonl` call."""

    def refused(*args, **kwargs):
        raise AssertionError("called on the GS write path")

    monkeypatch.setattr(TrialLog, "add", refused)
    monkeypatch.setattr(TrialLog, "to_jsonl", refused)
    monkeypatch.setattr(runner, "usable_cpus", lambda: 1)
    cfg = make_config({"version": 1, "scenario": scenario, "trials": CHUNK_TRIALS + 3,
                       "master_seed": SEED, "output_dir": str(tmp_path / "out")})
    summary = Summary()
    assert emit(cfg, summary) == cfg.trials + 3
    assert summary.result()["trials"] == cfg.trials


_FLOATS = (st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, math.nan, math.inf,
                              -math.inf, 1.7976931348623157e308]))
_NAMES = st.text() | st.sampled_from(['VIS"U\\AL\xe9 ', "\u2028", "", "RNAV"])


def _json_lines(trial_id, seed, records):
    """What `TrialLog.to_jsonl` wrote for ``records`` of (t, kind, payload)."""

    return "".join(json.dumps({"t": t, "kind": kind, "payload": payload, "trial_id": trial_id,
                               "seed": seed}, sort_keys=True) + "\n"
                   for t, kind, payload in records)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(trial_id=st.integers(0, 10**6) | st.sampled_from([99_999, 100_000, 123_456]),
       seed=st.integers(0, 2**64 - 1) | st.sampled_from([0, 2**63, 2**64 - 1]),
       t=_FLOATS, agl=_FLOATS, ddm=_FLOATS, dots=_FLOATS, t_land=_FLOATS, touchdown=_FLOATS,
       whites=st.integers(0, 4), captured=st.sampled_from(["genuine", "adversarial", None]),
       fallback=_NAMES, long_landing=st.booleans())
def test_gs_templates_equal_json_dumps(trial_id, seed, t, agl, ddm, dots, t_land, touchdown,
                                       whites, captured, fallback, long_landing):
    """Property: each glideslope line template writes what `json.dumps(record,
    sort_keys=True)` writes for the record, non-finite floats, escaped names
    and long seeds and ids included."""

    frame = f', "seed": {seed!r}, "t": ', f', "trial_id": {trial_id!r}}}\n'
    legitimacy = json.dumps(captured)
    assert scenarios._gs_indication_line(*frame, t, agl, legitimacy, ddm, dots, whites) == (
        _json_lines(trial_id, seed, [(t, "gs_indication", {
            "deviation_dots": dots, "ddm": ddm, "captured": captured, "papi_whites": whites,
            "agl_ft": agl})]))
    assert scenarios._gs_go_around_lines(*frame, t, agl, fallback, t_land) == _json_lines(
        trial_id, seed, [
            (t, "crew_action", {"approach": 1, "action": crew.GO_AROUND, "agl_ft": agl}),
            (t, "fallback_selected", {"approach_type": fallback}),
            (t_land, "outcome", {"outcome": "LANDED_FALLBACK", "approach": 2,
                                 "approach_type": fallback})])
    assert scenarios._gs_land_lines(*frame, t, touchdown, long_landing) == _json_lines(
        trial_id, seed, [
            (t, "crew_action", {"approach": 1, "action": "LAND"}),
            (t, "outcome", {"outcome": "LANDED", "approach": 1, "touchdown_along_m": touchdown,
                            "long_landing": long_landing})])
