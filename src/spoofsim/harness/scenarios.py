"""Per-trial scenario scripts: terrain-alert spoofing on repeated approaches,
false-intruder encounters in cruise, and the displaced-glideslope approach.

Trials are deterministic per (config, trial seed).  Kinematics between points
of interest advance in closed form; fine 0.1 s stepping runs only inside
attack windows, so trials stay cheap at Monte-Carlo counts.

A GPWS approach builds a `world.AircraftState` at its start, after its one
`world.step` jump to just above the trigger, and where its fine loop ends.
In between, the loop steps plain floats (time, along, altitude) with
`world.step`'s additions in its order, so the states it ends on are the ones
a chain of `step` calls gives; the approach flies heading 0, so a step moves
it ``gs * dt`` along track and none across.  Each step ranges the ramp's
delay for the sweep being read (`radalt.RampAttackPlan.delay_at`) and
compares the closure with the Mode 2 threshold; a `gpws.GpwsAlert` is built
only on the step that alerts.

A TCAS encounter raises its advisories on the cycles of a 1 Hz surveillance
loop but runs only the cycles that can matter.  The injector's straight-line
claim bounds the first cycle at which tau can fall to the next threshold
(`FalseIntruderInjector.first_cycle_within`); the encounter jumps to the
cycle before it, which only updates the track, so every advised cycle takes
its closure over one second.  The encounter ends at its RA, at a TA that
leaves the unit outside TA/RA, or where the claimed range reaches its floor
(`FalseIntruderInjector.floor_cycle`).  Where the injector may fall silent
mid-run (the terrain crosses its activation floor), every cycle runs.

A TCAS surveillance cycle evaluates its geometry once: the cruise state
keeps its value for the last time asked, so the own position, the claimed
intruder position and the activation-floor check at one cycle time share one
``world.step``; the injector's one claim per cycle reads the terrain and its
claimed position once.  The claim is plain floats and updates the track in
place; only the encounter's first reply, the one its log keeps, becomes a
`tcas.SurveillanceMessage`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

import numpy as np

from .. import crew, gpws, ils, radalt, tcas, world
from ..units import M_PER_FT, fpm_to_mps, ft_to_m, kn_to_mps, m_to_ft
from .log import TrialLog
from .summary import GpwsSummary, GsSummary, TcasSummary

if TYPE_CHECKING:  # config imports this module for the registry
    from .config import ScenarioConfig

#: Fine-loop entry margin above the attack trigger, ft: wide enough for the
#: closure estimator window to fill before the ramp starts.
_GPWS_LEAD_FT = 25.0
#: Length of the spoofed ramp, s; the alert fires well inside it, and the
#: injected height holds at its last sweep after it.
_GPWS_RAMP_DURATION_S = 1.5
#: Minimum height at which the glideslope/visual cross-check is evaluated with
#: the receiver ops, ft.  Below ~515 ft on the displaced path the nearby
#: genuine transmitter recaptures the receiver (needle pegs), so the
#: conflicting centred-needle/four-whites picture is sampled above that; the
#: crew still executes the go-around at its own decision height.
_GS_EVAL_FLOOR_FT = 550.0
#: The Mode 2 alert envelope and the altimeter sweep; no config field sets them.
_MODE2_ENVELOPE = gpws.Mode2Envelope()
_SWEEP = radalt.SweepConfig()


def approach_start(cfg: ScenarioConfig, t0: float) -> world.AircraftState:
    """State at the configured start height, descending toward the touchdown
    zone on a constant-rate approach."""

    runway = cfg.runway
    vs = -fpm_to_mps(cfg.approach_descent_rate_fpm)
    gs = kn_to_mps(cfg.approach_ground_speed_kn)
    height = ft_to_m(cfg.approach_start_agl_ft)
    time_to_tdz = height / -vs
    along = runway.touchdown_zone_position - gs * time_to_tdz
    return world.AircraftState(
        time=t0,
        ground_position=(along, 0.0),
        altitude_msl=runway.elevation + height,
        vertical_speed=vs,
        ground_speed=gs,
        heading=0.0,
    )


# ---------------------------------------------------------------------------
# terrain-alert spoofing


def gpws_trial(cfg: ScenarioConfig, trial_id: int, seed: int) -> TrialLog:
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
            # No attack: a nominal approach never enters the alert envelope.
            t_land, _ = world.time_and_distance_to_touchdown(state, runway)
            log.finish(state.time + t_land, "LANDED", {"approach": approach})
            return log

        # Jump to just above the trigger, then step finely through the attack.
        rate_fps = -m_to_ft(state.vertical_speed)  # ft/s, positive down
        agl_ft = m_to_ft(world.agl(state, terrain))
        lead = (agl_ft - (trigger + _GPWS_LEAD_FT)) / rate_fps
        if lead > 0:
            state = world.step(state, state.vertical_speed, state.ground_speed, lead)

        # The fine loop makes `world.step`'s additions, in its order, on
        # floats; the increments are the values `step` recomputes each call
        # (at heading 0, the whole distance goes along track).
        vs, gs, dt = state.vertical_speed, state.ground_speed, cfg.dt_s
        world.check_step(vs, gs, dt)
        d_along, d_alt = gs * dt, vs * dt
        t, along, alt = state.time, state.along_track, state.altitude_msl
        estimator = gpws.ClosureRateEstimator()
        plan: Optional[radalt.RampAttackPlan] = None
        attack_t0 = 0.0
        alert: Optional[gpws.GpwsAlert] = None

        while True:
            t += dt
            along += d_along
            alt += d_alt
            true_agl = (alt - terrain.elevation_at(along)) / M_PER_FT
            # Touchdown: on the ground, or at the runway's elevation where the
            # terrain lies below it.
            if true_agl <= 0 or alt <= runway.elevation:
                break
            if plan is None and true_agl <= trigger:
                plan = radalt.RampAttackPlan(
                    ft_to_m(true_agl), apparent_rate, _GPWS_RAMP_DURATION_S,
                    _SWEEP.sweep_period,
                )
                attack_t0 = t
                log.add(t, "attack_start", {
                    "approach": approach,
                    "trigger_agl_ft": trigger,
                    "apparent_descent_rate_mps": apparent_rate,
                })
            if plan is None:
                indicated = true_agl
            else:
                # The spoofed echo is the sweep's only return, so its delay is
                # ranged directly rather than picked out of a list by `measure`.
                indicated = radalt.range_height(plan.delay_at(t - attack_t0), _SWEEP) / M_PER_FT
            if cfg.altitude_trace:
                log.add(t, "state", {
                    "altitude_ft": m_to_ft(alt),
                    "indicated_agl_ft": indicated,
                })
            closure = estimator.update(t, indicated)
            if closure is not None:
                alert_agl = max(indicated, 0.0)
                if closure >= _MODE2_ENVELOPE.threshold_fpm(alert_agl):
                    alert = gpws.GpwsAlert(time=t, trigger_agl=alert_agl)
                    break
        state = world.AircraftState(
            time=t, ground_position=(along, 0.0), altitude_msl=alt, vertical_speed=vs,
            ground_speed=gs, heading=0.0,
        )

        if alert is None:
            # Envelope never entered: the approach completes.
            log.finish(state.time, "LANDED", {"approach": approach})
            return log

        log.add(alert.time, "gpws_alert", {
            "approach": approach,
            "indicated_agl_ft": alert.trigger_agl,
            "true_agl_ft": true_agl,
            "kind": alert.kind,
        })
        latency = crew.gpws_reaction_latency(policy, rng)
        action = crew.gpws_act(approach, policy, rng)
        min_agl = max(0.0, true_agl - rate_fps * latency)
        t_action = alert.time + latency

        if action == crew.GO_AROUND:
            log.add(t_action, "crew_action", {
                "approach": approach, "action": action, "min_agl_ft": min_agl,
            })
            t = t_action + 60.0  # repositioning for the next approach
            continue
        t_land, _ = world.time_and_distance_to_touchdown(state, runway)
        t_done = max(t_action, state.time + t_land)
        if action == crew.TURN_OFF_GPWS:
            log.add(t_action, "crew_action", {"approach": approach, "action": action})
            log.finish(t_done, "LANDED_GPWS_OFF", {"approach": approach})
            return log
        # LAND: continue the descent despite the alert.
        log.add(t_action, "crew_action", {"approach": approach, "action": action})
        log.finish(t_done, "LANDED", {"approach": approach})
        return log


# ---------------------------------------------------------------------------
# false-intruder encounters


def _cruise_state_fn(initial: world.AircraftState) -> Callable[[float], world.AircraftState]:
    """Own-ship state at time t: ``initial`` held before its time, then one
    closed-form ``world.step`` from it (no time integration).

    The result for the last t is kept: one surveillance cycle reads the state
    at the same t for the own position, the injector's claimed geometry and
    the activation-floor check, and the state is frozen, so they share it.
    """

    @functools.lru_cache(maxsize=1)
    def fn(t: float) -> world.AircraftState:
        if t <= initial.time:
            return initial
        return world.step(
            initial, initial.vertical_speed, initial.ground_speed, t - initial.time
        )

    return fn


def tcas_trial(cfg: ScenarioConfig, trial_id: int, seed: int) -> TrialLog:
    rng = np.random.default_rng(seed)
    log = TrialLog(trial_id=trial_id, seed=seed, scenario=cfg.scenario)
    terrain, policy = cfg.terrain, cfg.tcas_policy

    initial = world.AircraftState(
        time=0.0,
        ground_position=(0.0, 0.0),
        altitude_msl=ft_to_m(cfg.cruise_altitude_ft),
        vertical_speed=0.0,
        ground_speed=kn_to_mps(cfg.cruise_ground_speed_kn),
        heading=0.0,
    )
    state_fn = _cruise_state_fn(initial)

    lo, hi = terrain.domain

    def agl_fn(t: float) -> float:
        s = state_fn(t)
        along = min(max(s.along_track, lo), hi)  # hold last profile value beyond the edge
        return m_to_ft(s.altitude_msl - terrain.elevation_at(along))

    unit = tcas.TcasUnit(thresholds=cfg.tcas_thresholds, mode=tcas.TA_RA, rng=rng)
    script = crew.sample_tcas_crew(policy, rng)
    injector = tcas.FalseIntruderInjector(
        cfg.false_intruder_plan, rng, target_fn=state_fn, target_agl_fn=agl_fn,
        attacker_position=cfg.attacker_position_m,
    )

    if not cfg.attacker_enabled:
        log.finish(0.0, "CONTINUED", {
            "final_mode": unit.mode, "final_action": crew.CONTINUE,
            "episodes": 0, "ras_observed": 0, "tas_after_downgrade": 0,
        })
        return log

    # Cycles may be skipped only while the injector answers every one or
    # none: level cruise stays on one side of its activation floor over all
    # the terrain (1e-6 ft spares the rounding of the lookup).
    elevations = [z for _, z in terrain.vertices]
    floor_ft = cfg.false_intruder_plan.activation_floor
    skipping = (
        m_to_ft(initial.altitude_msl - max(elevations)) > floor_ft + 1e-6
        or m_to_ft(initial.altitude_msl - min(elevations)) < floor_ft - 1e-6
    )
    th = cfg.tcas_thresholds

    t = 0.0
    episodes = 0
    while (
        episodes < cfg.max_episodes
        and not injector.budget_exhausted()
        and not script.settled(unit.mode)
    ):
        injector.start_episode(t)
        episodes += 1
        log.add(t, "episode_start", {
            "episode": episodes, "icao_id": injector.icao_id,
            "bearing_deg": injector._bearing, "closure_mps": injector._speed,
        })
        ta_handled = False
        # The time and claim of the encounter's first adversarial reply, kept
        # for integrity analysis.
        sample: Optional[tuple] = None
        k_end = injector.floor_cycle()
        # The next advisory, and no cycle before `bound` can raise it: the TA
        # first, as nothing tighter can fire before it (tau_ra_s and
        # ra_band_ft lie inside the TA thresholds), then the RA.
        bound, band = injector.first_cycle_within(th.tau_ta_s), th.ta_band_ft
        k, advising = 0, False
        while True:
            tc = t + k
            own = state_fn(tc)
            claims = unit.mode_s_cycle(own, (injector,), tc)
            if sample is None and claims:
                sample = tc, claims[0]
            adv = unit.advise(own, tc) if advising else None
            if adv is not None and adv.level == "TA" and not ta_handled:
                ta_handled = True
                log.add(tc, "advisory", {"level": "TA", "episode": episodes})
                action = crew.tcas_act(adv, unit, script)
                log.add(tc, "crew_action", {"action": action, "episode": episodes})
                if unit.mode != tcas.TA_RA:
                    break
                bound, band = injector.first_cycle_within(th.tau_ra_s), th.ra_band_ft
            elif adv is not None and adv.level == "RA":
                injector.observe_advisory(adv)
                log.add(tc, "advisory", {
                    "level": "RA", "episode": episodes,
                    "ra_sense": adv.ra_sense, "commanded_rate_fpm": adv.commanded_rate,
                })
                action = crew.tcas_act(adv, unit, script)
                log.add(tc, "crew_action", {"action": action, "episode": episodes})
                break
            # The first cycle that can raise the next advisory.
            nxt = k + 1
            if skipping:
                track = unit.tracks.get(injector.icao_id)
                # No track: Standby, or an injector that never answers.
                if track is None or abs(track.relative_altitude) > band:
                    nxt = math.inf
                elif bound > nxt:
                    nxt = bound
            if nxt > k_end:
                tc = t + k_end
                break
            # Advise only a second after the previous cycle: a closure taken
            # over a longer gap reads high, and tau low.  A jump lands one
            # cycle early, which only updates the track.
            k, advising = (nxt, True) if nxt == k + 1 else (nxt - 1, False)

        if sample is not None:
            log.add(tc, "surveillance", injector.reply(*sample).to_record())
        unit.tracks.clear()
        injector.end_episode()
        t = tc + cfg.inter_episode_gap_s

    final_mode = unit.mode
    if script.settled(final_mode):
        final_action = script.final_action
    elif final_mode == tcas.TA_RA:
        final_action = crew.CONTINUE
    else:
        # Budget ran out mid-path; decide from the mode actually reached.
        final_action = crew.sample_categorical(
            rng, policy.action_given_final_mode[final_mode]
        )
    outcome = {
        crew.CONTINUE: "CONTINUED",
        crew.AVOIDANCE: "AVOIDED",
        crew.DIVERT: "DIVERTED",
    }[final_action]
    log.finish(t, outcome, {
        "final_mode": final_mode,
        "final_action": final_action,
        "episodes": episodes,
        "ras_observed": script.ra_count,
        "tas_after_downgrade": script.ta_count_since_downgrade,
    })
    return log


# ---------------------------------------------------------------------------
# displaced-glideslope approach


def flown_glideslope(cfg: ScenarioConfig) -> ils.GlideslopeTx:
    """The transmitter whose path a glideslope approach flies: the one of
    highest power.  `ils.receive` captures by received power (1/d^2) instead,
    so the nearby genuine transmitter recaptures below a crossover height (see
    _GS_EVAL_FLOOR_FT); the mismatch is open in ROADMAP item 2."""

    return max(cfg.glideslope, key=lambda tx: tx.tx_power)


def gs_eval_agl(go_around_agl_ft: float) -> float:
    """Height of the glideslope/visual cross-check for a crew that goes around
    at ``go_around_agl_ft``: that height, or _GS_EVAL_FLOOR_FT if higher."""

    return max(go_around_agl_ft, _GS_EVAL_FLOOR_FT)


def gs_path_state(cfg: ScenarioConfig, agl_ft: float, t: float) -> world.AircraftState:
    """Aircraft centred on the flown glideslope path at the given height."""

    runway, tx = cfg.runway, flown_glideslope(cfg)
    antenna_along = runway.threshold_position + tx.antenna_position
    height = ft_to_m(agl_ft)
    along = antenna_along - height / math.tan(math.radians(tx.path_angle))
    return world.AircraftState(
        time=t,
        ground_position=(along, 0.0),
        altitude_msl=runway.elevation + height,
        vertical_speed=-fpm_to_mps(cfg.approach_descent_rate_fpm),
        ground_speed=kn_to_mps(cfg.approach_ground_speed_kn),
        heading=0.0,
    )


def gs_trial(cfg: ScenarioConfig, trial_id: int, seed: int) -> TrialLog:
    rng = np.random.default_rng(seed)
    log = TrialLog(trial_id=trial_id, seed=seed, scenario=cfg.scenario)
    runway, txs = cfg.runway, cfg.glideslope
    rate_fps = m_to_ft(fpm_to_mps(cfg.approach_descent_rate_fpm))
    start_agl = cfg.approach_start_agl_ft

    script = crew.sample_gs_crew(cfg.gs_policy, rng)
    eval_agl = gs_eval_agl(script.go_around_agl_ft)
    t_eval = (start_agl - eval_agl) / rate_fps
    aircraft = gs_path_state(cfg, eval_agl, t_eval)
    indication = ils.receive(aircraft, txs, runway)
    papi_ind = ils.papi(aircraft, runway, nominal_angle=txs[0].path_angle)
    log.add(t_eval, "gs_indication", {
        "deviation_dots": indication.deviation_dots,
        "ddm": indication.ddm,
        "captured": indication.captured_source.legitimacy if indication.captured_source else None,
        "papi_whites": papi_ind.whites,
        "agl_ft": eval_agl,
    })

    if crew.gs_act(indication, papi_ind, script) == crew.GO_AROUND:
        t_ga = (start_agl - script.go_around_agl_ft) / rate_fps
        log.add(t_ga, "crew_action", {
            "approach": 1, "action": crew.GO_AROUND,
            "agl_ft": script.go_around_agl_ft,
        })
        log.add(t_ga, "fallback_selected", {"approach_type": script.fallback})
        # Second approach flown with the fallback procedure; no glideslope.
        t_land = t_ga + 300.0 + start_agl / rate_fps
        log.finish(t_land, "LANDED_FALLBACK", {
            "approach": 2, "approach_type": script.fallback,
        })
        return log

    # Continue: descend the flown path to the surface.
    t_land = (start_agl - 0.0) / rate_fps
    touchdown_along = gs_path_state(cfg, 0.0, t_land).along_track
    long_landing = cfg.attacker_enabled and touchdown_along > runway.touchdown_zone_position
    log.add(t_land, "crew_action", {"approach": 1, "action": "LAND"})
    log.finish(t_land, "LANDED", {
        "approach": 1,
        "touchdown_along_m": touchdown_along,
        "long_landing": long_landing,
    })
    return log


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Scenario:
    """One scenario: its trial function, the accumulator that summarizes its
    logs (``add(log)``, then ``result()``) and its config overrides."""

    trial: Callable[[ScenarioConfig, int, int], TrialLog]
    summary: Callable[[], Any]
    overrides: Dict[str, Any] = field(default_factory=dict)


SCENARIOS: Dict[str, Scenario] = {
    "GPWS": Scenario(gpws_trial, GpwsSummary),
    "TCAS": Scenario(tcas_trial, TcasSummary),
    "GS": Scenario(gs_trial, GsSummary),
    # The glideslope approach with no attacker.
    "BASELINE": Scenario(gs_trial, GsSummary, {"attacker": {"enabled": False}}),
}
