"""Per-trial scenario scripts: terrain-alert spoofing on repeated approaches,
false-intruder encounters in cruise, and the displaced-glideslope approach.

Trials are deterministic per (config, trial seed).  Kinematics between points
of interest advance in closed form; fine 0.1 s stepping runs only inside
attack windows, so trials stay cheap at Monte-Carlo counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Sequence

import numpy as np

from .. import crew, gpws, ils, radalt, tcas, world
from ..units import fpm_to_mps, ft_to_m, kn_to_mps, m_to_ft
from .log import TrialLog
from .summary import summarize_gpws, summarize_gs, summarize_tcas

if TYPE_CHECKING:  # config imports this module for the registry
    from .config import ScenarioConfig

#: Fine-loop entry margin above the attack trigger, ft: wide enough for the
#: closure estimator window to fill before the ramp starts.
_GPWS_LEAD_FT = 25.0
#: Ramp length crafted per approach, s; the alert fires well inside it.
_GPWS_RAMP_DURATION_S = 1.5
#: Minimum height at which the glideslope/visual cross-check is evaluated with
#: the receiver ops, ft.  Below ~515 ft on the displaced path the nearby
#: genuine transmitter recaptures the receiver (needle pegs), so the
#: conflicting centred-needle/four-whites picture is sampled above that; the
#: crew still executes the go-around at its own decision height.
_GS_EVAL_FLOOR_FT = 550.0
#: Surveillance-cycle offsets within one encounter, s: track acquisition,
#: closure estimation, traffic-advisory crossing, resolution-advisory crossing.
_TCAS_CYCLE_OFFSETS = (0, 1, 2, 3, 21)


def _approach_start(
    cfg: ScenarioConfig, runway: world.RunwayModel, t0: float
) -> world.AircraftState:
    """State at the configured start height, descending toward the touchdown
    zone on a constant-rate approach."""

    ap = cfg.approach()
    vs = -fpm_to_mps(ap["descent_rate_fpm"])
    gs = kn_to_mps(ap["ground_speed_kn"])
    height = ft_to_m(ap["start_agl_ft"])
    time_to_tdz = height / -vs
    along = runway.touchdown_zone_position - gs * time_to_tdz
    return world.AircraftState(
        time=t0,
        ground_position=(along, 0.0),
        altitude_msl=runway.elevation + height,
        vertical_speed=vs,
        ground_speed=gs,
        heading=runway.true_bearing,
        frame_bearing=runway.true_bearing,
    )


# ---------------------------------------------------------------------------
# terrain-alert spoofing


def gpws_trial(cfg: ScenarioConfig, trial_id: int, seed: int) -> TrialLog:
    rng = np.random.default_rng(seed)
    log = TrialLog(trial_id=trial_id, seed=seed, scenario=cfg.scenario)
    runway = cfg.runway()
    terrain = cfg.terrain()
    envelope = gpws.Mode2Envelope()
    schedule = cfg.gpws_attack_schedule()
    policy = cfg.gpws_policy()
    sweep = radalt.SweepConfig()
    apparent_rate = cfg.raw["attacker"]["gpws"]["apparent_descent_rate_mps"]
    trace = cfg.raw["output"]["altitude_trace"]
    dt = cfg.dt
    t = 0.0

    approach = 0
    while True:
        approach += 1
        state = _approach_start(cfg, runway, t)
        trigger = (
            gpws.scripted_trigger(approach, rng, schedule)
            if cfg.attacker_enabled
            else -1.0
        )
        log.add(state.time, "approach_start", {
            "approach": approach,
            "start_agl_ft": cfg.approach()["start_agl_ft"],
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

        estimator = gpws.ClosureRateEstimator()
        plan: Optional[radalt.RampAttackPlan] = None
        attack_t0 = 0.0
        alert: Optional[gpws.GpwsAlert] = None

        while True:
            state = world.step(state, state.vertical_speed, state.ground_speed, dt)
            true_agl = m_to_ft(world.agl(state, terrain))
            if true_agl <= 0:
                break
            if plan is None and true_agl <= trigger:
                plan = radalt.craft_ramp(
                    ft_to_m(true_agl), apparent_rate, _GPWS_RAMP_DURATION_S, sweep
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
                indicated = m_to_ft(radalt.measure([echo], sweep))
            if trace:
                log.add(state.time, "state", {
                    "altitude_ft": m_to_ft(state.altitude_msl),
                    "indicated_agl_ft": indicated,
                })
            closure = estimator.update(state.time, indicated)
            if closure is not None:
                alert = gpws.evaluate(
                    max(indicated, 0.0), closure, envelope,
                    time=state.time, approach_index=approach,
                )
                if alert is not None:
                    break

        if alert is None:
            # Envelope never entered: the approach completes.
            log.finish(state.time, "LANDED", {"approach": approach})
            return log

        log.add(alert.time, "gpws_alert", {
            "approach": approach,
            "indicated_agl_ft": alert.trigger_agl,
            "true_agl_ft": m_to_ft(world.agl(state, terrain)),
            "kind": alert.kind,
        })
        latency = crew.gpws_reaction_latency(policy, rng)
        action = crew.gpws_act(approach, alert, policy, rng)
        min_agl = max(
            0.0, m_to_ft(world.agl(state, terrain)) - rate_fps * latency
        )
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
    terrain = cfg.terrain()
    cruise = cfg.cruise()
    sysc = cfg.raw["tcas_system"]
    policy = cfg.tcas_policy()
    plan = cfg.false_intruder_plan()
    attacker_pos = tuple(cfg.raw["attacker"]["tcas"]["position_m"])

    initial = world.AircraftState(
        time=0.0,
        ground_position=(0.0, 0.0),
        altitude_msl=ft_to_m(cruise["altitude_ft"]),
        vertical_speed=0.0,
        ground_speed=kn_to_mps(cruise["ground_speed_kn"]),
        heading=0.0,
    )
    state_fn = _cruise_state_fn(initial)

    def agl_fn(t: float) -> float:
        s = state_fn(t)
        lo, hi = terrain.domain
        along = min(max(s.along_track, lo), hi)  # hold last profile value beyond the edge
        return m_to_ft(s.altitude_msl - terrain.elevation_at(along))

    unit = tcas.TcasUnit(thresholds=cfg.tcas_thresholds(), mode=tcas.TA_RA, rng=rng)
    crew_state = crew.sample_tcas_crew(policy, rng)
    channel = tcas.Channel()
    injector = tcas.FalseIntruderInjector(
        plan, rng, target_fn=state_fn, target_agl_fn=agl_fn,
        attacker_position=attacker_pos,
    )
    channel.register(injector)

    if not cfg.attacker_enabled:
        log.finish(0.0, "CONTINUED", {
            "final_mode": unit.mode, "final_action": crew.CONTINUE,
            "episodes": 0, "ras_observed": 0, "tas_after_downgrade": 0,
        })
        return log

    t = 0.0
    episodes = 0
    max_episodes = sysc["max_episodes"]
    while (
        episodes < max_episodes
        and not injector.budget_exhausted()
        and not crew_state.settled
    ):
        injector.start_episode(t)
        episodes += 1
        log.add(t, "episode_start", {
            "episode": episodes, "icao_id": injector.icao_id,
            "bearing_deg": injector._bearing, "closure_mps": injector._speed,
        })
        ta_handled = ra_handled = False
        tc = t
        for k in _TCAS_CYCLE_OFFSETS:
            tc = t + k
            own = state_fn(tc)
            unit.mode_s_cycle(own, channel, tc)
            adv = unit.advise(own, tc)
            if adv is None:
                continue
            if adv.level == "TA" and not ta_handled:
                ta_handled = True
                log.add(tc, "advisory", {"level": "TA", "episode": episodes})
                action = crew.tcas_act(adv, crew_state, policy, rng)
                log.add(tc, "crew_action", {"action": action, "episode": episodes})
                if action == crew.SET_STANDBY:
                    unit.set_mode(tcas.STANDBY)
                if unit.mode != tcas.TA_RA:
                    break
            elif adv.level == "RA" and not ra_handled:
                ra_handled = True
                injector.observe_advisory(adv)
                log.add(tc, "advisory", {
                    "level": "RA", "episode": episodes,
                    "ra_sense": adv.ra_sense, "commanded_rate_fpm": adv.commanded_rate,
                })
                action = crew.tcas_act(adv, crew_state, policy, rng)
                log.add(tc, "crew_action", {"action": action, "episode": episodes})
                if action == crew.SET_TA_ONLY:
                    unit.set_mode(tcas.TA_ONLY)
                elif action == crew.SET_STANDBY:
                    unit.set_mode(tcas.STANDBY)
                break

        # Keep one adversarial reply per encounter for integrity analysis,
        # then drop the cycle-level channel log (it grows per message).
        sample = next(
            (m for m in channel.log
             if m.origin == "adversarial" and m.kind == tcas.MODE_S_REPLY),
            None,
        )
        if sample is not None:
            log.add(tc, "surveillance", sample.to_record())
        channel.log.clear()
        unit.tracks.clear()
        injector.end_episode()
        t = tc + sysc["inter_episode_gap_s"]

    final_mode = unit.mode
    if crew_state.settled and crew_state.final_mode == final_mode:
        final_action = crew_state.final_action
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
        "ras_observed": crew_state.ra_count,
        "tas_after_downgrade": crew_state.ta_count_since_downgrade,
    })
    return log


# ---------------------------------------------------------------------------
# displaced-glideslope approach


def gs_trial(cfg: ScenarioConfig, trial_id: int, seed: int) -> TrialLog:
    rng = np.random.default_rng(seed)
    log = TrialLog(trial_id=trial_id, seed=seed, scenario=cfg.scenario)
    runway = cfg.runway()
    policy = cfg.gs_policy()
    gs_cfg = cfg.raw["attacker"]["gs"]
    attack = cfg.attacker_enabled

    genuine = ils.GlideslopeTx(
        antenna_position=runway.touchdown_zone_offset,
        path_angle=gs_cfg["path_angle_deg"],
        legitimacy="genuine",
    )
    txs = [genuine]
    if attack:
        txs.append(ils.GlideslopeTx(
            antenna_position=runway.touchdown_zone_offset + gs_cfg["shift_m"],
            path_angle=gs_cfg["path_angle_deg"],
            tx_power=gs_cfg["tx_power_w"],
            legitimacy="adversarial",
        ))

    ap = cfg.approach()
    vs = -fpm_to_mps(ap["descent_rate_fpm"])
    gs_mps = kn_to_mps(ap["ground_speed_kn"])
    rate_fps = -m_to_ft(vs)
    start_agl = ap["start_agl_ft"]
    captured = max(
        txs, key=lambda tx: tx.tx_power  # strongest wins throughout the approach
    )
    antenna_along = runway.threshold_position + captured.antenna_position

    def state_on_path(agl_ft: float, t: float) -> world.AircraftState:
        """Aircraft centred on the captured path at the given height."""

        height = ft_to_m(agl_ft)
        along = antenna_along - height / math.tan(math.radians(captured.path_angle))
        return world.AircraftState(
            time=t,
            ground_position=(along, 0.0),
            altitude_msl=runway.elevation + height,
            vertical_speed=vs,
            ground_speed=gs_mps,
            heading=runway.true_bearing,
            frame_bearing=runway.true_bearing,
        )

    crew_state = crew.sample_gs_crew(policy, rng)
    eval_agl = max(crew_state.go_around_agl_ft, _GS_EVAL_FLOOR_FT)
    t_eval = (start_agl - eval_agl) / rate_fps
    aircraft = state_on_path(eval_agl, t_eval)
    indication = ils.receive(aircraft, txs, runway)
    papi_ind = ils.papi(aircraft, runway, nominal_angle=gs_cfg["path_angle_deg"])
    log.add(t_eval, "gs_indication", {
        "deviation_dots": indication.deviation_dots,
        "ddm": indication.ddm,
        "captured": indication.captured_source.legitimacy if indication.captured_source else None,
        "papi_whites": papi_ind.whites,
        "agl_ft": eval_agl,
    })

    action = crew.gs_act(
        indication, papi_ind, crew_state.go_around_agl_ft, policy, rng,
        script=crew_state,
    )
    if action.kind == crew.GO_AROUND:
        t_ga = (start_agl - crew_state.go_around_agl_ft) / rate_fps
        log.add(t_ga, "crew_action", {
            "approach": 1, "action": crew.GO_AROUND,
            "agl_ft": crew_state.go_around_agl_ft,
        })
        log.add(t_ga, "fallback_selected", {"approach_type": action.approach_type})
        # Second approach flown with the fallback procedure; no glideslope.
        t_land = t_ga + 300.0 + start_agl / rate_fps
        log.finish(t_land, "LANDED_FALLBACK", {
            "approach": 2, "approach_type": action.approach_type,
        })
        return log

    # Continue: descend the captured path to the surface.
    t_land = (start_agl - 0.0) / rate_fps
    touchdown_along = antenna_along
    long_landing = attack and touchdown_along > runway.touchdown_zone_position
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
    """One scenario: its trial function, summarizer and config overrides."""

    trial: Callable[[ScenarioConfig, int, int], TrialLog]
    summarize: Callable[[Sequence[TrialLog]], Dict[str, Any]]
    overrides: Dict[str, Any] = field(default_factory=dict)


SCENARIOS: Dict[str, Scenario] = {
    "GPWS": Scenario(gpws_trial, summarize_gpws),
    "TCAS": Scenario(tcas_trial, summarize_tcas),
    "GS": Scenario(gs_trial, summarize_gs),
    # The glideslope approach with no attacker.
    "BASELINE": Scenario(gs_trial, summarize_gs, {"attacker": {"enabled": False}}),
}
