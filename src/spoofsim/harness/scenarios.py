"""Per-trial scenario scripts: terrain-alert spoofing on repeated approaches,
false-intruder encounters in cruise, and the displaced-glideslope approach.

Trials are deterministic per (config, trial seed).  Kinematics between points
of interest advance in closed form; fine 0.1 s stepping runs only inside
attack windows, so trials stay cheap at Monte-Carlo counts.

Every scenario runs a batch of trials, the runner's chunk, through one
function.  GPWS trials fly their approaches in rounds over the whole batch.
Each approach's set-up (its start, trigger and one `world.step` jump to just
above the trigger) and its alert handling (crew draws, events) are scalar,
per trial, in its own RNG order.  Between them, the fine loop of a round runs
as array blocks, a row per approach: a cumulative sum along each row makes
`world.step`'s additions in its order (heading 0 moves ``gs * dt`` along
track and none across), and the terrain, ramp (`radalt.ramp_heights`),
closure (`gpws.closure_rates`) and Mode 2 threshold are the floats of a
loop that steps one sample at a time (`tests/reference.py`).  A row ends at
touchdown or at its first alert, and its alert is handled as soon as its
block ends; one that ends in neither way is flown again longer.  Rounds
interleave trials, so each trial collects its log lines (and its altitude
trace's rows) as text parts, joined when the chunk ends, when its summary is
folded too, in trial order.

A TCAS encounter raises its advisories on the cycles of a 1 Hz surveillance
loop but runs only the cycles that can matter: after cycle 0 it jumps to the
cycle before the first at which tau can fall to the next threshold, which
only updates the track, so every advised cycle takes its closure over one
second.  The array kernel (`_tcas_encounters`) owns that schedule, bounded
from each row's closure speed (`_first_cycles`).  An encounter ends at its
RA, at a TA that leaves the crew outside TA/RA, or where the claimed range
reaches its floor (`FalseIntruderInjector.floor_cycle`).  Where the terrain
crosses the injector's activation floor, every cycle runs, each step of the
lockstep looks up the terrain under all its rows at once, and a track not
updated goes stale as `TcasUnit.drop_stale` drops it.  Each trial is a
generator (`tcas_trial`) whose scalar steps keep its own order: episode
draws, crew reactions and the alerting mode they leave (a plain value), the
budget and its log lines, one a record.  Round n flies the n-th encounter
of every trial as array rows with the scalar cycle's floats: the own ship
at ``(gs * t, 0.0, altitude)``, as ``world.step`` places it, the claim
relative to it, and `tcas.slant_ranges`.  Trials end in different rounds,
so a chunk's summary is folded when it ends, in trial order.

A glideslope chunk is one round (`gs_trials`): each trial draws its crew
(`gs_trial`) in trial order, then its cross-check runs on plain floats
against the path, transmitters and PAPI bands the config fixes.

Every scenario writes its trials' logs from the values of its rounds by one
line template per record kind, as `json.dumps(record, sort_keys=True)`
writes the records, with no record dict or `TrialLog`, and folds the same
values into the chunk's summary, in trial order; a GPWS chunk writes its
altitude traces from them too.  Every chunk is a `TextChunk`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import (TYPE_CHECKING, Any, Callable, Dict, Generator, Iterator, List, Optional,
                    Sequence, Tuple, Type)

import numpy as np

from .. import crew, gpws, ils, radalt, tcas, world
from ..units import M_PER_FT, fpm_to_mps, ft_to_m, kn_to_mps, m_to_ft
from .log import _JsonFloat
from .seeds import trial_generators
from .summary import GpwsSummary, GsSummary, Summary, TcasSummary

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
#: A fine-loop block flies `_GPWS_BLOCK_S` at first (on the defaults every
#: approach ends within it), over at most `_GPWS_BLOCK_CELLS` approaches x steps.
_GPWS_BLOCK_S, _GPWS_BLOCK_CELLS = 6.4, 64 * 64
#: The altimeter sweep; no config field sets it.
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


def gpws_lead_end(cfg: ScenarioConfig) -> float:
    """The farthest along-track point, m, at which a GPWS fine loop starts:
    `gpws_trials`' jump to just above the lowest trigger that attacks."""

    start = approach_start(cfg, 0.0)
    trigger = max(cfg.gpws_attack_schedule.window(1)[0], 0.0)
    # `world.agl` inline: a GS or TCAS run's config makes no world-layer call.
    agl = start.altitude_msl - cfg.terrain.elevation_at(start.along_track)
    lead = (m_to_ft(agl) - (trigger + _GPWS_LEAD_FT)) / -m_to_ft(start.vertical_speed)
    return start.along_track + start.ground_speed * max(lead, 0.0)


def gpws_trials(cfg: ScenarioConfig, trial_ids: Sequence[int], seeds: Sequence[int]) -> TextChunk:
    """The GPWS trials of ``trial_ids`` with their ``seeds``, in order.  They
    fly rounds of approaches, the n-th of each trial still flying in round n,
    one fine loop per round.  Rounds interleave trials, so each trial
    collects its lines (`_gpws_approach_start_line` and the other templates)
    and its altitude trace's rows, joined once the chunk ends; its summary
    is folded then too, in trial order."""

    rngs = list(trial_generators(seeds))
    runway, policy, scenario = cfg.runway, cfg.gpws_policy, cfg.scenario
    start_agl, ramp_rate = cfg.approach_start_agl_ft, cfg.apparent_descent_rate_mps
    # Every approach starts at the same point and flies at the same rates.
    start = approach_start(cfg, 0.0)
    start_agl_ft = m_to_ft(world.agl(start, cfg.terrain))
    rate_fps = -m_to_ft(start.vertical_speed)  # ft/s, positive down
    descent = abs(start.vertical_speed)
    if cfg.attacker_enabled:
        world.check_step(start.vertical_speed, start.ground_speed, cfg.dt_s)
    # A nominal approach lands this long after it starts.
    t_nominal, _ = world.time_and_distance_to_touchdown(start, runway)
    # Each trial's record frame, lines, trace rows, crew actions as
    # (approach, action), first-approach go-around height and end as
    # (outcome, the approach it landed on unalerted or None).
    frames = [(f', "seed": {seed!r}, "t": ', f', "trial_id": {i!r}}}\n')
              for i, seed in zip(trial_ids, seeds)]
    lines: List[List[str]] = [[] for _ in frames]
    rows_of: List[List[str]] = [[] for _ in frames]
    actions: List[List[Tuple[int, str]]] = [[] for _ in frames]
    go_around: List[Tuple[float, ...]] = [()] * len(frames)
    ends: List[Tuple[str, Optional[int]]] = [("LANDED", None)] * len(frames)
    t_next = [0.0] * len(frames)  # when each trial's next approach starts
    flying = range(len(frames))
    approach = 0
    while flying:
        approach += 1
        rows = []  # (trial, trigger, state just above the trigger)
        for k in sorted(flying):  # trial order; the fine loop yields rows as blocks end
            t0, (seed, end) = t_next[k], frames[k]
            trigger = (gpws.scripted_trigger(approach, rngs[k], cfg.gpws_attack_schedule)
                       if cfg.attacker_enabled else -1.0)
            if trigger <= 0:
                # No attack: a nominal approach never enters the alert envelope.
                lines[k] += (_gpws_approach_start_line(seed, end, t0, approach, start_agl, None),
                             _gpws_outcome_line(seed, end, t0 + t_nominal, approach, "LANDED"))
                ends[k] = "LANDED", approach
                continue
            lines[k].append(_gpws_approach_start_line(seed, end, t0, approach, start_agl, trigger))
            # The shared start at t0, jumped to just above the trigger; the
            # fine loop steps from there.
            state = world.AircraftState(t0, start.ground_position, start.altitude_msl,
                                        start.vertical_speed, start.ground_speed, start.heading)
            lead = (start_agl_ft - (trigger + _GPWS_LEAD_FT)) / rate_fps
            if lead > 0:
                state = world.step(state, state.vertical_speed, state.ground_speed, lead)
            rows.append((k, trigger, state))

        flying = []
        for (k, trigger, _), (alerted, p, t, _, alt, true_agl, indicated) in (
                _gpws_fine_loop(cfg, rows)):
            (seed, end), out = frames[k], lines[k]
            # The steps that reach the alert test: the touchdown step does not.
            n = len(t) if alerted else len(t) - 1
            if cfg.altitude_trace:
                _gpws_states(seed, end, t, alt, indicated, range(min(p, n)), out, rows_of[k])
            if p < n:
                out.append(_gpws_attack_start_line(seed, end, t[p], approach, trigger, ramp_rate))
                if cfg.altitude_trace:
                    _gpws_states(seed, end, t, alt, indicated, range(p, n), out, rows_of[k])
            if not alerted:
                # Envelope never entered: the approach completes.
                out.append(_gpws_outcome_line(seed, end, t[-1], approach, "LANDED"))
                ends[k] = "LANDED", approach
                continue

            out.append(_gpws_alert_line(seed, end, t[-1], approach, max(indicated[-1], 0.0),
                                        true_agl))
            latency = crew.gpws_reaction_latency(policy, rngs[k])
            action = crew.gpws_act(approach, policy, rngs[k])
            t_action = t[-1] + latency
            actions[k].append((approach, action))
            if action == crew.GO_AROUND:
                min_agl = max(0.0, true_agl - rate_fps * latency)
                out.append(_gpws_crew_action_line(seed, end, t_action, approach, action, min_agl))
                if approach == 1:
                    go_around[k] = (min_agl,)
                t_next[k] = t_action + 60.0  # repositioning for the next approach
                flying.append(k)
                continue
            # `world.time_and_distance_to_touchdown` from the loop's end.
            height = alt[-1] - runway.elevation
            t_done = max(t_action, t[-1] + (0.0 if height <= 0 else height / descent))
            out.append(_gpws_crew_action_line(seed, end, t_action, approach, action, None))
            # LAND continues the descent despite the alert.
            outcome = "LANDED_GPWS_OFF" if action == crew.TURN_OFF_GPWS else "LANDED"
            out.append(_gpws_outcome_line(seed, end, t_done, approach, outcome))
            ends[k] = outcome, None

    part = GpwsSummary(scenario)
    for (outcome, landed), acted, agl in zip(ends, actions, go_around):
        part.add_trial(outcome, acted, agl, landed)
    traces = [(trial_id, _TRACE_HEADER + "".join(rows))
              for trial_id, rows in zip(trial_ids, rows_of) if rows]
    return TextChunk(["".join(out) for out in lines], part, traces)


# The GPWS lines, one template per record kind, written as
# `json.dumps(record, sort_keys=True)` writes the record: ``seed`` and
# ``end`` frame its ``t``, as in the glideslope templates below.  Numbers
# print by repr, a float that is not finite as a `_JsonFloat`, so a config
# leaf given as a JSON int stays one.

#: The JSON strings of the alert kind and the Mode S reply kind, and the
#: header of an altitude trace.
_ALERT_KIND = encode_basestring_ascii(gpws.ALERT_KIND)
_MODE_S_REPLY = encode_basestring_ascii(tcas.MODE_S_REPLY)
_TRACE_HEADER = "time_s,altitude_ft,indicated_agl_ft\n"


def _json_numbers(*values: Any) -> List[Any]:
    """``values`` with each float as a `_JsonFloat`, which prints as
    `json.dumps` writes it, and each other value as it is."""

    return [_JsonFloat(v) if type(v) is float else v for v in values]


def _gpws_approach_start_line(seed: str, end: str, t: float, approach: int, start_agl: Any,
                              trigger: Optional[float]) -> str:
    """The ``approach_start`` line; ``trigger`` is None for an approach not attacked."""

    if not 0.0 * t * start_agl * (0.0 if trigger is None else trigger) == 0.0:
        t, start_agl, trigger = _json_numbers(t, start_agl, trigger)
    trigger = "null" if trigger is None else repr(trigger)
    return (f'{{"kind": "approach_start", "payload": {{"approach": {approach!r}, '
            f'"start_agl_ft": {start_agl!r}, "trigger_agl_ft": {trigger}}}{seed}{t!r}{end}')


def _gpws_attack_start_line(seed: str, end: str, t: float, approach: int, trigger: float,
                            rate: Any) -> str:
    if not 0.0 * t * trigger * rate == 0.0:
        t, trigger, rate = _json_numbers(t, trigger, rate)
    return (f'{{"kind": "attack_start", "payload": {{"apparent_descent_rate_mps": {rate!r}, '
            f'"approach": {approach!r}, "trigger_agl_ft": {trigger!r}}}{seed}{t!r}{end}')


def _gpws_alert_line(seed: str, end: str, t: float, approach: int, indicated: float,
                     true_agl: float) -> str:
    if not 0.0 * t * indicated * true_agl == 0.0:
        t, indicated, true_agl = _json_numbers(t, indicated, true_agl)
    return (f'{{"kind": "gpws_alert", "payload": {{"approach": {approach!r}, '
            f'"indicated_agl_ft": {indicated!r}, "kind": {_ALERT_KIND}, '
            f'"true_agl_ft": {true_agl!r}}}{seed}{t!r}{end}')


def _gpws_crew_action_line(seed: str, end: str, t: float, approach: int, action: str,
                           min_agl: Optional[float]) -> str:
    """The ``crew_action`` line, with ``min_agl_ft`` unless ``min_agl`` is None."""

    if not 0.0 * t * (0.0 if min_agl is None else min_agl) == 0.0:
        t, min_agl = _json_numbers(t, min_agl)
    last = "" if min_agl is None else f', "min_agl_ft": {min_agl!r}'
    return (f'{{"kind": "crew_action", "payload": {{"action": {encode_basestring_ascii(action)}, '
            f'"approach": {approach!r}{last}}}{seed}{t!r}{end}')


def _gpws_outcome_line(seed: str, end: str, t: float, approach: int, outcome: str) -> str:
    if not 0.0 * t == 0.0:
        t = _JsonFloat(t)
    return (f'{{"kind": "outcome", "payload": {{"approach": {approach!r}, '
            f'"outcome": {encode_basestring_ascii(outcome)}}}{seed}{t!r}{end}')


def _gpws_states(seed: str, end: str, t: list, alt: list, indicated: list, steps: range,
                 lines: List[str], rows: List[str]) -> None:
    """The ``state`` lines of the fine loop's ``steps`` and their altitude
    trace rows, as `csv.writer` writes three floats: each by repr."""

    for i in steps:
        ti, altitude, agl = t[i], m_to_ft(alt[i]), indicated[i]
        rows.append(f"{ti!r},{altitude!r},{agl!r}\n")
        if not 0.0 * ti * altitude * agl == 0.0:
            ti, altitude, agl = _json_numbers(ti, altitude, agl)
        lines.append(f'{{"kind": "state", "payload": {{"altitude_ft": {altitude!r}, '
                     f'"indicated_agl_ft": {agl!r}}}{seed}{ti!r}{end}')


def _gpws_fine_loop(cfg: ScenarioConfig, rows: list) -> Iterator[tuple]:
    """The fine loop of each (trial, trigger, start state) row up to touchdown
    or the first alert, as ``(row, flight)`` pairs yielded as each block
    ends.  A flight is whether it alerted, the ramp's first step (or past the
    last), the steps' times, last along-track, altitudes, last true AGL and
    indicated AGLs.  Raises `elevation_at`'s ValueError off the terrain."""

    steps = math.ceil(_GPWS_BLOCK_S / cfg.dt_s)
    while rows:
        per_block, longer = max(1, _GPWS_BLOCK_CELLS // steps), []
        for b in range(0, len(rows), per_block):
            block = rows[b:b + per_block]
            for row, flight in zip(block, _gpws_block(cfg, block, steps)):
                if flight is None:
                    longer.append(row)
                else:
                    yield row, flight
        rows, steps = longer, steps * 4


def _gpws_block(cfg: ScenarioConfig, rows: list, steps: int) -> list:
    """`_gpws_fine_loop` of ``rows`` over ``steps`` steps as one array block:
    None for a row that ends neither way in it."""

    terrain, dt = cfg.terrain, cfg.dt_s
    vs, gs = rows[0][2].vertical_speed, rows[0][2].ground_speed

    def walk(starts, d):  # row r: starts[r] + d + d + ..., added in sequence
        x = np.full((len(rows), steps + 1), d)
        x[:, 0] = starts
        return np.cumsum(x, axis=1, out=x)[:, 1:]

    def first(mask):  # each row's first True column, or `steps`
        return np.where(mask.any(axis=1), mask.argmax(axis=1), steps)

    t = walk([state.time for _, _, state in rows], dt)
    along = walk([state.along_track for _, _, state in rows], gs * dt)
    alt = walk([state.altitude_msl for _, _, state in rows], vs * dt)
    true_agl = (alt - np.interp(along, *zip(*terrain.vertices))) / M_PER_FT
    # Touchdown: on the ground, or at the runway's elevation where the
    # terrain lies below it.
    down = first((true_agl <= 0) | (alt <= cfg.runway.elevation))
    # The ramp starts where the true height first reaches the trigger; the
    # spoofed echo is the sweep's only return.
    p = first(true_agl <= np.array([[trigger] for _, trigger, _ in rows]))
    at = np.arange(len(rows))[:, None], np.minimum(p, steps - 1)[:, None]
    ramp = radalt.ramp_heights(ft_to_m(true_agl[at]), t - t[at], cfg.apparent_descent_rate_mps,
                               _GPWS_RAMP_DURATION_S, _SWEEP)
    indicated = np.where(np.arange(steps) >= p[:, None], ramp / M_PER_FT, true_agl)
    closure = gpws.closure_rates(t, indicated)
    alert_agl = np.where(0.0 > indicated, 0.0, indicated)  # max(indicated, 0.0)
    threshold = np.interp(alert_agl, gpws.BOUNDARY_AGL_FT, gpws.BOUNDARY_RATE_FPM)
    # An alert counts before touchdown only.
    end = np.minimum(first(closure >= threshold), down)
    # The along-track position only grows, from inside the terrain.
    outside = first(along > terrain.domain[1])
    flights: list = []
    for r, (e, out) in enumerate(zip(end.tolist(), outside.tolist())):
        if out <= e and out < steps:
            terrain.elevation_at(float(along[r, out]))  # raises
        flights.append(None if e == steps else (
            bool(e < down[r]), int(p[r]), t[r, :e + 1].tolist(), float(along[r, e]),
            alt[r, :e + 1].tolist(), float(true_agl[r, e]), indicated[r, :e + 1].tolist()))
    return flights


# ---------------------------------------------------------------------------
# false-intruder encounters


def _claim_frame(cfg: ScenarioConfig) -> tuple:
    """Whether the injector answers every cycle (True) or none (False), as
    cruise lies above or below its activation floor over all the terrain
    (1e-6 ft spares the lookup's rounding), or None; the claim's altitude
    and its altitude above the own ship as a track reads them, ft."""

    altitude = ft_to_m(cfg.cruise_altitude_ft)
    elevations = [z for _, z in cfg.terrain.vertices]
    floor_ft = cfg.false_intruder_plan.activation_floor
    answers = (True if m_to_ft(altitude - max(elevations)) > floor_ft + 1e-6
               else False if m_to_ft(altitude - min(elevations)) < floor_ft - 1e-6 else None)
    claim_ft = m_to_ft(altitude) + cfg.false_intruder_plan.vertical_offset
    return answers, claim_ft, claim_ft - m_to_ft(altitude)


def tcas_trial(cfg: ScenarioConfig, trial_id: int, seed: int,
               rng: np.random.Generator) -> Generator[tuple, tuple, tuple]:
    """The TCAS trial of ``trial_id``, drawing from ``rng``, the generator
    of its ``seed``, as a generator: it yields each encounter the injector
    answers as an `_tcas_encounters` row, is sent back its flight, and
    returns the trial's log text and the values its summary folds:
    ``(text, (outcome, final mode, final action, episodes, RAs observed,
    TAs after the downgrade))``."""

    policy = cfg.tcas_policy
    answers, claim_ft, rel = _claim_frame(cfg)
    seed_text, end = f', "seed": {seed!r}, "t": ', f', "trial_id": {trial_id!r}}}\n'
    parts: List[str] = []

    mode = tcas.TA_RA  # the alerting mode, lowered by the crew's downgrades
    script = crew.sample_tcas_crew(policy, rng)
    injector = tcas.FalseIntruderInjector(
        cfg.false_intruder_plan, rng, attacker_position=cfg.attacker_position_m)

    if not cfg.attacker_enabled:
        ends = ("CONTINUED", mode, crew.CONTINUE, 0, 0, 0)
        return _tcas_outcome_line(seed_text, end, 0.0, *ends), ends

    # Every RA of the run is against the same claimed relative altitude.
    ra = _tcas_ra_fields(tcas.resolution_advisory(rel, 0.0))
    # Every time written is a float: sums from 0.0 and the kernel's cycle times.
    t = 0.0
    episodes = 0
    while (
        episodes < cfg.max_episodes
        and script.ra_count < cfg.false_intruder_plan.alert_budget
        and not script.settled(mode)
    ):
        injector.start_episode(t)
        episodes += 1
        parts.append(_tcas_episode_line(seed_text, end, t, episodes, injector.icao_id,
                                        injector._bearing, injector._speed))
        k_end = injector.floor_cycle()
        sample, advisories = None, ()
        if mode != tcas.STANDBY and answers is not False:
            v, theta = injector._speed, math.radians(injector._bearing)
            sample, advisories = yield (t, v, v * cfg.false_intruder_plan.start_tau_s,
                                        math.cos(theta), math.sin(theta), k_end,
                                        mode == tcas.TA_RA)
        tc = t + k_end
        for ta, tc_adv in advisories:
            parts.append(_tcas_advisory_line(seed_text, end, tc_adv, episodes,
                                             _TA_FIELDS if ta else ra))
            action, mode = crew.tcas_act("TA" if ta else "RA", mode, script)
            parts.append(_tcas_crew_action_line(seed_text, end, tc_adv, episodes, action))
            if not ta or mode != tcas.TA_RA:
                tc = tc_adv
                break
        if sample is not None:
            tc_sample, claimed = sample
            parts.append(_tcas_surveillance_line(seed_text, end, tc, injector.icao_id, claim_ft,
                                                 claimed, tc_sample, injector.attacker_position))
        t = tc + cfg.inter_episode_gap_s

    if script.settled(mode):
        final_action = script.final_action
    elif mode == tcas.TA_RA:
        final_action = crew.CONTINUE
    else:
        # Budget ran out mid-path; decide from the mode actually reached.
        final_action = crew.sample_categorical(rng, policy.action_given_final_mode[mode])
    outcome = {crew.CONTINUE: "CONTINUED", crew.AVOIDANCE: "AVOIDED",
               crew.DIVERT: "DIVERTED"}[final_action]
    ends = (outcome, mode, final_action, episodes, script.ra_count,
            script.ta_count_since_downgrade)
    parts.append(_tcas_outcome_line(seed_text, end, t, *ends))
    return "".join(parts), ends


def tcas_trials(cfg: ScenarioConfig, trial_ids: Sequence[int], seeds: Sequence[int]) -> TextChunk:
    """The TCAS trials of ``trial_ids`` with their ``seeds``, in order, each
    started by its name, `tcas_trial`.  Round n flies the n-th encounter
    each trial still running yields, in one `_tcas_encounters` call.  Trials
    end in different rounds, so their summary is folded once the chunk
    ends, in trial order."""

    trials = [tcas_trial(cfg, i, seed, rng)
              for i, seed, rng in zip(trial_ids, seeds, trial_generators(seeds))]
    texts: List[str] = [""] * len(trials)
    ends: List[tuple] = [()] * len(trials)
    flights: Dict[int, tuple] = {}  # what each trial is sent next
    running = range(len(trials))
    while running:
        rows, flying = [], []
        for k in running:
            try:
                rows.append(trials[k].send(flights.get(k)))
                flying.append(k)
            except StopIteration as done:
                texts[k], ends[k] = done.value
        flights = dict(zip(flying, _tcas_encounters(cfg, rows)))
        running = flying
    part = TcasSummary(cfg.scenario)
    for trial in ends:
        part.add_trial(*trial)
    return TextChunk(texts, part, ())  # a TCAS trial logs no altitude trace


# The TCAS lines, one template per record kind, written as `json.dumps(record,
# sort_keys=True)` writes the record, as the GPWS templates are.

#: The fields of a TA's ``advisory`` payload before and after its episode.
_TA_FIELDS = ("", ', "level": "TA"')


def _tcas_ra_fields(ra: tcas.Advisory) -> Tuple[str, str]:
    """The fields of an RA's ``advisory`` payload before and after its
    episode, formatted once per trial."""

    rate = ra.commanded_rate
    if not 0.0 * rate == 0.0:
        rate = _JsonFloat(rate)
    return (f'"commanded_rate_fpm": {rate!r}, ',
            f', "level": "RA", "ra_sense": {encode_basestring_ascii(ra.ra_sense)}')


def _tcas_episode_line(seed: str, end: str, t: float, episode: int, icao_id: int,
                       bearing: float, speed: float) -> str:
    if not 0.0 * t * bearing * speed == 0.0:
        t, bearing, speed = _json_numbers(t, bearing, speed)
    return (f'{{"kind": "episode_start", "payload": {{"bearing_deg": {bearing!r}, '
            f'"closure_mps": {speed!r}, "episode": {episode!r}, "icao_id": {icao_id!r}}}'
            f'{seed}{t!r}{end}')


def _tcas_advisory_line(seed: str, end: str, t: float, episode: int,
                        fields: Tuple[str, str]) -> str:
    """The ``advisory`` line of a TA (`_TA_FIELDS`) or an RA (`_tcas_ra_fields`)."""

    if not 0.0 * t == 0.0:
        t = _JsonFloat(t)
    before, after = fields
    return (f'{{"kind": "advisory", "payload": {{{before}"episode": {episode!r}{after}}}'
            f'{seed}{t!r}{end}')


def _tcas_crew_action_line(seed: str, end: str, t: float, episode: int, action: str) -> str:
    if not 0.0 * t == 0.0:
        t = _JsonFloat(t)
    return (f'{{"kind": "crew_action", "payload": {{"action": {encode_basestring_ascii(action)}, '
            f'"episode": {episode!r}}}{seed}{t!r}{end}')


def _tcas_surveillance_line(seed: str, end: str, t: float, icao_id: int, claim_ft: float,
                            claimed: Sequence[float], timestamp: float,
                            site: Sequence[float]) -> str:
    """The ``surveillance`` line of the Mode S reply carrying the claim
    (``icao_id``, ``claim_ft``, ``claimed``) at ``timestamp``, sent from the
    attacker's ``site`` at `tcas.MAX_TX_POWER_DBM`."""

    (x, y, z), (sx, sy, sz) = claimed, site
    if not 0.0 * t * claim_ft * x * y * z * timestamp * sx * sy * sz == 0.0:
        t, claim_ft, x, y, z, timestamp, sx, sy, sz = _json_numbers(
            t, claim_ft, x, y, z, timestamp, sx, sy, sz)
    return (f'{{"kind": "surveillance", "payload": {{"altitude_ft": {claim_ft!r}, '
            f'"claimed_position_m": [{x!r}, {y!r}, {z!r}], "icao_id": {icao_id!r}, '
            f'"kind": {_MODE_S_REPLY}, "origin": "adversarial", '
            f'"position_m": [{sx!r}, {sy!r}, {sz!r}], "timestamp": {timestamp!r}, '
            f'"tx_power_dbm": {tcas.MAX_TX_POWER_DBM!r}}}{seed}{t!r}{end}')


def _tcas_outcome_line(seed: str, end: str, t: float, outcome: str, mode: str, action: str,
                       episodes: int, ras: int, tas: int) -> str:
    if not 0.0 * t == 0.0:
        t = _JsonFloat(t)
    e = encode_basestring_ascii
    return (f'{{"kind": "outcome", "payload": {{"episodes": {episodes!r}, '
            f'"final_action": {e(action)}, "final_mode": {e(mode)}, "outcome": {e(outcome)}, '
            f'"ras_observed": {ras!r}, "tas_after_downgrade": {tas!r}}}{seed}{t!r}{end}')


def _first_cycles(cfg: ScenarioConfig, v: np.ndarray) -> tuple:
    """The first cycles k >= 1 at which encounters closing at ``v`` m/s can
    raise the TA and the RA, as float arrays: 1 where the injector may fall
    silent (every cycle runs), `math.inf` outside the altitude band.  The
    claimed slant range s = sqrt(r^2 + h^2), r = v (T - e), is convex in the
    elapsed time e, so tau at cycle k is at least tau(e) - 1 at e = k - 1,
    with tau(e) = s^2 / (v r).  The bound is one second after tau(e) falls
    to the threshold + 1, at the larger root r of r^2 - v (tau + 1) r + h^2
    (`math.inf` if none), less 1e-6 s for the tracked positions' rounding."""

    th, plan = cfg.tcas_thresholds, cfg.false_intruder_plan
    answers, _, rel = _claim_frame(cfg)
    if not answers:
        return np.ones(len(v)), np.ones(len(v))
    h = ft_to_m(plan.vertical_offset)

    def first(tau_s: float, in_band: bool) -> np.ndarray:
        if not in_band:
            return np.full(len(v), math.inf)
        vt = v * (tau_s + 1.0)
        disc = vt * vt - 4.0 * h * h
        r = (vt + np.sqrt(np.maximum(disc, 0.0))) / 2.0
        k = np.maximum(1.0, np.ceil(plan.start_tau_s - r / v + 1.0 - 1e-6))
        return np.where(disc < 0, math.inf, k)

    ta_in, ra_in = tcas.alert_levels(0.0, rel, True, th)  # the bands' gate
    return first(th.tau_ta_s, ta_in), first(th.tau_ra_s, ra_in)


def _tcas_encounters(cfg: ScenarioConfig, rows: list) -> list:
    """The flights of encounter rows ``(t, speed, speed * start_tau_s, cos
    and sin of the bearing, k_end, ta_ra)``, flown in lockstep as arrays:
    from t, each runs cycle 0, then the cycle before the first that can
    advise (`_first_cycles`' TA cycle, or its RA cycle after a TA in TA/RA
    mode, ``ta_ra``) and each cycle after it, advised, until its advisory or
    cycle k_end.  The track keeps `TcasUnit._update_track`'s closure and
    `drop_stale`'s staleness, and its tau alerts by `tcas.alert_levels`, as
    in `advise`; after the TA, only the RA can fire (``ra_only``).  A flight
    is its first claim's time and position (None without one) and its
    advisories as ``(is_ta, time)``."""

    th, plan = cfg.tcas_thresholds, cfg.false_intruder_plan
    altitude, gs = ft_to_m(cfg.cruise_altitude_ft), kn_to_mps(cfg.cruise_ground_speed_kn)
    answers, _, rel = _claim_frame(cfg)
    # The terrain under the own ship; `numpy.interp` holds the end values
    # outside the profile, as a lookup clipped to its domain does.
    terrain = tuple(zip(*cfg.terrain.vertices))

    # A row per encounter, its parameters and then its cycle and track,
    # compacted as rows end.  A row without a track has ``last`` -inf, so a
    # new track's closure is (-)0 and reads no tau.
    m = np.zeros((len(rows), 15))
    m[:, :7] = np.array(rows, dtype=float).reshape(-1, 7)
    m[:, 7], m[:, 8] = _first_cycles(cfg, m[:, 1])
    m[:, 14] = -math.inf
    ids = np.arange(len(rows))
    samples: List[Any] = [None] * len(rows)
    advisories: List[list] = [[] for _ in rows]
    own, claim = np.zeros((len(rows), 3)), np.empty((len(rows), 3))
    own[:, 2], claim[:, 2] = altitude, altitude + ft_to_m(plan.vertical_offset)
    with np.errstate(divide="ignore", invalid="ignore"):
        while len(m):
            (t, v, vt, cos, sin, k_end, ta_ra, k_from, ra_from, ra_only,
             k, claimed, slant, closure, last) = m.T
            own, claim = own[:len(m)], claim[:len(m)]
            tc = t + k
            x = np.multiply(gs, tc, out=own[:, 0])
            r = np.maximum(vt - v * (tc - t), tcas.CLAIM_FLOOR_M)
            np.add(x, r * cos, out=claim[:, 0])
            np.add(0.0, r * sin, out=claim[:, 1])
            now = tcas.slant_ranges(own, claim)
            answered = (True if answers is not None else
                        m_to_ft(altitude - np.interp(x, *terrain)) > plan.activation_floor)
            first = np.flatnonzero(answered & (claimed == 0))
            if first.size:
                claimed[first] = 1.0
                for i, tci, pos in zip(ids[first].tolist(), tc[first].tolist(),
                                       claim[first].tolist()):
                    samples[i] = tci, tuple(pos)

            dt = tc - last
            update = answered & (now > 0)
            same = dt == 0
            if same.any():  # a duplicate address farther out than the track is ignored
                update &= ~(same & (now > slant * 1.5))
            np.copyto(closure, (slant - now) / dt, where=update & (dt > 0))
            np.copyto(slant, now, where=update)
            np.copyto(last, tc, where=update)
            stale = tc - last > tcas.TRACK_STALENESS_S
            if stale.any():
                last[stale], closure[stale] = -math.inf, 0.0

            ta, ra = tcas.alert_levels(slant / closure, rel, ta_ra > 0, th)
            fired = (k >= k_from) & (closure > 0) & (ra | ta & (ra_only == 0))
            if fired.any():
                ra &= fired
                for i, tci, is_ra in zip(ids[fired].tolist(), tc[fired].tolist(),
                                         ra[fired].tolist()):
                    advisories[i].append((not is_ra, tci))
                # A TA in TA/RA mode goes on to the RA.
                onward = fired & ~ra & (ta_ra > 0)
                ra_only[onward], k_from[onward] = 1.0, ra_from[onward]
                fired &= ~onward

            # The next cycle that can advise; a jump lands one cycle early,
            # which only updates the track.
            k1 = k + 1
            nxt = np.maximum(k1, k_from)
            keep = (nxt <= k_end) & ~fired
            if answers:
                keep &= last > -math.inf  # a cycle that keeps no track ends the encounter
            k[:] = np.where(nxt > k1, nxt - 1, nxt)
            m, ids = m[keep], ids[keep]
    return list(zip(samples, advisories))


# ---------------------------------------------------------------------------
# displaced-glideslope approach


def flown_glideslope(cfg: ScenarioConfig) -> ils.GlideslopeTx:
    """The transmitter whose path a glideslope approach flies: the one of
    highest power.  `ils.receive` captures by received power (1/d^2) instead,
    so the nearby genuine transmitter recaptures below a crossover height (see
    _GS_EVAL_FLOOR_FT); the mismatch is open in ROADMAP item 5."""

    return max(cfg.glideslope, key=lambda tx: tx.tx_power)


def gs_eval_agl(go_around_agl_ft: float) -> float:
    """Height of the glideslope/visual cross-check for a crew that goes around
    at ``go_around_agl_ft``: that height, or _GS_EVAL_FLOOR_FT if higher."""

    return max(go_around_agl_ft, _GS_EVAL_FLOOR_FT)


def gs_path_along(cfg: ScenarioConfig, agl_ft: float) -> float:
    """Along-track position, m, of the flown glideslope path at height ``agl_ft``."""

    runway, tx = cfg.runway, flown_glideslope(cfg)
    antenna_along = runway.threshold_position + tx.antenna_position
    return antenna_along - ft_to_m(agl_ft) / math.tan(math.radians(tx.path_angle))


def gs_trial(cfg: ScenarioConfig, trial_id: int, seed: int,
             rng: np.random.Generator) -> crew.GsCrewState:
    """The crew of glideslope trial ``trial_id``, drawn from ``rng``, the
    generator of its ``seed``: every draw the trial makes.  `gs_trials`
    flies it."""

    return crew.sample_gs_crew(cfg.gs_policy, rng)


def gs_trials(cfg: ScenarioConfig, trial_ids: Sequence[int], seeds: Sequence[int]) -> TextChunk:
    """The glideslope trials of ``trial_ids`` with their ``seeds``, in order,
    as one round.  Each trial's crew comes from `gs_trial`, called by its
    name with a generator built just before it.  Its cross-check then runs
    on plain floats, with the operations, in their order, of an aircraft on
    the flown path (`gs_path_along`), `ils.receive` and `ils.papi`, whose
    errors it raises for a geometry they refuse; the path, the transmitters,
    the PAPI bands and the landing are the config's, worked out once.  Its
    lines come from `_gs_indication_line`, `_gs_go_around_lines` and
    `_gs_land_lines`, and its summary from the same values."""

    runway, scenario = cfg.runway, cfg.scenario
    rate_fps = m_to_ft(fpm_to_mps(cfg.approach_descent_rate_fpm))
    start_agl = cfg.approach_start_agl_ft
    elevation, threshold = runway.elevation, runway.threshold_position
    tdz = runway.touchdown_zone_position
    flown = flown_glideslope(cfg)
    antenna_along = threshold + flown.antenna_position
    tangent = math.tan(math.radians(flown.path_angle))
    # (along-track position, path angle, power, genuine, its JSON): a power
    # tie goes to the genuine transmitter, and the first of equals.
    sources = [(threshold + tx.antenna_position, tx.path_angle, tx.tx_power,
                tx.legitimacy == "genuine", encode_basestring_ascii(tx.legitimacy))
               for tx in cfg.glideslope]
    shift = cfg.glideslope[0].path_angle - 3.0
    edges = [edge + shift for edge in ils.PAPI_BAND_EDGES_DEG]
    # A crew that continues lands on the flown path, the same for every trial.
    t_land = (start_agl - 0.0) / rate_fps
    touchdown = gs_path_along(cfg, 0.0)
    long_landing = cfg.attacker_enabled and touchdown > tdz

    texts: List[str] = []
    part = GsSummary(scenario)
    atan2, degrees, max_range = math.atan2, math.degrees, ils.MAX_RANGE_M
    for trial_id, seed, rng in zip(trial_ids, seeds, trial_generators(seeds)):
        script = gs_trial(cfg, trial_id, seed, rng)
        eval_agl = gs_eval_agl(script.go_around_agl_ft)
        t_eval = (start_agl - eval_agl) / rate_fps
        height = ft_to_m(eval_agl)
        along = antenna_along - height / tangent
        height = (elevation + height) - elevation  # as read back from the altitude
        best = captured = None
        for tx_along, path_angle, power, genuine, legitimacy in sources:
            dist = tx_along - along
            if dist <= 0:
                raise ValueError("aircraft is past the transmitter")
            if dist <= max_range:
                key = (power / max(dist, 1.0) ** 2, genuine)
                if best is None or key > best:
                    best, captured = key, (dist, path_angle, legitimacy)
        if captured is None:
            ddm = dots = 0.0
            legitimacy = "null"
        else:
            dist, path_angle, legitimacy = captured
            unit = (degrees(atan2(height, dist)) - path_angle) / ils.FULL_SCALE_DEG
            unit = min(1.0, max(-1.0, unit))
            ddm, dots = ils.FULL_SCALE_DDM * unit, 2.0 * unit
        if along >= threshold:
            raise ValueError("aircraft is behind the runway threshold")
        angle = degrees(atan2(height, tdz - along))
        whites = sum(angle > edge for edge in edges)

        seed_text = f', "seed": {seed!r}, "t": '
        end = f', "trial_id": {trial_id!r}}}\n'
        text = _gs_indication_line(seed_text, end, t_eval, eval_agl, legitimacy, ddm, dots, whites)
        if crew.gs_goes_around(captured is not None, dots, whites, script.fallback):
            t_ga = (start_agl - script.go_around_agl_ft) / rate_fps
            text += _gs_go_around_lines(seed_text, end, t_ga, script.go_around_agl_ft,
                                        script.fallback, t_ga + 300.0 + start_agl / rate_fps)
            part.add_trial("LANDED_FALLBACK", (script.go_around_agl_ft,), (script.fallback,))
        else:
            text += _gs_land_lines(seed_text, end, t_land, touchdown, long_landing)
            part.add_trial("LANDED", (), ())
        texts.append(text)
    return TextChunk(texts, part, ())  # a glideslope trial logs no altitude trace


# Each trial's lines, as `json.dumps(record, sort_keys=True)` writes its
# records, one line each: ``seed`` and ``end`` frame a record's ``t`` (`,
# "seed": S, "t": ` and `, "trial_id": I}` plus the newline).  Floats print
# by repr, as a `_JsonFloat` where one is not finite.


def _gs_indication_line(seed: str, end: str, t: float, agl: float, captured: str,
                        ddm: float, dots: float, whites: int) -> str:
    """The ``gs_indication`` line; ``captured`` is the captured transmitter's
    legitimacy as JSON, or ``null``."""

    if not 0.0 * t * agl * ddm * dots == 0.0:
        t, agl, ddm, dots = map(_JsonFloat, (t, agl, ddm, dots))
    return (f'{{"kind": "gs_indication", "payload": {{"agl_ft": {agl!r}, "captured": {captured}, '
            f'"ddm": {ddm!r}, "deviation_dots": {dots!r}, "papi_whites": {whites!r}}}'
            f'{seed}{t!r}{end}')


def _gs_go_around_lines(seed: str, end: str, t: float, agl: float, fallback: str,
                        t_land: float) -> str:
    """The go-around at ``t``, the ``fallback`` approach and its landing at ``t_land``."""

    if not 0.0 * t * agl * t_land == 0.0:
        t, agl, t_land = map(_JsonFloat, (t, agl, t_land))
    fallback = encode_basestring_ascii(fallback)
    at = f"{seed}{t!r}{end}"
    return (f'{{"kind": "crew_action", "payload": {{"action": "GO_AROUND", "agl_ft": {agl!r}, '
            f'"approach": 1}}{at}'
            f'{{"kind": "fallback_selected", "payload": {{"approach_type": {fallback}}}{at}'
            f'{{"kind": "outcome", "payload": {{"approach": 2, "approach_type": {fallback}, '
            f'"outcome": "LANDED_FALLBACK"}}{seed}{t_land!r}{end}')


def _gs_land_lines(seed: str, end: str, t: float, touchdown: float, long_landing: bool) -> str:
    """The decision to land and the landing at ``t``, ``touchdown`` m along the track."""

    if not 0.0 * t * touchdown == 0.0:
        t, touchdown = map(_JsonFloat, (t, touchdown))
    long_landing = "true" if long_landing else "false"
    at = f"{seed}{t!r}{end}"
    return (f'{{"kind": "crew_action", "payload": {{"action": "LAND", "approach": 1}}{at}'
            f'{{"kind": "outcome", "payload": {{"approach": 1, "long_landing": {long_landing}, '
            f'"outcome": "LANDED", "touchdown_along_m": {touchdown!r}}}{at}')


# ---------------------------------------------------------------------------
# registry


@dataclass
class TextChunk:
    """A chunk of trials made as their log texts, in trial order, with the
    scenario's summary of them and the altitude traces made with them, as
    (trial id, CSV text).  It holds no `TrialLog`: a caller that needs one
    parses a text with `TrialLog.from_jsonl`."""

    texts: List[str]
    summary: Summary
    traces: Sequence[Tuple[int, str]]


@dataclass(frozen=True)
class Scenario:
    """One scenario: its trials function, its `Summary` subclass, built with
    the scenario's name (``summary(name)``, then ``add(log)`` or
    ``add_trial``, then ``result()``), and its config overrides.

    The trials function runs the runner's chunk (config, trial ids, seeds)
    and returns a `TextChunk`, whose ``texts`` (each trial's log as JSON
    lines), ``summary`` (the subclass's fold of them) and ``traces`` (the
    altitude traces to write, as (trial id, CSV text)) the write path takes."""

    trials: Callable[[ScenarioConfig, Sequence[int], Sequence[int]], TextChunk]
    summary: Type[Summary]
    overrides: Dict[str, Any] = field(default_factory=dict)


SCENARIOS: Dict[str, Scenario] = {
    "GPWS": Scenario(gpws_trials, GpwsSummary),
    "TCAS": Scenario(tcas_trials, TcasSummary),
    "GS": Scenario(gs_trials, GsSummary),
    # The glideslope approach with no attacker.
    "BASELINE": Scenario(gs_trials, GsSummary, {"attacker": {"enabled": False}}),
}
