"""Scalar references that the array kernels in `spoofsim` are tested against.

Each is the model as it ran one sample, one sweep or one cycle at a time
before the kernel replaced it, kept here so the tests can compare the two
to the bit:

- `ClosureRateEstimator`, `evaluate` and `GpwsAlert`: the GPWS closure rate
  and alert, against `gpws.closure_rates` and the fine loop's envelope;
- `RampAttackPlan`: the ramp attack one sweep at a time, against
  `radalt.ramp_heights`;
- `mode_s_cycle` and `ModeSTransponder`: a Mode S surveillance cycle over
  responders' claims, against the TCAS encounter kernel;
- `uniform_start_episode`: an encounter's draws by `Generator.uniform`,
  against `FalseIntruderInjector.start_episode`;
- `first_cycle_within`: an encounter's first cycle that can advise, one
  encounter at a time, against the TCAS encounter kernel's schedule
  (`scenarios._first_cycles`);
- `scalar_advise`: the TA/RA decision one track at a time, each threshold
  compared where it is read, against `tcas.alert_levels` and `tcas.advise`;
- `gs_trial_objects`: a glideslope trial as objects (an `AircraftState` on the
  flown path, `ils.receive`, `ils.papi`, `crew.gs_act` and a `TrialLog`),
  against the glideslope round (`scenarios.gs_trials`).

No module under `src` imports this one.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Sequence, Tuple

import numpy as np

from spoofsim import crew, ils, tcas, world
from spoofsim.gpws import CLOSURE_WINDOW_S, Mode2Envelope
from spoofsim.harness.log import TrialLog
from spoofsim.harness.scenarios import flown_glideslope, gs_eval_agl
from spoofsim.radalt import PulseEcho, height_to_delay
from spoofsim.tcas import MODE_S_REPLY, STANDBY, Claim, Position, SurveillanceMessage
from spoofsim.units import fpm_to_mps, ft_to_m, kn_to_mps, m_to_ft


# ---------------------------------------------------------------------------
# GPWS


@dataclass(frozen=True)
class GpwsAlert:
    time: float                 # s
    trigger_agl: float          # ft (indicated)
    kind: str = "TERRAIN_PULL_UP"


def evaluate(
    agl_ft: float,
    closure_rate_fpm: float,
    envelope: Mode2Envelope,
    time: float = 0.0,
) -> Optional[GpwsAlert]:
    """Alert iff (AGL, closure rate) lies in the envelope."""

    if agl_ft < 0:
        raise ValueError("agl must be >= 0")
    if envelope.contains(agl_ft, closure_rate_fpm):
        return GpwsAlert(time=time, trigger_agl=agl_ft)
    return None


@dataclass
class ClosureRateEstimator:
    """Backward difference of indicated AGL over `CLOSURE_WINDOW_S`."""

    _samples: Deque[Tuple[float, float]] = field(default_factory=deque)

    def update(self, t: float, indicated_agl_ft: float) -> Optional[float]:
        """Feed one (time, indicated AGL ft) sample; return closure in ft/min,
        or None until a full window of history exists."""

        samples = self._samples
        samples.append((t, indicated_agl_ft))
        # Keep just enough history to straddle the window.
        cutoff = t - CLOSURE_WINDOW_S
        while len(samples) > 2 and samples[1][0] <= cutoff:
            samples.popleft()
        t0, h0 = samples[0]
        if t - t0 < CLOSURE_WINDOW_S - 1e-9:
            return None
        return (h0 - indicated_agl_ft) / (t - t0) * 60.0


# ---------------------------------------------------------------------------
# radio altimeter


@dataclass(frozen=True)
class RampAttackPlan:
    """An apparent-descent attack: the injected echo mimics a height that
    falls at ``apparent_descent_rate`` from ``start_agl``, one step per sweep,
    clipped at the ground and held after ``duration``."""

    start_agl: float               # m
    apparent_descent_rate: float   # m/s
    duration: float                # s
    sweep_period: float            # s

    def __post_init__(self) -> None:
        if not self.duration > 0:
            raise ValueError("duration must be > 0")
        if not self.apparent_descent_rate >= 0:
            raise ValueError("apparent_descent_rate must be >= 0")
        if not self.start_agl >= 0:
            raise ValueError("start_agl must be >= 0")
        if not self.sweep_period > 0:
            raise ValueError("sweep_period must be > 0")

    def delay_at(self, elapsed: float) -> float:
        """Round-trip delay (s) of the injected echo of the sweep in progress
        ``elapsed`` seconds into the attack; only that sweep's delay is
        computed."""

        n_sweeps = max(1, math.ceil(self.duration / self.sweep_period))
        k = min(int(elapsed / self.sweep_period), n_sweeps - 1)
        h = max(0.0, self.start_agl - self.apparent_descent_rate * k * self.sweep_period)
        return height_to_delay(h)

    def echo_at(self, elapsed: float) -> PulseEcho:
        """The injected echo itself, for `measure` among other returns."""

        return PulseEcho(self.delay_at(elapsed), -40.0)


# ---------------------------------------------------------------------------
# Mode S surveillance


class ModeSTransponder(tcas.Transponder):
    """A `tcas.Transponder` that also answers Mode S interrogations."""

    def claim(self, t: float, interrogator: Position) -> Optional[Claim]:
        """The content of the Mode S reply at t; None for Mode C.  A genuine
        reply does not depend on the ``interrogator``'s position."""

        if self.mode != "S":
            return None
        state = self.state_fn(t)
        x, y = state.ground_position
        return self.icao_id, m_to_ft(state.altitude_msl), (x, y, state.altitude_msl)

    def respond_mode_s(self, t: float) -> Optional[SurveillanceMessage]:
        return self._reply(MODE_S_REPLY, t, self.icao_id) if self.mode == "S" else None


def mode_s_cycle(
    unit: tcas.TcasUnit, own_pos: Position, responders: Sequence, t: float
) -> List[Claim]:
    """One interrogation round of ``unit`` from ``own_pos``: each responder's
    Mode S claim (``responder.claim(t, own_pos)``) updates the track of the id
    it carries.  Returns the claims, in responder order; no message is
    built."""

    if unit.mode == STANDBY:
        return []
    own_alt_ft = m_to_ft(own_pos[2])
    claims = []
    updated = None
    for responder in responders:
        claim = responder.claim(t, own_pos)
        if claim is None:
            continue
        claims.append(claim)
        icao_id, altitude, claimed = claim
        track = unit._update_track(
            icao_id, t, own_pos, own_alt_ft, claimed, altitude,
            bearing_noise_deg=0.0, icao_id=icao_id,
        )
        if track is not None:
            updated = track
    # A lone track that this cycle updated cannot be stale.
    if updated is None or len(unit.tracks) > 1:
        unit.drop_stale(t)
    return claims


def uniform_start_episode(injector: tcas.FalseIntruderInjector, t: float) -> None:
    """`FalseIntruderInjector.start_episode` with its bearing and speed drawn
    by `Generator.uniform`."""

    injector.episode_start = t
    injector._bearing = (
        injector.plan.approach_bearing
        + float(injector.rng.uniform(-injector.plan.bearing_jitter_deg,
                                     injector.plan.bearing_jitter_deg))
    ) % 360.0
    injector._speed = max(
        30.0,
        injector.plan.approach_speed
        + float(injector.rng.uniform(-injector.plan.speed_jitter_mps,
                                     injector.plan.speed_jitter_mps)),
    )
    injector.icao_id = int(injector.rng.integers(0, 2**24))


def first_cycle_within(plan: tcas.FalseIntruderPlan, speed: float, tau_s: float) -> float:
    """A lower bound on the first cycle k >= 1 of an encounter of ``plan``
    closing at ``speed`` m/s at which a track updated once a second reads
    tau <= ``tau_s``; ``math.inf`` when the claim never closes that fast.

    The claimed slant range s = sqrt(r^2 + h^2), r = v (T - e), is convex in
    the elapsed time e, so tau at cycle k is at least tau(k - 1) - 1 with
    tau(e) = s^2 / (v r).  The bound is the cycle one second after tau(e)
    first falls to ``tau_s`` + 1 (at the larger root r of
    r^2 - v (tau_s + 1) r + h^2 = 0), taken 1e-6 s early to absorb the
    rounding of the tracked positions.
    """

    v, tau = speed, tau_s + 1.0
    h = ft_to_m(plan.vertical_offset)
    disc = (v * tau) ** 2 - 4.0 * h * h
    if disc < 0:  # tau(e) bottoms out at 2 |h| / v
        return math.inf
    r = (v * tau + math.sqrt(disc)) / 2.0
    return max(1, math.ceil(plan.start_tau_s - r / v + 1.0 - 1e-6))


def scalar_advise(taus_and_altitudes: Sequence[Tuple[float, float]], mode: str,
                  thresholds: tcas.AdvisoryThresholds, t: float = 0.0) -> Optional[tcas.Advisory]:
    """The advisory for tracks of (tau s, relative altitude ft) in alerting
    ``mode``: the RA or TA of the advising track of least tau, the first on
    a tie; None in Standby or when no track advises."""

    if mode == STANDBY:
        return None
    best: Optional[tcas.Advisory] = None
    best_tau = math.inf
    for tau, rel in taus_and_altitudes:
        if tau >= best_tau:
            continue
        if (
            mode == tcas.TA_RA
            and tau <= thresholds.tau_ra_s
            and abs(rel) <= thresholds.ra_band_ft
        ):
            best = tcas.resolution_advisory(rel, t)
            best_tau = tau
        elif tau <= thresholds.tau_ta_s and abs(rel) <= thresholds.ta_band_ft:
            best = tcas.Advisory(level="TA", time=t)
            best_tau = tau
    return best


# ---------------------------------------------------------------------------
# Glideslope


def gs_path_state(cfg, agl_ft: float, t: float) -> world.AircraftState:
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


def gs_trial_objects(cfg, trial_id: int, seed: int) -> TrialLog:
    """The glideslope trial of ``trial_id`` with ``seed``, one object at a time."""

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
