"""Mode C / Mode S surveillance, TA/RA advisory logic and false-intruder injection.

The Mode S surveillance of a false-intruder encounter runs in the scenario's
array kernel, once per second: it reads the attacker's claim as plain
floats, placed relative to the aircraft it answers, and keeps the track with
`TcasUnit._update_track`'s closure and `drop_stale`'s staleness; `advise`
reads the tracks.  Only a reply that is kept becomes a `SurveillanceMessage`
(`FalseIntruderInjector.reply`); a message carries the position the
responder wants the victim to reconstruct (`claimed_position`) beside the
physical emission point (`position`), so time-of-arrival checks can be run
over it.  `TcasUnit.mode_c_cycle` runs the Mode C whisper-shout over the
`Transponder`s of a `Channel`.  Bit-level 1030/1090 MHz framing is out of
scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .world import AircraftState
from .units import ft_to_m, m_to_ft

# Message kinds: only transmissions whose content a receiver consumes are
# modelled; squitters, interrogations, all-calls and suppressions are implicit
# in the cycles.
MODE_S_REPLY = "MODE_S_REPLY"
MODE_C_REPLY = "MODE_C_REPLY"

# Crew-selectable alerting modes
STANDBY = "STANDBY"
TA_ONLY = "TA_ONLY"
TA_RA = "TA_RA"

#: Transponder transmit power ceiling, dBm (250 W).
MAX_TX_POWER_DBM = 54.0
#: Receiver sensitivity for link-margin checks, dBm.
DEFAULT_SENSITIVITY_DBM = -74.0
#: Wavelength at the interrogation frequency (1030 MHz), m.
_WAVELENGTH_M = 0.2911
#: A track not updated for longer than this is dropped, s.
TRACK_STALENESS_S = 6.0
#: Vertical rate commanded by a climb or descend RA, ft/min.
RA_RATE_FPM = 1500.0
#: Bearing error of a Mode C (anonymous) track, uniform +/- this, degrees.
MODE_C_BEARING_ERROR_DEG = 10.0
#: Closest horizontal range a false intruder claims, m.
CLAIM_FLOOR_M = 50.0
#: Slowest closure a false intruder claims, m/s.
MIN_CLOSURE_MPS = 30.0


#: A point (x, y, z) in the simulation frame, m: along-track, cross-track,
#: altitude MSL.
Position = Tuple[float, float, float]
#: The content of a Mode S reply, as a surveillance cycle reads it:
#: (icao_id, altitude ft, claimed position).
Claim = Tuple[int, float, Position]


def free_space_path_loss_db(distance_m: float) -> float:
    return 20.0 * math.log10(4.0 * math.pi * max(distance_m, 1.0) / _WAVELENGTH_M)


@dataclass(frozen=True)
class SurveillanceMessage:
    kind: str
    timestamp: float
    origin: str = "genuine"                    # "genuine" | "adversarial"
    icao_id: Optional[int] = None              # 24-bit, Mode S only
    altitude: Optional[float] = None           # ft, replies
    position: Optional[tuple] = None           # true emission point (x, y, z) m
    claimed_position: Optional[tuple] = None   # position encoded for the victim

    def __post_init__(self) -> None:
        if self.kind == MODE_C_REPLY and self.icao_id is not None:
            raise ValueError("Mode C replies carry no id")
        if self.kind == MODE_S_REPLY and self.icao_id is None:
            raise ValueError("Mode S replies must carry an id")
        if self.icao_id is not None and not 0 <= self.icao_id < 2**24:
            raise ValueError("icao_id must be a 24-bit value")

    def to_record(self) -> dict:
        return {
            "kind": self.kind,
            "timestamp": self.timestamp,
            "origin": self.origin,
            "icao_id": self.icao_id,
            "altitude_ft": self.altitude,
            "tx_power_dbm": MAX_TX_POWER_DBM,
            "position_m": list(self.position) if self.position is not None else None,
            "claimed_position_m": (
                list(self.claimed_position) if self.claimed_position is not None else None
            ),
        }


@dataclass
class IntruderTrack:
    icao_id: Optional[int]          # None = anonymous (Mode C)
    slant_range: float              # m
    bearing: float                  # degrees, estimated
    relative_altitude: float        # ft
    closure_rate: float             # m/s, positive = converging
    last_update: float              # s

    def __post_init__(self) -> None:
        if self.slant_range <= 0:
            raise ValueError("slant_range must be > 0")

    def tau(self) -> float:
        """Time to closest approach; infinite when not converging."""
        if self.closure_rate <= 0:
            return math.inf
        return self.slant_range / self.closure_rate


@dataclass(frozen=True)
class Advisory:
    level: str                        # "TA" | "RA"
    time: float
    ra_sense: Optional[str] = None    # "CLIMB" | "DESCEND" | "HOLD_VS"
    commanded_rate: float = 0.0       # ft/min


@dataclass(frozen=True)
class AdvisoryThresholds:
    tau_ta_s: float = 48.0
    tau_ra_s: float = 30.0
    ta_band_ft: float = 1200.0
    ra_band_ft: float = 600.0

    def __post_init__(self) -> None:
        # An RA is the tighter alert: it must fire inside the TA region.
        if self.tau_ra_s >= self.tau_ta_s:
            raise ValueError(f"tau_ra_s ({self.tau_ra_s}) must be below tau_ta_s ({self.tau_ta_s})")
        if self.ra_band_ft > self.ta_band_ft:
            raise ValueError(f"ra_band_ft ({self.ra_band_ft}) exceeds ta_band_ft ({self.ta_band_ft})")


@dataclass(frozen=True)
class FalseIntruderPlan:
    approach_bearing: float = 45.0        # degrees, varied per encounter
    approach_speed: float = 180.0         # m/s closure
    vertical_offset: float = -500.0       # ft; negative = below target (climb RA)
    activation_floor: float = 2000.0      # ft AGL
    alert_budget: int = 10                # RA-producing episodes before ceasing
    start_tau_s: float = 50.0             # initial time-to-closest-approach
    bearing_jitter_deg: float = 180.0     # per-encounter variation
    speed_jitter_mps: float = 60.0

    def __post_init__(self) -> None:
        if self.alert_budget < 0:
            raise ValueError("alert_budget must be >= 0")


def _bearing_between(own: Sequence[float], other: Sequence[float]) -> float:
    return math.degrees(math.atan2(other[1] - own[1], other[0] - own[0])) % 360.0


def own_position_3d(state: AircraftState) -> np.ndarray:
    return np.array(
        [state.ground_position[0], state.ground_position[1], state.altitude_msl]
    )


def slant_range(own: Sequence[float], other: Sequence[float]) -> float:
    """Distance between two (x, y, z) points: `slant_ranges` of one row."""

    return float(slant_ranges(np.array([own], dtype=float), np.array([other], dtype=float))[0])


def slant_ranges(own: np.ndarray, other: np.ndarray) -> np.ndarray:
    """The distance between each row of two (M, 3) arrays, equal to the last
    bit to ``np.linalg.norm`` of the row's difference: the square root of a
    vector-vector `np.matmul` per row, the reduction ``norm`` makes (`einsum`,
    a sum of squares and ``math.hypot`` round apart)."""

    d = other - own
    return np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])


class Transponder:
    """Genuine aircraft transponder (Mode S or Mode C), transmitting at
    `MAX_TX_POWER_DBM` and hearing down to `DEFAULT_SENSITIVITY_DBM`."""

    def __init__(
        self,
        icao_id: Optional[int],
        mode: str,
        state_fn: Callable[[float], AircraftState],
    ):
        if mode not in ("S", "C"):
            raise ValueError("mode must be 'S' or 'C'")
        if mode == "S" and icao_id is None:
            raise ValueError("Mode S transponders need an icao_id")
        self.icao_id = icao_id
        self.mode = mode
        self.state_fn = state_fn

    def position(self, t: float) -> np.ndarray:
        return own_position_3d(self.state_fn(t))

    def altitude_ft(self, t: float) -> float:
        return m_to_ft(self.state_fn(t).altitude_msl)

    def _reply(self, kind: str, t: float, icao_id: Optional[int]) -> SurveillanceMessage:
        pos = tuple(self.position(t))
        return SurveillanceMessage(
            kind=kind, timestamp=t, icao_id=icao_id, altitude=self.altitude_ft(t),
            position=pos, claimed_position=pos,
        )

    def respond_mode_c(self, t: float, received_power_dbm: float) -> Optional[SurveillanceMessage]:
        if self.mode == "S" or received_power_dbm < DEFAULT_SENSITIVITY_DBM:
            return None
        return self._reply(MODE_C_REPLY, t, None)


class Channel:
    """Mode C responders and the replies of their whisper-shout cycles."""

    def __init__(self):
        self.log: List[SurveillanceMessage] = []
        self.responders: List = []

    def register(self, responder) -> None:
        self.responders.append(responder)

    def publish(self, msg: SurveillanceMessage) -> None:
        self.log.append(msg)


class TcasUnit:
    """Intruder tracker in an alerting mode, with the Mode C whisper-shout."""

    def __init__(
        self,
        thresholds: AdvisoryThresholds = AdvisoryThresholds(),
        mode: str = TA_RA,
        rng: Optional[np.random.Generator] = None,
    ):
        if mode not in (STANDBY, TA_ONLY, TA_RA):
            raise ValueError(f"unknown mode {mode!r}")
        self.thresholds = thresholds
        self.mode = mode
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.tracks: Dict[object, IntruderTrack] = {}

    # -- surveillance -----------------------------------------------------

    def _update_track(
        self,
        key,
        t: float,
        own_pos: Sequence[float],
        own_alt_ft: float,
        claimed: Sequence[float],
        reply_alt_ft: float,
        bearing_noise_deg: float,
        icao_id: Optional[int],
    ) -> Optional[IntruderTrack]:
        """The track of ``key`` after this reply: a new one for a new key,
        else the live track updated in place.  None for a zero range."""

        slant = slant_range(own_pos, claimed)
        if slant <= 0:
            return None
        bearing = _bearing_between(own_pos, claimed)
        if bearing_noise_deg:
            bearing = (bearing + float(self.rng.uniform(-bearing_noise_deg, bearing_noise_deg))) % 360.0
        track = self.tracks.get(key)
        if track is None:
            track = IntruderTrack(
                icao_id=icao_id,
                slant_range=slant,
                bearing=bearing,
                relative_altitude=reply_alt_ft - own_alt_ft,
                closure_rate=0.0,
                last_update=t,
            )
            self.tracks[key] = track
            return track
        # A duplicate address farther out than the live track is ignored.
        if icao_id is not None and slant > track.slant_range * 1.5 and t == track.last_update:
            return track
        dt = t - track.last_update
        if dt > 0:
            track.closure_rate = (track.slant_range - slant) / dt
        track.slant_range = slant
        track.bearing = bearing
        track.relative_altitude = reply_alt_ft - own_alt_ft
        track.last_update = t
        return track

    def drop_stale(self, t: float) -> None:
        stale = [k for k, tr in self.tracks.items() if t - tr.last_update > TRACK_STALENESS_S]
        for k in stale:
            del self.tracks[k]

    def mode_c_cycle(
        self,
        own: AircraftState,
        power_steps: Sequence[float],
        channel: Channel,
        t: float,
    ) -> None:
        """Whisper-shout all-call round: stepped power with suppression so
        each in-range Mode C aircraft replies exactly once per full cycle."""

        if list(power_steps) != sorted(power_steps) or len(set(power_steps)) != len(power_steps):
            raise ValueError("power_steps must be strictly increasing")
        if self.mode == STANDBY:
            return
        own_pos = own_position_3d(own)
        own_alt_ft = m_to_ft(own.altitude_msl)
        suppressed: set = set()

        for step_power in power_steps:
            for responder in channel.responders:
                if getattr(responder, "mode", None) != "C":
                    continue
                if id(responder) in suppressed:
                    continue
                distance = float(np.linalg.norm(responder.position(t) - own_pos))
                received = step_power - free_space_path_loss_db(distance)
                reply = responder.respond_mode_c(t, received)
                if reply is None:
                    continue
                channel.publish(reply)
                suppressed.add(id(responder))
                self._update_track(
                    f"anon-{id(responder)}", t, own_pos, own_alt_ft,
                    reply.claimed_position, reply.altitude,
                    bearing_noise_deg=MODE_C_BEARING_ERROR_DEG, icao_id=None,
                )
        self.drop_stale(t)


def alert_levels(tau, relative_altitude_ft, ta_ra, thresholds: AdvisoryThresholds):
    """Whether an intruder at ``tau`` s and ``relative_altitude_ft`` ft raises
    a TA and an RA, the RA only when ``ta_ra`` (the unit is in TA/RA mode).
    Floats give bools; arrays (and array flags) give bool arrays, element by
    element.  `AdvisoryThresholds` keeps the RA region inside the TA region,
    so an RA is always a TA.  A NaN tau raises neither."""

    ta = (tau <= thresholds.tau_ta_s) & (abs(relative_altitude_ft) <= thresholds.ta_band_ft)
    ra = ta_ra & (tau <= thresholds.tau_ra_s) & (abs(relative_altitude_ft) <= thresholds.ra_band_ft)
    return ta, ra


def advise(
    tracks: Sequence[IntruderTrack],
    own: Optional[AircraftState],
    mode: str,
    thresholds: AdvisoryThresholds = AdvisoryThresholds(),
    t: float = 0.0,
) -> Optional[Advisory]:
    """Highest-priority advisory for the current track set, or None: that of
    the advising track of least tau (the first on a tie), by `alert_levels`.
    Nothing in Standby, and no RA outside TA/RA mode.  RA sense is opposite
    the intruder's relative position.  The tracks are relative to the own
    aircraft, so ``own`` is not read.
    """

    if mode == STANDBY:
        return None
    best: Optional[Advisory] = None
    best_tau = math.inf
    for track in tracks:
        tau, rel = track.tau(), track.relative_altitude
        ta, ra = alert_levels(tau, rel, mode == TA_RA, thresholds)
        if ta and tau < best_tau:
            best = resolution_advisory(rel, t) if ra else Advisory(level="TA", time=t)
            best_tau = tau
    return best


def resolution_advisory(relative_altitude: float, t: float) -> Advisory:
    """The RA at t against an intruder ``relative_altitude`` ft above: its
    sense is opposite the intruder."""

    if relative_altitude < 0:
        sense, rate = "CLIMB", RA_RATE_FPM
    elif relative_altitude > 0:
        sense, rate = "DESCEND", -RA_RATE_FPM
    else:
        sense, rate = "HOLD_VS", 0.0
    return Advisory(level="RA", time=t, ra_sense=sense, commanded_rate=rate)


class FalseIntruderInjector:
    """Attacker replying for a nonexistent aircraft converging on the victim.
    Interrogated like a Mode S transponder.

    ``target_fn`` gives the victim's state at t for the methods that take only
    a time; a surveillance cycle passes the victim's position instead.
    `active` compares ``target_agl_fn`` at t (ft; by default, the altitude
    of ``target_fn``'s state) with the activation floor, so a caller that
    always passes the position may leave ``target_fn`` out if it gives
    ``target_agl_fn``.  A caller that asks for no claim may leave both out.
    The attacker's site, ``attacker_position`` (m), is held as floats."""

    def __init__(
        self,
        plan: FalseIntruderPlan,
        rng: np.random.Generator,
        target_fn: Optional[Callable[[float], AircraftState]] = None,
        target_agl_fn: Optional[Callable[[float], float]] = None,
        attacker_position: Sequence[float] = (0.0, 0.0, 0.0),
    ):
        self.plan = plan
        self.rng = rng
        self.target_fn = target_fn
        self.target_agl_fn = target_agl_fn
        self.attacker_position = tuple(float(v) for v in attacker_position)
        self.icao_id: Optional[int] = None
        self.episode_start: Optional[float] = None
        self._bearing = plan.approach_bearing
        self._speed = plan.approach_speed

    # -- episode control --------------------------------------------------

    def active(self, t: float) -> bool:
        if self.episode_start is None:
            return False
        agl_ft = (self.target_agl_fn(t) if self.target_agl_fn is not None
                  else m_to_ft(self.target_fn(t).altitude_msl))
        return agl_ft > self.plan.activation_floor

    def start_episode(self, t: float) -> None:
        """Begin a new encounter with per-encounter bearing/speed variation,
        each ``lo + (hi - lo) * random()``: `Generator.uniform` to the bit."""

        self.episode_start = t
        plan, random = self.plan, self.rng.random
        bearing, speed = plan.bearing_jitter_deg, plan.speed_jitter_mps
        self._bearing = (plan.approach_bearing + (-bearing + (bearing + bearing) * random())) % 360.0
        self._speed = max(MIN_CLOSURE_MPS, plan.approach_speed + (-speed + (speed + speed) * random()))
        self.icao_id = int(self.rng.integers(0, 2**24))

    # -- virtual intruder geometry ---------------------------------------

    def _target_position(self, t: float) -> Position:
        state = self.target_fn(t)
        x, y = state.ground_position
        return x, y, state.altitude_msl

    def _claimed_position(self, t: float, target: Position) -> Position:
        """Claimed 3-D position at t for a target at ``target``: the target's
        position plus the offset at the claimed range and bearing."""

        x, y, altitude = target
        r = max(CLAIM_FLOOR_M,
                self._speed * self.plan.start_tau_s - self._speed * (t - self.episode_start))
        theta = math.radians(self._bearing)
        return (
            x + r * math.cos(theta),
            y + r * math.sin(theta),
            altitude + ft_to_m(self.plan.vertical_offset),
        )

    def floor_cycle(self) -> int:
        """The encounter's last surveillance cycle, in whole seconds from its
        start: the first at which the claimed range sits at its floor.  The
        claim stops closing there, so no later cycle can raise an advisory."""

        return max(0, math.ceil(self.plan.start_tau_s - CLAIM_FLOOR_M / self._speed))

    # -- responder interface ----------------------------------------------

    def claim(self, t: float, interrogator: Optional[Position] = None) -> Optional[Claim]:
        """The content of the reply at t to the target interrogating from
        ``interrogator`` (by default, the position ``target_fn`` gives); None
        while inactive."""

        if not self.active(t):
            return None
        target = self._target_position(t) if interrogator is None else interrogator
        altitude = m_to_ft(target[2]) + self.plan.vertical_offset
        return self.icao_id, altitude, self._claimed_position(t, target)

    def reply(self, t: float, claim: Claim) -> SurveillanceMessage:
        """The reply message at t carrying ``claim``, sent from the attacker's
        site."""

        icao_id, altitude, claimed = claim
        return SurveillanceMessage(
            kind=MODE_S_REPLY, timestamp=t, origin="adversarial", icao_id=icao_id,
            altitude=altitude, position=self.attacker_position,
            claimed_position=claimed,
        )

    def respond_mode_s(self, t: float) -> Optional[SurveillanceMessage]:
        claim = self.claim(t)
        return None if claim is None else self.reply(t, claim)
