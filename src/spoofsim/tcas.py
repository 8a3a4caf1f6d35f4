"""Mode C / Mode S surveillance, TA/RA advisory logic and false-intruder injection.

The surveillance channel is a per-trial ordered queue: transponder-equipped
aircraft (and the attacker) register as responders, the interrogating unit
drives one cycle per second.  Replies carry the position the responder wants
the victim to reconstruct (`claimed_position`); the physical emission point
(`position`) is logged separately so time-of-arrival checks can be run over
the same message stream.  Bit-level 1030/1090 MHz framing is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .world import AircraftState
from .units import ft_to_m, m_to_ft

# Message kinds: only transmissions whose content a receiver consumes are
# modelled; interrogations, all-calls and suppressions are implicit in the cycles.
SQUITTER = "SQUITTER"
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


def free_space_path_loss_db(distance_m: float) -> float:
    return 20.0 * math.log10(4.0 * math.pi * max(distance_m, 1.0) / _WAVELENGTH_M)


@dataclass(frozen=True)
class SurveillanceMessage:
    kind: str
    timestamp: float
    origin: str = "genuine"                    # "genuine" | "adversarial"
    icao_id: Optional[int] = None              # 24-bit, Mode S only
    altitude: Optional[float] = None           # ft, replies
    tx_power: float = MAX_TX_POWER_DBM         # dBm
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
            "tx_power_dbm": self.tx_power,
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
    staleness_s: float = 6.0
    ra_rate_fpm: float = 1500.0


@dataclass
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


class Transponder:
    """Genuine aircraft transponder (Mode S or Mode C)."""

    def __init__(
        self,
        icao_id: Optional[int],
        mode: str,
        state_fn: Callable[[float], AircraftState],
        tx_power: float = MAX_TX_POWER_DBM,
        sensitivity: float = DEFAULT_SENSITIVITY_DBM,
    ):
        if mode not in ("S", "C"):
            raise ValueError("mode must be 'S' or 'C'")
        if mode == "S" and icao_id is None:
            raise ValueError("Mode S transponders need an icao_id")
        self.icao_id = icao_id
        self.mode = mode
        self.state_fn = state_fn
        self.tx_power = tx_power
        self.sensitivity = sensitivity

    def position(self, t: float) -> np.ndarray:
        return own_position_3d(self.state_fn(t))

    def altitude_ft(self, t: float) -> float:
        return m_to_ft(self.state_fn(t).altitude_msl)

    def squitter(self, t: float) -> Optional[SurveillanceMessage]:
        if self.mode != "S":
            return None
        pos = self.position(t)
        return SurveillanceMessage(
            kind=SQUITTER, timestamp=t, icao_id=self.icao_id,
            tx_power=self.tx_power, position=tuple(pos), claimed_position=tuple(pos),
        )

    def respond_mode_s(self, t: float) -> SurveillanceMessage:
        pos = self.position(t)
        return SurveillanceMessage(
            kind=MODE_S_REPLY, timestamp=t, icao_id=self.icao_id,
            altitude=self.altitude_ft(t), tx_power=self.tx_power,
            position=tuple(pos), claimed_position=tuple(pos),
        )

    def respond_mode_c(self, t: float, received_power_dbm: float) -> Optional[SurveillanceMessage]:
        if self.mode == "S":
            return None
        if received_power_dbm < self.sensitivity:
            return None
        pos = self.position(t)
        return SurveillanceMessage(
            kind=MODE_C_REPLY, timestamp=t, altitude=self.altitude_ft(t),
            tx_power=self.tx_power, position=tuple(pos), claimed_position=tuple(pos),
        )


class Channel:
    """Per-trial ordered message queue with registered responders."""

    def __init__(self):
        self.log: List[SurveillanceMessage] = []
        self.responders: List = []

    def register(self, responder) -> None:
        self.responders.append(responder)

    def publish(self, msg: SurveillanceMessage) -> None:
        self.log.append(msg)

    def squitters(self, t: float) -> List[SurveillanceMessage]:
        out = []
        for r in self.responders:
            msg = r.squitter(t)
            if msg is not None:
                self.publish(msg)
                out.append(msg)
        return out


class TcasUnit:
    """Intruder tracker plus TA/RA advisory logic with the mode switch."""

    def __init__(
        self,
        thresholds: AdvisoryThresholds = AdvisoryThresholds(),
        mode: str = TA_RA,
        rng: Optional[np.random.Generator] = None,
        mode_c_bearing_error_deg: float = 10.0,
    ):
        if mode not in (STANDBY, TA_ONLY, TA_RA):
            raise ValueError(f"unknown mode {mode!r}")
        self.thresholds = thresholds
        self.mode = mode
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.mode_c_bearing_error_deg = mode_c_bearing_error_deg
        self.tracks: Dict[object, IntruderTrack] = {}

    def set_mode(self, mode: str) -> None:
        if mode not in (STANDBY, TA_ONLY, TA_RA):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode

    # -- surveillance -----------------------------------------------------

    def _update_track(
        self,
        key,
        t: float,
        own_pos: np.ndarray,
        own_alt_ft: float,
        claimed: np.ndarray,
        reply_alt_ft: float,
        bearing_noise_deg: float,
        icao_id: Optional[int],
    ) -> Optional[IntruderTrack]:
        slant = float(np.linalg.norm(claimed - own_pos))
        if slant <= 0:
            return None
        bearing = _bearing_between(own_pos, claimed)
        if bearing_noise_deg:
            bearing = (bearing + float(self.rng.uniform(-bearing_noise_deg, bearing_noise_deg))) % 360.0
        prev = self.tracks.get(key)
        if prev is not None:
            # A duplicate address farther out than the live track is ignored.
            if icao_id is not None and slant > prev.slant_range * 1.5 and t == prev.last_update:
                return prev
            dt = t - prev.last_update
            closure = (prev.slant_range - slant) / dt if dt > 0 else prev.closure_rate
        else:
            closure = 0.0
        track = IntruderTrack(
            icao_id=icao_id,
            slant_range=slant,
            bearing=bearing,
            relative_altitude=reply_alt_ft - own_alt_ft,
            closure_rate=closure,
            last_update=t,
        )
        self.tracks[key] = track
        return track

    def drop_stale(self, t: float) -> None:
        stale = [k for k, tr in self.tracks.items() if t - tr.last_update > self.thresholds.staleness_s]
        for k in stale:
            del self.tracks[k]

    def mode_s_cycle(self, own: AircraftState, channel: Channel, t: float) -> None:
        """One interrogation round: listen for squitters, interrogate each
        known id once, consume replies into track updates."""

        if self.mode == STANDBY:
            return
        own_pos = own_position_3d(own)
        own_alt_ft = m_to_ft(own.altitude_msl)

        heard = {m.icao_id for m in channel.squitters(t) if m.icao_id is not None}
        known = heard | {k for k in self.tracks if isinstance(k, int)}
        for icao in sorted(known):
            for responder in channel.responders:
                if getattr(responder, "icao_id", None) != icao:
                    continue
                reply = responder.respond_mode_s(t)
                if reply is None:
                    continue
                channel.publish(reply)
                if reply.claimed_position is None or reply.altitude is None:
                    continue
                self._update_track(
                    icao, t, own_pos, own_alt_ft,
                    np.array(reply.claimed_position), reply.altitude,
                    bearing_noise_deg=0.0, icao_id=icao,
                )
        self.drop_stale(t)

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
                    np.array(reply.claimed_position), reply.altitude,
                    bearing_noise_deg=self.mode_c_bearing_error_deg, icao_id=None,
                )
        self.drop_stale(t)

    # -- advisory logic ---------------------------------------------------

    def advise(self, own: AircraftState, t: float) -> Optional[Advisory]:
        return advise(list(self.tracks.values()), own, self.mode, self.thresholds, t)


def advise(
    tracks: Sequence[IntruderTrack],
    own: AircraftState,
    mode: str,
    thresholds: AdvisoryThresholds = AdvisoryThresholds(),
    t: float = 0.0,
) -> Optional[Advisory]:
    """Highest-priority advisory for the current track set, or None.

    RA when tau and vertical proximity are inside the RA thresholds (TA/RA
    mode only); TA inside the TA thresholds (TA/RA and TA-Only); nothing in
    Standby.  RA sense is opposite the intruder's relative position.
    """

    if mode == STANDBY:
        return None
    best: Optional[Advisory] = None
    best_tau = math.inf
    for track in tracks:
        tau = track.tau()
        if tau >= best_tau:
            continue
        rel = track.relative_altitude
        if (
            mode == TA_RA
            and tau <= thresholds.tau_ra_s
            and abs(rel) <= thresholds.ra_band_ft
        ):
            if rel < 0:
                sense, rate = "CLIMB", thresholds.ra_rate_fpm
            elif rel > 0:
                sense, rate = "DESCEND", -thresholds.ra_rate_fpm
            else:
                sense, rate = "HOLD_VS", 0.0
            best = Advisory(level="RA", time=t, ra_sense=sense,
                            commanded_rate=rate)
            best_tau = tau
        elif tau <= thresholds.tau_ta_s and abs(rel) <= thresholds.ta_band_ft:
            best = Advisory(level="TA", time=t)
            best_tau = tau
    return best


class FalseIntruderInjector:
    """Attacker generating squitters and replies for a nonexistent aircraft
    converging on the victim.  Registers on the channel like a transponder."""

    def __init__(
        self,
        plan: FalseIntruderPlan,
        rng: np.random.Generator,
        target_fn: Callable[[float], AircraftState],
        target_agl_fn: Optional[Callable[[float], float]] = None,
        attacker_position: Sequence[float] = (0.0, 0.0, 0.0),
    ):
        self.plan = plan
        self.rng = rng
        self.target_fn = target_fn
        self.target_agl_fn = target_agl_fn or (lambda t: m_to_ft(target_fn(t).altitude_msl))
        self.attacker_position = np.asarray(attacker_position, dtype=float)
        self.icao_id: Optional[int] = None
        self.ras_observed = 0
        self.episode_start: Optional[float] = None
        self._bearing = plan.approach_bearing
        self._speed = plan.approach_speed

    # -- episode control --------------------------------------------------

    def budget_exhausted(self) -> bool:
        return self.ras_observed >= self.plan.alert_budget

    def active(self, t: float) -> bool:
        if self.budget_exhausted() or self.episode_start is None:
            return False
        return self.target_agl_fn(t) > self.plan.activation_floor

    def start_episode(self, t: float) -> None:
        """Begin a new encounter with per-encounter bearing/speed variation."""

        self.episode_start = t
        self._bearing = (
            self.plan.approach_bearing
            + float(self.rng.uniform(-self.plan.bearing_jitter_deg, self.plan.bearing_jitter_deg))
        ) % 360.0
        self._speed = max(
            30.0,
            self.plan.approach_speed
            + float(self.rng.uniform(-self.plan.speed_jitter_mps, self.plan.speed_jitter_mps)),
        )
        self.icao_id = int(self.rng.integers(0, 2**24))

    def end_episode(self) -> None:
        self.episode_start = None

    def observe_advisory(self, advisory: Optional[Advisory]) -> None:
        if advisory is not None and advisory.level == "RA":
            self.ras_observed += 1

    # -- virtual intruder geometry ---------------------------------------

    def intruder_position(self, t: float) -> np.ndarray:
        own = own_position_3d(self.target_fn(t))
        r = max(50.0, self._speed * self.plan.start_tau_s - self._speed * (t - self.episode_start))
        theta = math.radians(self._bearing)
        offset = np.array([
            r * math.cos(theta),
            r * math.sin(theta),
            ft_to_m(self.plan.vertical_offset),
        ])
        return own + offset

    def intruder_altitude_ft(self, t: float) -> float:
        return m_to_ft(self.target_fn(t).altitude_msl) + self.plan.vertical_offset

    # -- responder interface ----------------------------------------------

    def squitter(self, t: float) -> Optional[SurveillanceMessage]:
        if not self.active(t):
            return None
        return SurveillanceMessage(
            kind=SQUITTER, timestamp=t, origin="adversarial", icao_id=self.icao_id,
            position=tuple(self.attacker_position),
            claimed_position=tuple(self.intruder_position(t)),
        )

    def respond_mode_s(self, t: float) -> Optional[SurveillanceMessage]:
        if not self.active(t):
            return None
        return SurveillanceMessage(
            kind=MODE_S_REPLY, timestamp=t, origin="adversarial", icao_id=self.icao_id,
            altitude=self.intruder_altitude_ft(t),
            position=tuple(self.attacker_position),
            claimed_position=tuple(self.intruder_position(t)),
        )
