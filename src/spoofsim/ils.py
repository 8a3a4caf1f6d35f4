"""Glideslope signal model, PAPI cross-check and the displaced-transmitter attack.

Lobe physics is abstracted to a linear DDM vs angular deviation from the
captured transmitter's path, full scale at +/-0.7 deg.  The receiver captures
the strongest transmitter; a rogue transmitter displaced along the runway at
the same path angle produces a path parallel to, and above, the genuine one.
The localizer is modelled as always centred: the attack leaves lateral
guidance untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .world import AircraftState, RunwayModel

#: Angular deviation at full-scale DDM / 2 dots.
FULL_SCALE_DEG = 0.7
#: DDM at full scale (industry-typical glideslope value).
FULL_SCALE_DDM = 0.175

#: PAPI bands, degrees: below the first edge 0 whites, above the last 4.
PAPI_BAND_EDGES_DEG = (2.5, 2.8, 3.2, 3.5)
#: Glideslope reception range, m.
MAX_RANGE_M = 50_000.0


@dataclass(frozen=True)
class GlideslopeTx:
    antenna_position: float      # m along-track from threshold (positive = into runway)
    path_angle: float = 3.0      # degrees
    tx_power: float = 5.0        # W
    legitimacy: str = "genuine"  # "genuine" | "adversarial"

    def __post_init__(self) -> None:
        if not 0 < self.path_angle < 10:
            raise ValueError("path_angle must be in (0, 10) degrees")
        if self.tx_power <= 0:
            raise ValueError("tx_power must be > 0")
        if self.legitimacy not in ("genuine", "adversarial"):
            raise ValueError(f"unknown legitimacy {self.legitimacy!r}")


@dataclass(frozen=True)
class GsIndication:
    ddm: float
    deviation_dots: float        # -2 .. +2, negative = below path (fly up)
    captured_source: Optional[GlideslopeTx]
    valid: bool


@dataclass(frozen=True)
class PapiIndication:
    whites: int   # 0..4 (the rest of the four lights show red)


def _received_power(tx: GlideslopeTx, distance: float) -> float:
    # Free-space 1/d^2; only the ordering matters for capture.
    return tx.tx_power / max(distance, 1.0) ** 2


def _angle_to(aircraft: AircraftState, tx: GlideslopeTx, runway: RunwayModel) -> Tuple[float, float]:
    """(elevation angle deg, horizontal distance m) from transmitter to aircraft."""

    antenna_along = runway.threshold_position + tx.antenna_position
    dist = antenna_along - aircraft.along_track
    height = aircraft.altitude_msl - runway.elevation
    if dist <= 0:
        raise ValueError("aircraft is past the transmitter")
    return math.degrees(math.atan2(height, dist)), dist


def receive(
    aircraft: AircraftState,
    transmitters: Sequence[GlideslopeTx],
    runway: RunwayModel,
) -> GsIndication:
    """Glideslope indication from the strongest in-range transmitter.

    DDM is linear in angular deviation within +/-0.7 deg and saturates beyond;
    negative (fly-up) when the aircraft is below the captured path.  Power
    ties break toward the genuine transmitter.
    """

    in_range = []
    for tx in transmitters:
        angle, dist = _angle_to(aircraft, tx, runway)
        if dist <= MAX_RANGE_M:
            in_range.append((tx, angle, dist))
    if not in_range:
        return GsIndication(ddm=0.0, deviation_dots=0.0, captured_source=None, valid=False)

    def capture_key(item):
        tx, _angle, dist = item
        return (_received_power(tx, dist), 1 if tx.legitimacy == "genuine" else 0)

    tx, angle, _dist = max(in_range, key=capture_key)
    deviation = angle - tx.path_angle  # negative = below path
    unit = min(1.0, max(-1.0, deviation / FULL_SCALE_DEG))
    return GsIndication(
        ddm=FULL_SCALE_DDM * unit,
        deviation_dots=2.0 * unit,
        captured_source=tx,
        valid=True,
    )


def papi(
    aircraft: AircraftState,
    runway: RunwayModel,
    nominal_angle: float = 3.0,
) -> PapiIndication:
    """Whites count from the approach angle to the touchdown zone.

    The bands give 2 whites on a 2.8-3.2 deg approach; the nominal angle
    shifts them so the installation matches a non-3-deg glideslope.
    """

    if aircraft.along_track >= runway.threshold_position:
        raise ValueError("aircraft is behind the runway threshold")
    dist = runway.touchdown_zone_position - aircraft.along_track
    height = aircraft.altitude_msl - runway.elevation
    angle = math.degrees(math.atan2(height, dist))
    shift = nominal_angle - 3.0
    whites = sum(angle > edge + shift for edge in PAPI_BAND_EDGES_DEG)
    return PapiIndication(whites=whites)


def false_path_height_offset(shift_m: float, angle_deg: float) -> float:
    """Constant height of a displaced equal-angle path above the genuine one."""

    return shift_m * math.tan(math.radians(angle_deg))
