"""Airfield-side integrity checks for transmitted signals.

A time-of-arrival consistency test compares the arrival-time differences a
claimed emitter position predicts at a set of ground sensors against the
differences actually observed.  It is a pure function over logged
observations, so verdicts are replayable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .units import SPEED_OF_LIGHT

CLEAN = "CLEAN"
SUSPECT = "SUSPECT"
UNDETERMINED = "UNDETERMINED"

#: Default mismatch threshold in metres of equivalent path difference.
DEFAULT_RESIDUAL_THRESHOLD_M = 500.0

MIN_SENSORS = 4


@dataclass(frozen=True)
class GroundSensor:
    sensor_id: str
    position: Tuple[float, float, float]   # m (x, y, elevation)
    clock_bias: float = 0.0                # s, calibrated out before use


@dataclass(frozen=True)
class IntegrityVerdict:
    subject: str
    residual: float     # m of equivalent path mismatch
    flag: str           # CLEAN | SUSPECT | UNDETERMINED
    reason: str

    def to_record(self) -> dict:
        return {
            "subject": self.subject,
            "residual_m": self.residual,
            "flag": self.flag,
            "reason": self.reason,
        }


def predicted_arrival_offsets(
    position: Sequence[float], sensors: Sequence[GroundSensor]
) -> np.ndarray:
    p = np.asarray(position, dtype=float)
    return np.array(
        [np.linalg.norm(np.asarray(s.position) - p) / SPEED_OF_LIGHT for s in sensors]
    )


def toa_residual_m(
    claimed_position: Sequence[float],
    arrivals: Sequence[Tuple[GroundSensor, float]],
) -> float:
    """RMS mismatch, in metres, between observed and predicted pairwise
    arrival-time differences for the claimed emitter position."""

    sensors = [s for s, _ in arrivals]
    observed = np.array([t - s.clock_bias for s, t in arrivals])
    predicted = predicted_arrival_offsets(claimed_position, sensors)
    diffs = []
    for i, j in itertools.combinations(range(len(sensors)), 2):
        obs_dt = observed[i] - observed[j]
        pred_dt = predicted[i] - predicted[j]
        diffs.append(obs_dt - pred_dt)
    return float(SPEED_OF_LIGHT * math.sqrt(np.mean(np.square(diffs))))


def toa_consistency(
    claimed_position: Sequence[float],
    arrivals: Sequence[Tuple[GroundSensor, float]],
    threshold_m: float = DEFAULT_RESIDUAL_THRESHOLD_M,
    subject: str = "message",
) -> IntegrityVerdict:
    """Flag a message whose arrival-time pattern contradicts its claimed origin."""

    if len(arrivals) < MIN_SENSORS:
        return IntegrityVerdict(
            subject=subject, residual=math.nan, flag=UNDETERMINED,
            reason=f"only {len(arrivals)} arrivals, need >= {MIN_SENSORS}",
        )
    residual = toa_residual_m(claimed_position, arrivals)
    if residual > threshold_m:
        return IntegrityVerdict(
            subject=subject, residual=residual, flag=SUSPECT,
            reason=f"TOA residual {residual:.0f} m exceeds {threshold_m:.0f} m",
        )
    return IntegrityVerdict(
        subject=subject, residual=residual, flag=CLEAN,
        reason="arrival pattern consistent with claimed position",
    )


def observe_arrivals(
    true_position: Sequence[float],
    sensors: Sequence[GroundSensor],
    rng: Optional[np.random.Generator] = None,
    clock_jitter_s: float = 0.0,
    emission_time: float = 0.0,
) -> List[Tuple[GroundSensor, float]]:
    """Synthesise sensor timestamps for an emission from a known true point."""

    offsets = predicted_arrival_offsets(true_position, sensors)
    arrivals = []
    for sensor, dt in zip(sensors, offsets):
        t = emission_time + dt + sensor.clock_bias
        if clock_jitter_s > 0:
            if rng is None:
                raise ValueError("rng required when clock_jitter_s > 0")
            t += float(rng.normal(0.0, clock_jitter_s))
        arrivals.append((sensor, t))
    return arrivals


def default_sensor_grid(extent_m: float = 20_000.0) -> List[GroundSensor]:
    """Four non-collinear sensors around the airfield."""

    e = extent_m
    return [
        GroundSensor("s0", (-e, -e, 10.0)),
        GroundSensor("s1", (e, -0.7 * e, 15.0)),
        GroundSensor("s2", (-0.4 * e, e, 5.0)),
        GroundSensor("s3", (0.8 * e, 0.9 * e, 20.0)),
    ]
