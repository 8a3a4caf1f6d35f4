"""Airfield-side integrity checks for transmitted signals.

A time-of-arrival consistency test compares the arrival-time differences a
claimed emitter position predicts at a set of ground sensors against the
differences actually observed.  It is a pure function over logged
observations, so verdicts are replayable.  Sensor clocks are taken as
calibrated: a timestamp is the emission time plus the propagation delay, plus
any jitter.  A residual that is not finite (distances beyond float range)
decides nothing.
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


def _sensor_positions(sensors: Sequence[GroundSensor]) -> np.ndarray:
    """The sensors' positions, shape (K, 3)."""

    return np.array([s.position for s in sensors], dtype=float).reshape(-1, 3)


def _offsets(positions: np.ndarray, sensor_positions: np.ndarray) -> np.ndarray:
    """Propagation delays, s, from each point of ``positions`` (shape
    (..., 3)) to each sensor: shape (..., K).  Each distance is the square
    root of a vector-vector `np.matmul`, which gives `np.linalg.norm`'s bits;
    `einsum` and a plain sum of squares round differently."""

    d = sensor_positions - positions[..., None, :]
    return np.sqrt(np.matmul(d[..., None, :], d[..., :, None])[..., 0, 0]) / SPEED_OF_LIGHT


def arrival_times(
    true_positions: np.ndarray,
    emission_times: np.ndarray,
    sensors: Sequence[GroundSensor],
    rng: Optional[np.random.Generator],
    clock_jitter_s: float,
) -> np.ndarray:
    """Sensor timestamps, shape (M, K), for M emissions from the points
    ``true_positions`` (shape (M, 3)) at ``emission_times`` (shape (M,)).
    The jitter is one draw per (emission, sensor) in row order, the order
    of one draw per timestamp; with no jitter nothing is drawn."""

    with np.errstate(over="ignore", invalid="ignore"):
        times = np.asarray(emission_times, dtype=float)[:, None] + _offsets(
            np.asarray(true_positions, dtype=float), _sensor_positions(sensors))
    if clock_jitter_s > 0:
        if rng is None:
            raise ValueError("rng required when clock_jitter_s > 0")
        times += rng.normal(0.0, clock_jitter_s, size=times.shape)
    return times


def residuals_m(
    claimed_positions: np.ndarray,
    times: np.ndarray,
    sensors: Sequence[GroundSensor],
) -> np.ndarray:
    """RMS mismatch, m, between the observed and predicted pairwise
    arrival-time differences of M messages: ``times`` (shape (M, K)) as
    `arrival_times` gives them, against the points the messages claim
    (shape (M, 3)).  Shape (M,); NaN or inf where the distances overflow."""

    observed = np.asarray(times, dtype=float)
    i, j = np.array(list(itertools.combinations(range(len(sensors)), 2)),
                    dtype=np.intp).reshape(-1, 2).T
    with np.errstate(over="ignore", invalid="ignore"):
        predicted = _offsets(np.asarray(claimed_positions, dtype=float),
                             _sensor_positions(sensors))
        diffs = (observed[:, i] - observed[:, j]) - (predicted[:, i] - predicted[:, j])
        return SPEED_OF_LIGHT * np.sqrt(np.mean(np.square(diffs), axis=1))


def classify(residual: float, threshold_m: float, subject: str) -> IntegrityVerdict:
    """The verdict on a message whose TOA residual is ``residual`` m."""

    if not math.isfinite(residual):
        return IntegrityVerdict(
            subject=subject, residual=residual, flag=UNDETERMINED,
            reason="TOA residual not finite: distances beyond float range",
        )
    if residual > threshold_m:
        return IntegrityVerdict(
            subject=subject, residual=residual, flag=SUSPECT,
            reason=f"TOA residual {residual:.0f} m exceeds {threshold_m:.0f} m",
        )
    return IntegrityVerdict(
        subject=subject, residual=residual, flag=CLEAN,
        reason="arrival pattern consistent with claimed position",
    )


def toa_residual_m(
    claimed_position: Sequence[float],
    arrivals: Sequence[Tuple[GroundSensor, float]],
) -> float:
    """RMS mismatch, in metres, between observed and predicted pairwise
    arrival-time differences for the claimed emitter position."""

    sensors = [s for s, _ in arrivals]
    times = np.array([[t for _, t in arrivals]], dtype=float)
    return float(residuals_m(np.asarray(claimed_position, dtype=float)[None], times, sensors)[0])


def toa_consistency(
    claimed_position: Sequence[float],
    arrivals: Sequence[Tuple[GroundSensor, float]],
) -> IntegrityVerdict:
    """Flag a message whose arrival-time pattern contradicts its claimed
    origin, at `DEFAULT_RESIDUAL_THRESHOLD_M`."""

    if len(arrivals) < MIN_SENSORS:
        return IntegrityVerdict(
            subject="message", residual=math.nan, flag=UNDETERMINED,
            reason=f"only {len(arrivals)} arrivals, need >= {MIN_SENSORS}",
        )
    return classify(toa_residual_m(claimed_position, arrivals),
                    DEFAULT_RESIDUAL_THRESHOLD_M, "message")


def observe_arrivals(
    true_position: Sequence[float],
    sensors: Sequence[GroundSensor],
    rng: Optional[np.random.Generator] = None,
    clock_jitter_s: float = 0.0,
) -> List[Tuple[GroundSensor, float]]:
    """Synthesise sensor timestamps for an emission at t = 0 from a known
    true point."""

    times = arrival_times(np.asarray(true_position, dtype=float)[None], [0.0],
                          sensors, rng, clock_jitter_s)
    return list(zip(sensors, times[0].tolist()))


def default_sensor_grid(extent_m: float = 20_000.0) -> List[GroundSensor]:
    """Four non-collinear sensors around the airfield."""

    e = extent_m
    return [
        GroundSensor("s0", (-e, -e, 10.0)),
        GroundSensor("s1", (e, -0.7 * e, 15.0)),
        GroundSensor("s2", (-0.4 * e, e, 5.0)),
        GroundSensor("s3", (0.8 * e, 0.9 * e, 20.0)),
    ]
