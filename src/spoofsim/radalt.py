"""FMCW radio-altimeter signal model and the ramp-spoofing attack.

The altimeter ranges the ground from the round-trip delay of the strongest
echo in each sweep (the beat frequency is sweep slope times delay, so ranging
on either gives the same height, and the band itself does not enter);
`range_height` ranges one delay, `measure` picks the echo first.  The
attacker injects one delay per sweep, shrinking it so the indicated height
descends at a chosen apparent rate, clipped at the ground and held after the
ramp's duration.  Where the spoofed echo is a sweep's only return, as in the
GPWS fine loop, that delay is ranged directly: `ramp_heights` gives those
heights for arrays of ramps and read times at once, computing only the
sweeps read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .units import SPEED_OF_LIGHT


class NoGroundReturn(Exception):
    """No echo received in the current sweep; indicated AGL is invalid."""


class SweepConfig:
    """The altimeter's sweep; no config field sets it."""

    sweep_period = 0.01      # s
    range_resolution = 0.25  # m, receiver range quantisation


@dataclass(frozen=True)
class PulseEcho:
    round_trip_time: float   # s
    received_power: float    # dB, relative

    def __post_init__(self) -> None:
        if self.round_trip_time < 0:
            raise ValueError("round_trip_time must be >= 0")


def height_to_delay(h: float) -> float:
    """Round-trip delay for a return from height h: 2h/c."""

    if h < 0:
        raise ValueError(f"height must be >= 0, got {h}")
    return 2.0 * h / SPEED_OF_LIGHT


def delay_to_height(t_rtt: float) -> float:
    return SPEED_OF_LIGHT * t_rtt / 2.0


def range_height(t_rtt, sweep: SweepConfig):
    """Indicated AGL in metres from round-trip delays: c*t/2, quantised to
    the receiver's range resolution (to even at a half), elementwise."""

    q = sweep.range_resolution
    return np.rint(delay_to_height(t_rtt) / q) * q


def measure(echoes: Sequence[PulseEcho], sweep: SweepConfig) -> float:
    """Indicated AGL in metres from the strongest echo of the current sweep
    (`range_height` of its delay)."""

    if not echoes:
        raise NoGroundReturn("no echo in current sweep")
    strongest = max(echoes, key=lambda e: e.received_power)
    return float(range_height(strongest.round_trip_time, sweep))


def ramp_heights(start_agl: np.ndarray, elapsed: np.ndarray, apparent_descent_rate: float,
                 duration: float, sweep: SweepConfig) -> np.ndarray:
    """`range_height` of the injected delay of the sweep in progress
    ``elapsed`` s into a ramp from ``start_agl`` m, elementwise: the ramp
    steps down ``apparent_descent_rate * sweep_period`` m per sweep from its
    start, never below the ground, and holds its last sweep (of
    ``ceil(duration / sweep_period)``, at least one) after ``duration``.
    ``elapsed`` must not be negative."""

    period = sweep.sweep_period
    n_sweeps = max(1, math.ceil(duration / period))
    k = np.minimum((elapsed / period).astype(np.int64), n_sweeps - 1)
    h = start_agl - apparent_descent_rate * k * period
    return range_height(2.0 * np.where(h > 0.0, h, 0.0) / SPEED_OF_LIGHT, sweep)
