"""FMCW radio-altimeter signal model and the ramp-spoofing attack.

The altimeter ranges the ground from the round-trip delay of the strongest
echo in each sweep (the beat frequency is sweep slope times delay, so ranging
on either gives the same height, and the band itself does not enter);
`range_height` ranges one delay, `measure` picks the echo first.  The
attacker injects one delay per sweep, shrinking it so the indicated height
descends at a chosen apparent rate; a ramp computes the delay of a sweep only
when that sweep is read (`RampAttackPlan.delay_at`).  Where the spoofed echo
is a sweep's only return, as in the GPWS fine loop, that delay is ranged
directly: `ramp_heights` gives those heights for arrays of ramps and read
times at once.  `echo_at` wraps one delay in a `PulseEcho` for `measure`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .units import SPEED_OF_LIGHT


class NoGroundReturn(Exception):
    """No echo received in the current sweep; indicated AGL is invalid."""


@dataclass(frozen=True)
class SweepConfig:
    sweep_period: float = 0.01    # s
    range_resolution: float = 0.25  # m, receiver range quantisation

    def __post_init__(self) -> None:
        if self.sweep_period <= 0:
            raise ValueError("sweep_period must be > 0")
        if self.range_resolution <= 0:
            raise ValueError("range_resolution must be > 0")


@dataclass(frozen=True)
class PulseEcho:
    round_trip_time: float   # s
    received_power: float    # dB, relative
    source: str = "genuine"  # "genuine" | "adversarial"

    def __post_init__(self) -> None:
        if self.round_trip_time < 0:
            raise ValueError("round_trip_time must be >= 0")
        if self.source not in ("genuine", "adversarial"):
            raise ValueError(f"unknown echo source {self.source!r}")


def height_to_delay(h: float) -> float:
    """Round-trip delay for a return from height h: 2h/c."""

    if h < 0:
        raise ValueError(f"height must be >= 0, got {h}")
    return 2.0 * h / SPEED_OF_LIGHT


def delay_to_height(t_rtt: float) -> float:
    return SPEED_OF_LIGHT * t_rtt / 2.0


def range_height(t_rtt: float, sweep: SweepConfig) -> float:
    """Indicated AGL in metres from one echo's round-trip delay: c*t/2,
    quantised to the receiver's range resolution."""

    q = sweep.range_resolution
    return round(delay_to_height(t_rtt) / q) * q


def measure(echoes: Sequence[PulseEcho], sweep: SweepConfig) -> float:
    """Indicated AGL in metres from the strongest echo of the current sweep
    (`range_height` of its delay)."""

    if not echoes:
        raise NoGroundReturn("no echo in current sweep")
    strongest = max(echoes, key=lambda e: e.received_power)
    return range_height(strongest.round_trip_time, sweep)


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

        return PulseEcho(self.delay_at(elapsed), -40.0, "adversarial")


def ramp_heights(start_agl: np.ndarray, elapsed: np.ndarray, apparent_descent_rate: float,
                 duration: float, sweep: SweepConfig) -> np.ndarray:
    """``range_height`` of ``RampAttackPlan.delay_at`` elementwise, in the
    same float operations (``astype(int64)`` and ``rint`` are ``int()`` of a
    non-negative ``elapsed`` and ``round()``)."""

    period, q = sweep.sweep_period, sweep.range_resolution
    n_sweeps = max(1, math.ceil(duration / period))
    k = np.minimum((elapsed / period).astype(np.int64), n_sweeps - 1)
    h = start_agl - apparent_descent_rate * k * period
    delay = 2.0 * np.where(h > 0.0, h, 0.0) / SPEED_OF_LIGHT
    return np.rint(SPEED_OF_LIGHT * delay / 2.0 / q) * q
