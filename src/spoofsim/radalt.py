"""FMCW radio-altimeter signal model and the ramp-spoofing pulse scheduler.

The altimeter sweeps 4200-4400 MHz and ranges the ground from the round-trip
delay of the strongest echo (the beat frequency is sweep slope times delay, so
ranging on either gives the same height).  The attacker schedules one
injected delay per sweep, shrinking it so the indicated height descends at a
chosen apparent rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from .units import SPEED_OF_LIGHT


class NoGroundReturn(Exception):
    """No echo received in the current sweep; indicated AGL is invalid."""


@dataclass(frozen=True)
class SweepConfig:
    f_start: float = 4.2e9        # Hz
    f_end: float = 4.4e9          # Hz
    sweep_period: float = 0.01    # s
    range_resolution: float = 0.25  # m, receiver range quantisation

    def __post_init__(self) -> None:
        if self.f_end <= self.f_start:
            raise ValueError("f_end must exceed f_start")
        if self.sweep_period <= 0:
            raise ValueError("sweep_period must be > 0")
        if self.range_resolution <= 0:
            raise ValueError("range_resolution must be > 0")

    @property
    def sweep_slope(self) -> float:
        """Hz per second."""
        return (self.f_end - self.f_start) / self.sweep_period


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


def measure(echoes: Sequence[PulseEcho], sweep: SweepConfig) -> float:
    """Indicated AGL in metres from the strongest echo of the current sweep:
    c*t/2, quantised to the receiver's range resolution."""

    if not echoes:
        raise NoGroundReturn("no echo in current sweep")
    strongest = max(echoes, key=lambda e: e.received_power)
    h_delay = delay_to_height(strongest.round_trip_time)
    q = sweep.range_resolution
    return round(h_delay / q) * q


@dataclass
class RampAttackPlan:
    """Per-sweep delay schedule that walks the indicated height downward."""

    start_agl: float               # m
    apparent_descent_rate: float   # m/s
    duration: float                # s
    sweep_period: float            # s
    schedule: List[Tuple[int, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.apparent_descent_rate > 0:
            delays = [t for _, t in self.schedule]
            positive = [t for t in delays if t > 0]
            if any(b >= a for a, b in zip(positive, positive[1:])):
                raise ValueError("injected delays must strictly decrease while nonzero")

    def echo_at(self, elapsed: float, power: float = -40.0) -> PulseEcho:
        idx = min(int(elapsed / self.sweep_period), len(self.schedule) - 1)
        return PulseEcho(self.schedule[idx][1], power, source="adversarial")


def craft_ramp(
    start_agl: float,
    apparent_descent_rate: float,
    duration: float,
    sweep: SweepConfig,
) -> RampAttackPlan:
    """Build the injected delay schedule for an apparent-descent attack.

    The mimicked height is clipped at zero once the ramp reaches the ground;
    the per-second delay decrement equals 2*rate/c while unclipped.
    """

    if duration <= 0:
        raise ValueError("duration must be > 0")
    if apparent_descent_rate < 0:
        raise ValueError("apparent_descent_rate must be >= 0")
    if start_agl < 0:
        raise ValueError("start_agl must be >= 0")

    n_sweeps = max(1, math.ceil(duration / sweep.sweep_period))
    schedule = []
    for k in range(n_sweeps):
        h = max(0.0, start_agl - apparent_descent_rate * k * sweep.sweep_period)
        schedule.append((k, height_to_delay(h)))
    return RampAttackPlan(
        start_agl=start_agl,
        apparent_descent_rate=apparent_descent_rate,
        duration=duration,
        sweep_period=sweep.sweep_period,
        schedule=schedule,
    )
