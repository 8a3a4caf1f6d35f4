"""Excessive-terrain-closure (Mode 2) alerting and the scripted attack trigger.

The alert envelope is a piecewise-linear boundary in (AGL, closure rate); the
closure rate is estimated from the *indicated* radio-altimeter height, which
is what a ramp-spoofing attacker manipulates.  One boundary is modelled; the
Mode 2 sub-modes (flap/gear configuration) are not distinguished.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np


#: Default boundary: linear through (200 ft, 2000 ft/min) and (790 ft,
#: 3000 ft/min), flat outside those AGL endpoints.  This places the
#: (500 ft, 3000 ft/min) operating point well inside the alert region.
DEFAULT_BOUNDARY: Tuple[Tuple[float, float], ...] = ((200.0, 2000.0), (790.0, 3000.0))


@dataclass(frozen=True)
class Mode2Envelope:
    boundary: Tuple[Tuple[float, float], ...] = DEFAULT_BOUNDARY

    def __post_init__(self) -> None:
        agls = [p[0] for p in self.boundary]
        if sorted(agls) != agls or len(set(agls)) != len(agls):
            raise ValueError("boundary AGL points must be strictly increasing")

    def threshold_fpm(self, agl_ft: float) -> float:
        """Minimum closure rate (ft/min) that alerts at this AGL."""

        x = np.array([p[0] for p in self.boundary])
        y = np.array([p[1] for p in self.boundary])
        return float(np.interp(agl_ft, x, y))

    def contains(self, agl_ft: float, closure_rate_fpm: float) -> bool:
        """Alert region is closed upward in closure rate."""

        return closure_rate_fpm >= self.threshold_fpm(agl_ft)


@dataclass(frozen=True)
class GpwsAlert:
    time: float                 # s
    trigger_agl: float          # ft (indicated)
    approach_index: int
    kind: str = "TERRAIN_PULL_UP"


@dataclass(frozen=True)
class AttackSchedule:
    """Per-approach trigger altitude: base + increment*(n-1), jittered down."""

    base_trigger_ft: float = 500.0
    increment_per_approach_ft: float = 250.0
    jitter_window_ft: float = 50.0

    def window(self, approach_index: int) -> Tuple[float, float]:
        if approach_index < 1:
            raise ValueError("approach_index must be >= 1")
        hi = self.base_trigger_ft + self.increment_per_approach_ft * (approach_index - 1)
        return hi - self.jitter_window_ft, hi


def evaluate(
    agl_ft: float,
    closure_rate_fpm: float,
    envelope: Mode2Envelope,
    time: float = 0.0,
    approach_index: int = 1,
) -> Optional[GpwsAlert]:
    """Alert iff (AGL, closure rate) lies in the envelope."""

    if agl_ft < 0:
        raise ValueError("agl must be >= 0")
    if envelope.contains(agl_ft, closure_rate_fpm):
        return GpwsAlert(time=time, trigger_agl=agl_ft, approach_index=approach_index)
    return None


def scripted_trigger(
    approach_index: int,
    rng: np.random.Generator,
    schedule: AttackSchedule = AttackSchedule(),
) -> float:
    """Jittered trigger AGL (ft) for the given approach, deterministic per rng."""

    lo, hi = schedule.window(approach_index)
    return float(rng.uniform(lo, hi))


@dataclass
class ClosureRateEstimator:
    """Backward difference of indicated AGL over a fixed window (default 1 s)."""

    window_s: float = 1.0
    _samples: List[Tuple[float, float]] = field(default_factory=list)

    def update(self, t: float, indicated_agl_ft: float) -> Optional[float]:
        """Feed one (time, indicated AGL ft) sample; return closure in ft/min,
        or None until a full window of history exists."""

        self._samples.append((t, indicated_agl_ft))
        # Keep just enough history to straddle the window.
        cutoff = t - self.window_s
        while len(self._samples) > 2 and self._samples[1][0] <= cutoff:
            self._samples.pop(0)
        t0, h0 = self._samples[0]
        if t - t0 < self.window_s - 1e-9:
            return None
        return (h0 - indicated_agl_ft) / (t - t0) * 60.0
