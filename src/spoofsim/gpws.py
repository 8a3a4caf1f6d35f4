"""Excessive-terrain-closure (Mode 2) alerting and the scripted attack trigger.

The alert envelope is a piecewise-linear boundary in (AGL, closure rate);
the closure rate is estimated from the *indicated* radio-altimeter height,
which is what a ramp-spoofing attacker manipulates.  One boundary is
modelled; the Mode 2 sub-modes (flap/gear configuration) are not
distinguished.

`ClosureRateEstimator` takes one sample at a time and `evaluate` tests one
point with the scalar `world.interp`; the fine loop, which flies blocks of
steps, takes the same closures over rows of samples (`closure_rates`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional, Tuple

import numpy as np

from .world import interp

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
        # Float tables for `world.interp`, built once.
        object.__setattr__(self, "_agl", [float(a) for a in agls])
        object.__setattr__(self, "_rate", [float(p[1]) for p in self.boundary])

    def threshold_fpm(self, agl_ft: float) -> float:
        """Minimum closure rate (ft/min) that alerts at this AGL; equal to
        ``numpy.interp`` over the boundary."""

        return interp(agl_ft, self._agl, self._rate)

    def contains(self, agl_ft: float, closure_rate_fpm: float) -> bool:
        """Alert region is closed upward in closure rate."""

        return closure_rate_fpm >= self.threshold_fpm(agl_ft)


@dataclass(frozen=True)
class GpwsAlert:
    time: float                 # s
    trigger_agl: float          # ft (indicated)
    kind: str = "TERRAIN_PULL_UP"


@dataclass(frozen=True)
class AttackSchedule:
    """Per-approach trigger altitude: base + increment*(n-1), jittered down."""

    base_trigger_ft: float
    increment_per_approach_ft: float
    jitter_window_ft: float

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
) -> Optional[GpwsAlert]:
    """Alert iff (AGL, closure rate) lies in the envelope."""

    if agl_ft < 0:
        raise ValueError("agl must be >= 0")
    if envelope.contains(agl_ft, closure_rate_fpm):
        return GpwsAlert(time=time, trigger_agl=agl_ft)
    return None


def scripted_trigger(
    approach_index: int,
    rng: np.random.Generator,
    schedule: AttackSchedule,
) -> float:
    """Jittered trigger AGL (ft) for the given approach, deterministic per rng."""

    lo, hi = schedule.window(approach_index)
    return float(rng.uniform(lo, hi))


#: Backward-difference window of the closure-rate estimator, s.
CLOSURE_WINDOW_S = 1.0


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


def closure_rates(t: np.ndarray, indicated_agl_ft: np.ndarray) -> np.ndarray:
    """`ClosureRateEstimator.update` of each row's (time, indicated AGL ft)
    samples in column order, NaN for None; times in a row must not decrease.
    The oldest sample it keeps is the last one at or before
    ``t - CLOSURE_WINDOW_S`` (an earlier one), or the row's first."""

    first = np.array([np.searchsorted(row, row - CLOSURE_WINDOW_S, side="right") for row in t])
    at = np.arange(len(t))[:, None], np.maximum(first - 1, 0)
    span = t - t[at]
    with np.errstate(divide="ignore", invalid="ignore"):
        closure = (indicated_agl_ft[at] - indicated_agl_ft) / span * 60.0
    return np.where(span < CLOSURE_WINDOW_S - 1e-9, np.nan, closure)
