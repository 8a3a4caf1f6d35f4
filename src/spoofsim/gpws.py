"""Excessive-terrain-closure (Mode 2) alerting and the scripted attack trigger.

The alert envelope is a piecewise-linear boundary in (AGL, closure rate);
the closure rate is estimated from the *indicated* radio-altimeter height,
which is what a ramp-spoofing attacker manipulates.  One boundary is
modelled; the Mode 2 sub-modes (flap/gear configuration) are not
distinguished.

The fine loop, which flies blocks of steps, takes the closures over rows of
samples (`closure_rates`); it and `Mode2Envelope` look the boundary up with
``numpy.interp``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

#: The boundary's AGL points (ft) and the closure rates (ft/min) at them:
#: linear through (200 ft, 2000 ft/min) and (790 ft, 3000 ft/min), flat
#: outside those AGL endpoints.  This places the (500 ft, 3000 ft/min)
#: operating point well inside the alert region.
BOUNDARY_AGL_FT = (200.0, 790.0)
BOUNDARY_RATE_FPM = (2000.0, 3000.0)
#: What an alert logs as its kind.
ALERT_KIND = "TERRAIN_PULL_UP"


class Mode2Envelope:
    """The alert region over the boundary; no config field sets it."""

    def threshold_fpm(self, agl_ft: float) -> float:
        """Minimum closure rate (ft/min) that alerts at this AGL."""

        return float(np.interp(agl_ft, BOUNDARY_AGL_FT, BOUNDARY_RATE_FPM))

    def contains(self, agl_ft: float, closure_rate_fpm: float) -> bool:
        """Alert region is closed upward in closure rate."""

        return closure_rate_fpm >= self.threshold_fpm(agl_ft)


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


def closure_rates(t: np.ndarray, indicated_agl_ft: np.ndarray) -> np.ndarray:
    """The backward difference of each row's (time, indicated AGL ft)
    samples over `CLOSURE_WINDOW_S`, in ft/min, at each column; NaN until
    the row holds a full window.  Times in a row must not decrease.  The
    difference is taken from the last sample at or before
    ``t - CLOSURE_WINDOW_S`` (an earlier one), or the row's first."""

    first = np.array([np.searchsorted(row, row - CLOSURE_WINDOW_S, side="right") for row in t])
    at = np.arange(len(t))[:, None], np.maximum(first - 1, 0)
    span = t - t[at]
    with np.errstate(divide="ignore", invalid="ignore"):
        closure = (indicated_agl_ft[at] - indicated_agl_ft) / span * 60.0
    return np.where(span < CLOSURE_WINDOW_S - 1e-9, np.nan, closure)
