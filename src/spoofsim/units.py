"""Unit conversions and physical constants.

All internal computation is SI (metres, seconds, m/s).  Aviation-facing
quantities (feet, knots, ft/min, statute miles) are converted at the
boundaries only; feet and ft/min convert both ways and must round-trip.
"""

from __future__ import annotations

# Speed of light used for all radio propagation timing.
SPEED_OF_LIGHT = 2.998e8  # m/s

M_PER_FT = 0.3048
M_PER_STATUTE_MILE = 1609.344
M_PER_NAUTICAL_MILE = 1852.0
MPS_PER_KN = M_PER_NAUTICAL_MILE / 3600.0
MPS_PER_FPM = M_PER_FT / 60.0


def ft_to_m(ft: float) -> float:
    return ft * M_PER_FT


def m_to_ft(m: float) -> float:
    return m / M_PER_FT


def kn_to_mps(kn: float) -> float:
    return kn * MPS_PER_KN


def fpm_to_mps(fpm: float) -> float:
    return fpm * MPS_PER_FPM


def mps_to_fpm(mps: float) -> float:
    return mps / MPS_PER_FPM


def m_to_statute_miles(m: float) -> float:
    return m / M_PER_STATUTE_MILE
