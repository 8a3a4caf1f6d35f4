"""Point-mass aircraft kinematics, runway geometry and terrain profiles.

The simulation frame is 2-D lateral plus altitude: ``ground_position`` is an
(along-track, cross-track) pair in metres relative to the runway threshold,
with the along-track axis pointing in the landing direction.  ``heading`` is
degrees from the +along-track axis toward +cross-track.  The frame is the
only one: nothing the simulation computes depends on the runway's true
bearing, so no state carries one.

Integration is closed form (position and altitude are linear in dt), so
``step`` composes exactly: advancing by a+b equals advancing by a then b.
``step`` serves the coarse jumps (to an attack window, along a cruise) and
every other caller.  The GPWS fine loop checks its rates with ``check_step``
and integrates array blocks: a cumulative sum along each row makes
``step``'s additions, in ``step``'s order, on (time, along, altitude).  Its
heading is 0, so ``step`` adds ``d * cos 0 == d`` along track and
``d * sin 0 == 0.0`` across.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class AircraftState:
    """Own-ship kinematic snapshot.  Immutable; ``step`` returns a new one."""

    time: float                              # s
    ground_position: Tuple[float, float]     # (along-track, cross-track) m
    altitude_msl: float                      # m
    vertical_speed: float                    # m/s, negative = descent
    ground_speed: float                      # m/s
    heading: float                           # degrees from +along-track axis

    def __post_init__(self) -> None:
        if self.ground_speed < 0:
            raise ValueError(f"ground_speed must be >= 0, got {self.ground_speed}")

    @property
    def along_track(self) -> float:
        return self.ground_position[0]


@dataclass(frozen=True)
class RunwayModel:
    threshold_position: float     # m, along-track coordinate of the threshold
    touchdown_zone_offset: float  # m beyond the threshold
    elevation: float              # m MSL
    true_bearing: float           # degrees true; no computation reads it
    length: float                 # m

    def __post_init__(self) -> None:
        if not 0 <= self.touchdown_zone_offset < self.length:
            raise ValueError(
                "touchdown_zone_offset must satisfy 0 <= offset < length, "
                f"got {self.touchdown_zone_offset} for length {self.length}"
            )

    @property
    def touchdown_zone_position(self) -> float:
        return self.threshold_position + self.touchdown_zone_offset


class TerrainProfile:
    """Piecewise-linear terrain elevation vs along-track distance."""

    def __init__(self, points: Sequence[Tuple[float, float]]):
        if len(points) < 2:
            raise ValueError("terrain profile needs at least two points")
        pts = sorted(points)
        # Float lists, the tables of `numpy.interp`.
        self._x = [float(p[0]) for p in pts]
        self._z = [float(p[1]) for p in pts]
        if len(set(self._x)) != len(self._x):
            raise ValueError("terrain profile has duplicate along-track positions")

    @property
    def domain(self) -> Tuple[float, float]:
        return self._x[0], self._x[-1]

    @property
    def vertices(self) -> Tuple[Tuple[float, float], ...]:
        """The (along-track, elevation) points, in along-track order."""

        return tuple(zip(self._x, self._z))

    def elevation_at(self, along_track: float) -> float:
        if not self._x[0] <= along_track <= self._x[-1]:
            raise ValueError(
                f"position {along_track} m outside terrain domain {self.domain}"
            )
        return float(np.interp(along_track, self._x, self._z))


def check_step(
    commanded_vertical_speed: float, commanded_ground_speed: float, dt: float
) -> None:
    """`step`'s checks: raise a ValueError naming the first of these
    arguments it cannot integrate.  A caller that integrates many steps at
    the same rates checks them once."""

    for name, v in (
        ("commanded_vertical_speed", commanded_vertical_speed),
        ("commanded_ground_speed", commanded_ground_speed),
        ("dt", dt),
    ):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if commanded_ground_speed < 0:
        raise ValueError("commanded ground speed must be >= 0")


def step(
    state: AircraftState,
    commanded_vertical_speed: float,
    commanded_ground_speed: float,
    dt: float,
) -> AircraftState:
    """Advance the state by dt at the commanded rates (exact integration)."""

    check_step(commanded_vertical_speed, commanded_ground_speed, dt)
    theta = math.radians(state.heading)
    d = commanded_ground_speed * dt
    return AircraftState(
        time=state.time + dt,
        ground_position=(
            state.ground_position[0] + d * math.cos(theta),
            state.ground_position[1] + d * math.sin(theta),
        ),
        altitude_msl=state.altitude_msl + commanded_vertical_speed * dt,
        vertical_speed=commanded_vertical_speed,
        ground_speed=commanded_ground_speed,
        heading=state.heading,
    )


def agl(state: AircraftState, terrain: TerrainProfile) -> float:
    """Height above ground: MSL altitude minus terrain elevation underneath."""

    return state.altitude_msl - terrain.elevation_at(state.along_track)


def time_and_distance_to_touchdown(
    state: AircraftState, runway: RunwayModel
) -> Tuple[float, float]:
    """Time and along-track distance covered until height above the runway
    reaches zero at the current descent rate and ground speed."""

    if state.vertical_speed >= 0:
        raise ValueError("aircraft must be descending (vertical_speed < 0)")
    height = state.altitude_msl - runway.elevation
    if height <= 0:
        return 0.0, 0.0
    t = height / abs(state.vertical_speed)
    return t, state.ground_speed * t
