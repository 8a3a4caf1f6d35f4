"""Kinematics, runway geometry and terrain profile tests."""

import math

import pytest
from hypothesis import given, strategies as st

from spoofsim import world
from spoofsim.units import fpm_to_mps, ft_to_m, kn_to_mps, m_to_statute_miles


def make_state(**kwargs):
    defaults = dict(
        time=0.0,
        ground_position=(0.0, 0.0),
        altitude_msl=1000.0,
        vertical_speed=-3.0,
        ground_speed=66.0,
        heading=0.0,
    )
    defaults.update(kwargs)
    return world.AircraftState(**defaults)


def test_state_rejects_negative_ground_speed():
    with pytest.raises(ValueError):
        make_state(ground_speed=-1.0)


def test_step_advances_linearly():
    s = make_state()
    s2 = world.step(s, -5.0, 100.0, 2.0)
    assert s2.time == 2.0
    assert s2.ground_position == (200.0, 0.0)
    assert s2.altitude_msl == 990.0
    assert s2.vertical_speed == -5.0


def test_step_resolves_heading_into_frame():
    s = make_state(heading=90.0, frame_bearing=0.0)
    s2 = world.step(s, 0.0, 10.0, 1.0)
    assert math.isclose(s2.ground_position[0], 0.0, abs_tol=1e-9)
    assert math.isclose(s2.ground_position[1], 10.0, abs_tol=1e-9)


def test_step_validation():
    s = make_state()
    with pytest.raises(ValueError):
        world.step(s, 0.0, 10.0, 0.0)
    with pytest.raises(ValueError):
        world.step(s, float("nan"), 10.0, 1.0)
    with pytest.raises(ValueError):
        world.step(s, 0.0, -1.0, 1.0)


@given(
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=-20.0, max_value=20.0),
    st.floats(min_value=0.0, max_value=150.0),
    st.floats(min_value=0.0, max_value=360.0),
)
def test_step_composes_exactly(a, b, vs, gs, heading):
    """Advancing by a+b equals advancing by a then by b."""

    s = make_state(heading=heading)
    joint = world.step(s, vs, gs, a + b)
    split = world.step(world.step(s, vs, gs, a), vs, gs, b)
    assert math.isclose(joint.altitude_msl, split.altitude_msl, rel_tol=1e-12, abs_tol=1e-9)
    assert math.isclose(
        joint.ground_position[0], split.ground_position[0], rel_tol=1e-12, abs_tol=1e-6
    )
    assert math.isclose(
        joint.ground_position[1], split.ground_position[1], rel_tol=1e-12, abs_tol=1e-6
    )


def test_runway_touchdown_zone():
    r = world.RunwayModel(
        threshold_position=0.0, touchdown_zone_offset=300.0,
        elevation=100.0, true_bearing=270.0, length=2600.0,
    )
    assert r.touchdown_zone_position == 300.0
    with pytest.raises(ValueError):
        world.RunwayModel(0.0, 3000.0, 100.0, 270.0, 2600.0)


def test_terrain_interpolation_and_domain():
    t = world.TerrainProfile([(0.0, 0.0), (100.0, 50.0)])
    assert t.elevation_at(50.0) == 25.0
    with pytest.raises(ValueError):
        t.elevation_at(101.0)
    with pytest.raises(ValueError):
        world.TerrainProfile([(0.0, 0.0)])
    flat = world.TerrainProfile.flat(12.0)
    assert flat.elevation_at(0.0) == 12.0


def test_agl():
    t = world.TerrainProfile.flat(100.0)
    s = make_state(altitude_msl=250.0)
    assert world.agl(s, t) == 150.0


def test_time_and_distance_to_touchdown():
    """500 ft above the runway at 700 ft/min descent: 42.86 s to touchdown;
    at 130 kn ground speed that covers about 1.78 statute miles."""

    r = world.RunwayModel(0.0, 300.0, 0.0, 0.0, 2600.0)
    s = make_state(
        altitude_msl=ft_to_m(500.0),
        vertical_speed=-fpm_to_mps(700.0),
        ground_speed=kn_to_mps(130.0),
    )
    t, d = world.time_and_distance_to_touchdown(s, r)
    assert math.isclose(t, 500.0 / 700.0 * 60.0, rel_tol=1e-12)
    assert math.isclose(t, 42.857, abs_tol=1e-3)
    assert math.isclose(m_to_statute_miles(d), 1.781, abs_tol=2e-3)
    # A rounded 42 s at the same ground speed covers about 1.74 miles.
    assert math.isclose(m_to_statute_miles(kn_to_mps(130.0) * 42.0), 1.745, abs_tol=2e-3)


def test_time_to_touchdown_requires_descent():
    r = world.RunwayModel(0.0, 300.0, 0.0, 0.0, 2600.0)
    with pytest.raises(ValueError):
        world.time_and_distance_to_touchdown(make_state(vertical_speed=1.0), r)
    assert world.time_and_distance_to_touchdown(
        make_state(altitude_msl=-1.0), r
    ) == (0.0, 0.0)
