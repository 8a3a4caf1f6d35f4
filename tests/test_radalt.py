"""FMCW altimeter model and ramp-attack schedule tests."""

import math

import pytest
from hypothesis import given, strategies as st

from spoofsim import radalt
from spoofsim.units import SPEED_OF_LIGHT, ft_to_m

SWEEP = radalt.SweepConfig()


def test_sweep_slope():
    assert SWEEP.sweep_slope == (4.4e9 - 4.2e9) / 0.01
    with pytest.raises(ValueError):
        radalt.SweepConfig(f_start=4.4e9, f_end=4.2e9)


def test_height_delay_round_trip():
    t = radalt.height_to_delay(152.4)
    assert math.isclose(radalt.delay_to_height(t), 152.4, rel_tol=1e-12)
    with pytest.raises(ValueError):
        radalt.height_to_delay(-1.0)


def test_delay_difference_between_display_heights():
    """Dropping the reflection point from 152.4 m to 137.0 m shortens the
    round trip by 2*15.4/c ~ 1.027e-7 s."""

    diff = radalt.height_to_delay(152.4) - radalt.height_to_delay(137.0)
    assert math.isclose(diff, 2.0 * 15.4 / SPEED_OF_LIGHT, rel_tol=1e-12)
    assert abs(diff - 1.03e-7) < 1e-9


def test_measure_strongest_echo_wins():
    genuine = radalt.PulseEcho(radalt.height_to_delay(500.0), -60.0)
    spoof = radalt.PulseEcho(radalt.height_to_delay(100.0), -40.0, source="adversarial")
    h = radalt.measure([genuine, spoof], SWEEP)
    assert math.isclose(h, 100.0, abs_tol=SWEEP.range_resolution)


def test_measure_no_echo_raises():
    with pytest.raises(radalt.NoGroundReturn):
        radalt.measure([], SWEEP)


def test_measure_quantisation():
    h = radalt.measure([radalt.PulseEcho(radalt.height_to_delay(100.13), -50.0)], SWEEP)
    assert h == pytest.approx(100.25)


@given(st.floats(min_value=0.0, max_value=ft_to_m(2500.0)))
def test_measure_identity_within_resolution(height):
    echo = radalt.PulseEcho(radalt.height_to_delay(height), -50.0)
    assert abs(radalt.measure([echo], SWEEP) - height) < 0.5


def test_craft_ramp_monotone_delays():
    plan = radalt.craft_ramp(150.0, 15.4, 2.0, SWEEP)
    delays = [t for _, t in plan.schedule]
    assert len(delays) == 200
    positive = [t for t in delays if t > 0]
    assert all(a > b for a, b in zip(positive, positive[1:]))


def injected_height(plan, elapsed):
    """Height the injected echo mimics `elapsed` seconds into the attack."""

    return radalt.delay_to_height(plan.echo_at(elapsed).round_trip_time)


def test_craft_ramp_clips_at_ground():
    plan = radalt.craft_ramp(1.0, 100.0, 1.0, SWEEP)
    assert injected_height(plan, 0.99) == 0.0


def test_indicated_agl_tracks_rate():
    plan = radalt.craft_ramp(150.0, 15.4, 2.0, SWEEP)
    assert math.isclose(injected_height(plan, 0.0), 150.0, rel_tol=1e-9)
    assert math.isclose(injected_height(plan, 1.0), 150.0 - 15.4, rel_tol=1e-9)


def test_ramp_echo_is_adversarial():
    plan = radalt.craft_ramp(150.0, 15.4, 0.5, SWEEP)
    echo = plan.echo_at(0.1)
    assert echo.source == "adversarial"
    assert echo.round_trip_time == plan.schedule[10][1]


def test_plan_rejects_non_decreasing_delays():
    with pytest.raises(ValueError):
        radalt.RampAttackPlan(
            start_agl=100.0, apparent_descent_rate=10.0, duration=1.0,
            sweep_period=0.01, schedule=[(0, 1e-7), (1, 1e-7)],
        )


def test_echo_validation():
    with pytest.raises(ValueError):
        radalt.PulseEcho(-1e-9, -50.0)
    with pytest.raises(ValueError):
        radalt.PulseEcho(1e-7, -50.0, source="other")
