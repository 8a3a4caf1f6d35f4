"""FMCW altimeter model and ramp-attack tests.  The ramp is the scalar
reference `RampAttackPlan` in `reference.py`."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spoofsim import radalt
from spoofsim.units import SPEED_OF_LIGHT, ft_to_m

from reference import RampAttackPlan

SWEEP = radalt.SweepConfig()


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
    spoof = radalt.PulseEcho(radalt.height_to_delay(100.0), -40.0)
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


@given(st.floats(min_value=0.0, max_value=ft_to_m(2500.0)),
       st.floats(min_value=0.0, max_value=ft_to_m(2500.0)))
def test_range_height_is_measure_of_one_echo(height, other):
    """Ranging one delay gives what `measure` gives for that echo, alone or
    as the strongest of two: c*t/2 quantised to the range resolution."""

    echo = radalt.PulseEcho(radalt.height_to_delay(height), -40.0)
    weaker = radalt.PulseEcho(radalt.height_to_delay(other), -60.0)
    h = radalt.range_height(echo.round_trip_time, SWEEP)
    q = SWEEP.range_resolution
    assert h == round(SPEED_OF_LIGHT * echo.round_trip_time / 2.0 / q) * q
    assert h == radalt.measure([echo], SWEEP) == radalt.measure([weaker, echo], SWEEP)


def ramp(start_agl, rate, duration):
    return RampAttackPlan(start_agl, rate, duration, SWEEP.sweep_period)


def reference_delays(start_agl, rate, duration, sweep_period):
    """The eagerly crafted per-sweep delay list that `echo_at` replaces."""

    n_sweeps = max(1, math.ceil(duration / sweep_period))
    delays = []
    for k in range(n_sweeps):
        h = max(0.0, start_agl - rate * k * sweep_period)
        delays.append(radalt.height_to_delay(h))
    return delays


def test_ramp_monotone_delays():
    plan = ramp(150.0, 15.4, 2.0)
    delays = [plan.echo_at((k + 0.5) * SWEEP.sweep_period).round_trip_time
              for k in range(200)]
    positive = [t for t in delays if t > 0]
    assert len(positive) == 200
    assert all(a > b for a, b in zip(positive, positive[1:]))
    # After its duration the ramp holds its last sweep.
    assert plan.echo_at(2.5).round_trip_time == delays[-1]


@settings(max_examples=200, deadline=None)
@given(
    start_agl=st.floats(min_value=0.0, max_value=1000.0),
    rate=st.floats(min_value=0.0, max_value=200.0),
    duration=st.floats(min_value=1e-3, max_value=3.0),
    fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=20),
)
def test_echo_at_equals_crafted_delays(start_agl, rate, duration, fractions):
    """Each sweep's delay, computed when read, is bit-for-bit the one the
    eagerly crafted list held for that sweep."""

    plan = ramp(start_agl, rate, duration)
    delays = reference_delays(start_agl, rate, duration, SWEEP.sweep_period)
    for elapsed in [0.0, duration, 2.0 * duration] + [2.0 * duration * f for f in fractions]:
        idx = min(int(elapsed / SWEEP.sweep_period), len(delays) - 1)
        echo = plan.echo_at(elapsed)
        assert echo.round_trip_time == delays[idx]
        assert echo.received_power == -40.0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    start_agl=st.floats(min_value=0.0, max_value=1000.0),
    rate=st.floats(min_value=0.0, max_value=200.0),
    duration=st.floats(min_value=1e-3, max_value=3.0),
    fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=20),
)
def test_ramp_heights_equal_plan(start_agl, rate, duration, fractions):
    """The fine loop's ramp kernel ranges, to the bit, the delay the
    reference plan injects at each read time."""

    plan = ramp(start_agl, rate, duration)
    elapsed = [0.0, duration, 2.0 * duration] + [2.0 * duration * f for f in fractions]
    got = radalt.ramp_heights(np.full(len(elapsed), start_agl), np.array(elapsed), rate,
                              duration, SWEEP)
    expected = [radalt.range_height(plan.delay_at(e), SWEEP) for e in elapsed]
    assert [v.hex() for v in got.tolist()] == [float(v).hex() for v in expected]


@pytest.mark.parametrize("start_agl, rate, duration, sweep_period, field", [
    (150.0, 15.4, 0.0, 0.01, "duration"),
    (150.0, 15.4, -1.0, 0.01, "duration"),
    (150.0, 15.4, math.nan, 0.01, "duration"),
    (150.0, -0.1, 1.5, 0.01, "apparent_descent_rate"),
    (150.0, math.nan, 1.5, 0.01, "apparent_descent_rate"),
    (-1.0, 15.4, 1.5, 0.01, "start_agl"),
    (math.nan, 15.4, 1.5, 0.01, "start_agl"),
    (150.0, 15.4, 1.5, 0.0, "sweep_period"),
])
def test_plan_validation(start_agl, rate, duration, sweep_period, field):
    with pytest.raises(ValueError, match=field):
        RampAttackPlan(start_agl, rate, duration, sweep_period)
    RampAttackPlan(0.0, 0.0, 1e-3, 0.01)  # the edges are accepted


def injected_height(plan, elapsed):
    """Height the injected echo mimics `elapsed` seconds into the attack."""

    return radalt.delay_to_height(plan.echo_at(elapsed).round_trip_time)


def test_ramp_clips_at_ground():
    plan = ramp(1.0, 100.0, 1.0)
    assert injected_height(plan, 0.99) == 0.0


def test_indicated_agl_tracks_rate():
    plan = ramp(150.0, 15.4, 2.0)
    assert math.isclose(injected_height(plan, 0.0), 150.0, rel_tol=1e-9)
    assert math.isclose(injected_height(plan, 1.0), 150.0 - 15.4, rel_tol=1e-9)


def test_ramp_echo_is_adversarial():
    """The injected echo outpowers a genuine return, so `measure` ranges it."""

    plan = ramp(150.0, 15.4, 0.5)
    echo = plan.echo_at(0.1)
    assert echo.round_trip_time == radalt.height_to_delay(150.0 - 15.4 * 10 * 0.01)
    genuine = radalt.PulseEcho(radalt.height_to_delay(150.0), -60.0)
    expected = radalt.range_height(echo.round_trip_time, SWEEP)
    assert radalt.measure([genuine, echo], SWEEP) == expected


def test_echo_validation():
    with pytest.raises(ValueError):
        radalt.PulseEcho(-1e-9, -50.0)
