"""Mode 2 envelope, scripted trigger and closure-rate estimator tests."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spoofsim import gpws

ENV = gpws.Mode2Envelope()


def test_boundary_interpolation():
    assert ENV.threshold_fpm(200.0) == 2000.0
    assert ENV.threshold_fpm(790.0) == 3000.0
    # Linear between the anchor points: 475 ft -> 2466 ft/min.
    expected = 2000.0 + (475.0 - 200.0) / (790.0 - 200.0) * 1000.0
    assert math.isclose(ENV.threshold_fpm(475.0), expected, rel_tol=1e-12)
    # Clamped outside the anchors.
    assert ENV.threshold_fpm(50.0) == 2000.0
    assert ENV.threshold_fpm(5000.0) == 3000.0


def test_contains_operating_point():
    assert ENV.contains(500.0, 3000.0)
    assert not ENV.contains(500.0, 700.0)


@given(
    st.floats(min_value=0.0, max_value=2500.0),
    st.floats(min_value=0.0, max_value=6000.0),
    st.floats(min_value=0.0, max_value=6000.0),
)
def test_envelope_monotone_in_closure_rate(agl, r1, r2):
    """If a lower closure rate alerts, any higher rate must alert too."""

    lo, hi = min(r1, r2), max(r1, r2)
    if ENV.contains(agl, lo):
        assert ENV.contains(agl, hi)


def test_envelope_validation():
    with pytest.raises(ValueError):
        gpws.Mode2Envelope(boundary=((500.0, 2000.0), (200.0, 3000.0)))


def test_evaluate():
    alert = gpws.evaluate(500.0, 3100.0, ENV, time=3.0, approach_index=2)
    assert alert is not None
    assert alert.kind == "TERRAIN_PULL_UP"
    assert alert.approach_index == 2
    assert gpws.evaluate(500.0, 100.0, ENV) is None
    with pytest.raises(ValueError):
        gpws.evaluate(-1.0, 3100.0, ENV)


def test_scripted_trigger_windows():
    sched = gpws.AttackSchedule()
    assert sched.window(1) == (450.0, 500.0)
    assert sched.window(2) == (700.0, 750.0)
    assert sched.window(3) == (950.0, 1000.0)
    with pytest.raises(ValueError):
        sched.window(0)
    rng = np.random.default_rng(0)
    for n in (1, 2, 3):
        lo, hi = sched.window(n)
        for _ in range(100):
            assert lo <= gpws.scripted_trigger(n, rng, sched) <= hi


def test_estimator_backward_difference():
    est = gpws.ClosureRateEstimator(window_s=1.0)
    rate = None
    # 700 ft/min descent sampled at 10 Hz.
    for i in range(11):
        rate = est.update(i * 0.1, 1000.0 - (700.0 / 60.0) * i * 0.1)
    assert rate is not None
    assert math.isclose(rate, 700.0, rel_tol=1e-9)


def test_estimator_needs_full_window():
    est = gpws.ClosureRateEstimator(window_s=1.0)
    assert est.update(0.0, 1000.0) is None
    assert est.update(0.5, 990.0) is None
    assert est.update(1.0, 980.0) is not None


def test_estimator_sees_spoofed_ramp():
    """A 15.4 m/s indicated descent reads as ~3031 ft/min once the window
    is fully inside the ramp, which is inside the alert region at 475 ft."""

    est = gpws.ClosureRateEstimator()
    rate_fps = 15.4 / 0.3048
    rate = None
    for i in range(21):
        rate = est.update(i * 0.1, 500.0 - rate_fps * i * 0.1)
    assert math.isclose(rate, rate_fps * 60.0, rel_tol=1e-9)
    assert ENV.contains(475.0, rate)
