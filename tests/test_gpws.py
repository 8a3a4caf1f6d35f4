"""Mode 2 envelope, scripted trigger and closure-rate estimator tests.  The
estimator and `evaluate` are the scalar references in `reference.py`."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spoofsim import gpws

from reference import ClosureRateEstimator, GpwsAlert, evaluate

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


def test_evaluate():
    alert = evaluate(500.0, 3100.0, ENV, time=3.0)
    assert alert == GpwsAlert(time=3.0, trigger_agl=500.0, kind=gpws.ALERT_KIND)
    assert evaluate(500.0, 100.0, ENV) is None
    with pytest.raises(ValueError):
        evaluate(-1.0, 3100.0, ENV)


def test_scripted_trigger_windows():
    sched = gpws.AttackSchedule(500.0, 250.0, 50.0)
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
    est = ClosureRateEstimator()
    rate = None
    # 700 ft/min descent sampled at 10 Hz.
    for i in range(11):
        rate = est.update(i * 0.1, 1000.0 - (700.0 / 60.0) * i * 0.1)
    assert rate is not None
    assert math.isclose(rate, 700.0, rel_tol=1e-9)


def test_estimator_needs_full_window():
    est = ClosureRateEstimator()
    assert est.update(0.0, 1000.0) is None
    assert est.update(0.5, 990.0) is None
    assert est.update(1.0, 980.0) is not None


def test_estimator_sees_spoofed_ramp():
    """A 15.4 m/s indicated descent reads as ~3031 ft/min once the window
    is fully inside the ramp, which is inside the alert region at 475 ft."""

    est = ClosureRateEstimator()
    rate_fps = 15.4 / 0.3048
    rate = None
    for i in range(21):
        rate = est.update(i * 0.1, 500.0 - rate_fps * i * 0.1)
    assert math.isclose(rate, rate_fps * 60.0, rel_tol=1e-9)
    assert ENV.contains(475.0, rate)


def _list_closures(stream):
    """The closures of a backward difference over a plain list, dropping its
    oldest sample with ``list.pop(0)`` while the next one is at or before
    ``t - CLOSURE_WINDOW_S``: the estimator's rule, written without a deque."""

    samples, closures = [], []
    for t, h in stream:
        samples.append((t, h))
        cutoff = t - gpws.CLOSURE_WINDOW_S
        while len(samples) > 2 and samples[1][0] <= cutoff:
            samples.pop(0)
        t0, h0 = samples[0]
        if t - t0 < gpws.CLOSURE_WINDOW_S - 1e-9:
            closures.append(None)
        else:
            closures.append((h0 - h) / (t - t0) * 60.0)
    return closures


# Steps that land samples exactly on the window's cutoff (binary fractions of
# a second) or within its 1e-9 slack, and arbitrary ones.
_steps = st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0, 1.0 - 1e-9, 1.0 - 2e-9, 5e-10]) | st.floats(
    min_value=0.0, max_value=1.5)


@st.composite
def _streams(draw):
    t, stream = draw(st.sampled_from([0.0, 12.5]) | st.floats(0.0, 1e4)), []
    for step, h in draw(st.lists(
            st.tuples(_steps, st.floats(min_value=-100.0, max_value=3000.0)), max_size=40)):
        t += step
        stream.append((t, h))
    return stream


@settings(max_examples=300, deadline=None, derandomize=True)
@given(stream=_streams())
# The middle sample sits exactly on the cutoff of the last, so it starts the window.
@example(stream=[(0.0, 500.0), (0.5, 490.0), (1.5, 470.0)])
# A window 1e-9 short of a second is full; 2e-9 short is not.
@example(stream=[(0.0, 500.0), (1.0 - 1e-9, 480.0)])
@example(stream=[(0.0, 500.0), (1.0 - 2e-9, 480.0)])
def test_estimator_equals_list_backward_difference(stream):
    """Property: the deque estimator returns exactly the closures of the
    plain list-based backward difference, sample by sample."""

    est = ClosureRateEstimator()
    assert [est.update(t, h) for t, h in stream] == _list_closures(stream)
