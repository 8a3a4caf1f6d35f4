"""Time-of-arrival consistency tests."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spoofsim import sentinel
from spoofsim.units import SPEED_OF_LIGHT

SENSORS = sentinel.default_sensor_grid()


def test_zero_noise_truthful_claim_is_clean():
    position = (3000.0, 4000.0, 3500.0)
    arrivals = sentinel.observe_arrivals(position, SENSORS)
    verdict = sentinel.toa_consistency(position, arrivals)
    assert verdict.flag == sentinel.CLEAN
    assert verdict.residual < 1e-6


def test_ground_emitter_claiming_airborne_track_is_suspect():
    true_position = (-5000.0, 8000.0, 150.0)
    claimed = (4000.0, 3000.0, 3600.0)
    arrivals = sentinel.observe_arrivals(true_position, SENSORS)
    verdict = sentinel.toa_consistency(claimed, arrivals)
    assert verdict.flag == sentinel.SUSPECT
    assert verdict.residual > sentinel.DEFAULT_RESIDUAL_THRESHOLD_M


def test_too_few_sensors_undetermined():
    position = (0.0, 0.0, 3000.0)
    arrivals = sentinel.observe_arrivals(position, SENSORS[:3])
    assert sentinel.toa_consistency(position, arrivals).flag == sentinel.UNDETERMINED


def test_residual_scales_with_noise():
    """Small clock jitter keeps a truthful claim comfortably below the
    threshold; microsecond-scale jitter stays within a few hundred metres."""

    rng = np.random.default_rng(0)
    position = (1000.0, -2000.0, 3000.0)
    residuals = []
    for _ in range(200):
        arrivals = sentinel.observe_arrivals(position, SENSORS, rng=rng, clock_jitter_s=1e-6)
        residuals.append(sentinel.toa_residual_m(position, arrivals))
    assert float(np.mean(residuals)) < 500.0


@pytest.mark.parametrize("residual", [math.nan, math.inf])
def test_non_finite_residual_is_undetermined(residual):
    verdict = sentinel.classify(residual, sentinel.DEFAULT_RESIDUAL_THRESHOLD_M, "m")
    assert verdict.flag == sentinel.UNDETERMINED
    assert "not finite" in verdict.reason


def test_observe_arrivals_requires_rng_with_jitter():
    with pytest.raises(ValueError):
        sentinel.observe_arrivals((0.0, 0.0, 0.0), SENSORS, clock_jitter_s=1e-9)


def test_verdicts_are_replayable():
    position = (-5000.0, 8000.0, 150.0)
    claimed = (4000.0, 3000.0, 3600.0)
    arrivals = sentinel.observe_arrivals(position, SENSORS)
    v1 = sentinel.toa_consistency(claimed, arrivals)
    v2 = sentinel.toa_consistency(claimed, arrivals)
    assert v1 == v2


# ---------------------------------------------------------------------------
# The batched kernel against the scalar code it replaced, kept here as the
# reference: one message at a time, one `np.linalg.norm` per sensor and one
# jitter draw per timestamp.


def _ref_offsets(position, sensors):
    p = np.asarray(position, dtype=float)
    return np.array(
        [np.linalg.norm(np.asarray(s.position) - p) / SPEED_OF_LIGHT for s in sensors]
    )


def _ref_residual_m(claimed_position, arrivals):
    sensors = [s for s, _ in arrivals]
    observed = np.array([t for _, t in arrivals])
    predicted = _ref_offsets(claimed_position, sensors)
    diffs = []
    for i, j in itertools.combinations(range(len(sensors)), 2):
        diffs.append((observed[i] - observed[j]) - (predicted[i] - predicted[j]))
    return float(SPEED_OF_LIGHT * math.sqrt(np.mean(np.square(diffs))))


def _ref_observe_arrivals(true_position, sensors, rng=None, clock_jitter_s=0.0,
                          emission_time=0.0):
    arrivals = []
    for sensor, dt in zip(sensors, _ref_offsets(true_position, sensors)):
        t = emission_time + dt
        if clock_jitter_s > 0:
            t += float(rng.normal(0.0, clock_jitter_s))
        arrivals.append((sensor, t))
    return arrivals


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


_coordinate = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    extent=st.floats(1.0, 5e6),
    batch=st.integers(1, 300),
    spread=st.floats(1.0, 1e6),
    jitter_s=st.just(0.0) | st.floats(1e-12, 1e-5),
    points=st.lists(st.tuples(_coordinate, _coordinate, _coordinate), max_size=3),
)
def test_batched_toa_kernel_matches_scalar_reference(seed, extent, batch, spread, jitter_s,
                                                     points):
    """Property: over a batch of messages, `arrival_times` and `residuals_m`
    give the scalar reference's residuals to the bit and leave the jitter RNG
    in the same state, and the one-message wrappers give its arrivals (at
    emission time 0), residuals and verdicts to the bit, for any sensor
    extent, jitter (none included) and batch size."""

    data = np.random.default_rng(seed)
    sensors = sentinel.default_sensor_grid(extent)
    true_pos = data.uniform(-spread, spread, (batch, 3))
    claimed = data.uniform(-spread, spread, (batch, 3))
    # Points drawn by hypothesis, and a sensor's own position (distance 0).
    for k, point in enumerate(points + [sensors[seed % 4].position]):
        true_pos[k % batch] = point
        claimed[(k + 1) % batch] = point
    times = data.uniform(0.0, 3600.0, batch).round(1)

    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    reference = [
        _ref_residual_m(c, _ref_observe_arrivals(p, sensors, ref_rng, jitter_s, t))
        for p, c, t in zip(true_pos.tolist(), claimed.tolist(), times.tolist())
    ]
    arrivals = sentinel.arrival_times(true_pos, times.tolist(), sensors, rng, jitter_s)
    assert _bits(sentinel.residuals_m(claimed, arrivals, sensors)) == _bits(reference)
    assert rng.bit_generator.state == ref_rng.bit_generator.state

    for p, c in zip(true_pos.tolist()[:3], claimed.tolist()[:3]):
        expected = _ref_observe_arrivals(p, sensors, ref_rng, jitter_s)
        got = sentinel.observe_arrivals(p, sensors, rng=rng, clock_jitter_s=jitter_s)
        assert [s for s, _ in got] == sensors
        assert _bits([x for _, x in got]) == _bits([x for _, x in expected])
        residual = _ref_residual_m(c, expected)
        assert _bits(sentinel.toa_residual_m(c, got)) == _bits(residual)
        verdict = sentinel.toa_consistency(c, got)
        assert _bits(verdict.residual) == _bits(residual)
        assert verdict.flag == (sentinel.SUSPECT if residual > sentinel.DEFAULT_RESIDUAL_THRESHOLD_M
                                else sentinel.CLEAN)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
