"""Spectrum-whitelist and time-of-arrival consistency tests."""

import numpy as np
import pytest

from spoofsim import sentinel

SENSORS = sentinel.default_sensor_grid()

GS_BAND = (328.6e6, 335.4e6)
GS_FINGERPRINT = sentinel.EmitterFingerprint(
    band_hz=GS_BAND, region=(-100.0, 500.0, -100.0, 100.0), max_power_db=10.0
)


def test_fingerprint_clean():
    obs = sentinel.SpectrumObservation(330e6, (300.0, 0.0), 7.0)
    assert sentinel.fingerprint_check(obs, [GS_FINGERPRINT]).flag == sentinel.CLEAN


def test_fingerprint_flags_region_breach():
    obs = sentinel.SpectrumObservation(330e6, (2350.0, 0.0), 7.0)
    verdict = sentinel.fingerprint_check(obs, [GS_FINGERPRINT])
    assert verdict.flag == sentinel.SUSPECT


def test_fingerprint_flags_power_breach():
    obs = sentinel.SpectrumObservation(330e6, (300.0, 0.0), 13.0)
    assert sentinel.fingerprint_check(obs, [GS_FINGERPRINT]).flag == sentinel.SUSPECT


def test_fingerprint_unmonitored_band():
    obs = sentinel.SpectrumObservation(1030e6, (300.0, 0.0), 7.0)
    assert sentinel.fingerprint_check(obs, [GS_FINGERPRINT]).flag == sentinel.UNDETERMINED


def test_fingerprint_validation():
    with pytest.raises(ValueError):
        sentinel.EmitterFingerprint((2.0, 1.0), (0.0, 1.0, 0.0, 1.0), 0.0)
    with pytest.raises(ValueError):
        sentinel.EmitterFingerprint((1.0, 2.0), (1.0, 0.0, 0.0, 1.0), 0.0)


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


def test_clock_bias_calibrated_out():
    biased = [
        sentinel.GroundSensor(s.sensor_id, s.position, clock_bias=1e-5 * i)
        for i, s in enumerate(SENSORS)
    ]
    position = (0.0, 0.0, 3000.0)
    arrivals = sentinel.observe_arrivals(position, biased)
    assert sentinel.toa_consistency(position, arrivals).flag == sentinel.CLEAN


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
