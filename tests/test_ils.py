"""Glideslope DDM, capture, PAPI and displaced-path geometry tests."""

import math

import pytest
from hypothesis import given, strategies as st

from spoofsim import ils
from spoofsim.world import AircraftState, RunwayModel
from spoofsim.units import m_to_ft

RUNWAY = RunwayModel(
    threshold_position=0.0, touchdown_zone_offset=300.0,
    elevation=0.0, true_bearing=0.0, length=2600.0,
)
GENUINE = ils.GlideslopeTx(antenna_position=300.0)


def aircraft_at(along, height):
    return AircraftState(
        time=0.0, ground_position=(along, 0.0), altitude_msl=height,
        vertical_speed=-3.5, ground_speed=66.0, heading=0.0,
    )


def on_path_aircraft(tx, height):
    along = RUNWAY.threshold_position + tx.antenna_position - height / math.tan(
        math.radians(tx.path_angle)
    )
    return aircraft_at(along, height)


def test_tx_validation():
    with pytest.raises(ValueError):
        ils.GlideslopeTx(0.0, path_angle=0.0)
    with pytest.raises(ValueError):
        ils.GlideslopeTx(0.0, tx_power=0.0)
    with pytest.raises(ValueError):
        ils.GlideslopeTx(0.0, legitimacy="unknown")


def test_on_path_centred():
    ind = ils.receive(on_path_aircraft(GENUINE, 200.0), [GENUINE], RUNWAY)
    assert ind.valid
    assert abs(ind.ddm) < 1e-9
    assert abs(ind.deviation_dots) < 1e-9


def test_ddm_sign_and_linearity():
    # Below path -> negative DDM (fly up); half scale at 0.35 deg.
    high = on_path_aircraft(GENUINE, 300.0)
    dist = RUNWAY.threshold_position + GENUINE.antenna_position - high.along_track
    low_height = dist * math.tan(math.radians(3.0 - 0.35))
    ind = ils.receive(aircraft_at(high.along_track, low_height), [GENUINE], RUNWAY)
    assert ind.ddm == pytest.approx(-ils.FULL_SCALE_DDM / 2.0, rel=1e-6)
    assert ind.deviation_dots == pytest.approx(-1.0, rel=1e-6)


def test_ddm_saturates_at_full_scale():
    ind = ils.receive(aircraft_at(-5000.0, 1000.0), [GENUINE], RUNWAY)
    assert ind.ddm == ils.FULL_SCALE_DDM
    assert ind.deviation_dots == 2.0


def test_out_of_range_invalid():
    ind = ils.receive(aircraft_at(-60_000.0, 3000.0), [GENUINE], RUNWAY)
    assert not ind.valid
    assert ind.captured_source is None


def test_capture_strongest_and_genuine_tiebreak():
    rogue = ils.GlideslopeTx(2350.0, tx_power=50.0, legitimacy="adversarial")
    far = on_path_aircraft(rogue, 300.0)
    ind = ils.receive(far, [GENUINE, rogue], RUNWAY)
    assert ind.captured_source is rogue

    twin = ils.GlideslopeTx(300.0, tx_power=GENUINE.tx_power, legitimacy="adversarial")
    ind = ils.receive(on_path_aircraft(GENUINE, 300.0), [twin, GENUINE], RUNWAY)
    assert ind.captured_source.legitimacy == "genuine"


@given(st.floats(min_value=1.1, max_value=40.0))
def test_capture_monotone_in_power(power_ratio):
    """The stronger of two co-angle transmitters is always captured."""

    rogue = ils.GlideslopeTx(2350.0, tx_power=5.0 * power_ratio, legitimacy="adversarial")
    aircraft = on_path_aircraft(rogue, 450.0)
    d_genuine = 300.0 - aircraft.along_track
    d_rogue = 2350.0 - aircraft.along_track
    ind = ils.receive(aircraft, [GENUINE, rogue], RUNWAY)
    stronger_rogue = rogue.tx_power / d_rogue**2 > GENUINE.tx_power / d_genuine**2
    assert (ind.captured_source is rogue) == stronger_rogue


def test_papi_bands():
    # Approach angles in each band relative to the touchdown zone.
    for angle, whites in [(2.0, 0), (2.6, 1), (3.0, 2), (3.3, 3), (4.0, 4)]:
        dist = 3000.0
        aircraft = aircraft_at(300.0 - dist, dist * math.tan(math.radians(angle)))
        assert ils.papi(aircraft, RUNWAY).whites == whites


def test_papi_requires_approach_side():
    with pytest.raises(ValueError):
        ils.papi(aircraft_at(10.0, 100.0), RUNWAY)


def test_papi_band_shift_follows_nominal_angle():
    dist = 3000.0
    aircraft = aircraft_at(300.0 - dist, dist * math.tan(math.radians(3.5)))
    assert ils.papi(aircraft, RUNWAY, nominal_angle=3.5).whites == 2


def test_displaced_path_offsets():
    """An equal-angle path displaced along the runway sits a constant height
    above the genuine one: 1 km -> ~172 ft, 2.05 km -> ~352 ft."""

    off1 = ils.false_path_height_offset(1000.0, 3.0)
    off2 = ils.false_path_height_offset(2050.0, 3.0)
    assert math.isclose(off1, 1000.0 * math.tan(math.radians(3.0)), rel_tol=1e-12)
    assert abs(m_to_ft(off1) - 172.0) < 2.0
    assert abs(m_to_ft(off2) - 352.0) < 2.0


def test_displaced_path_offset_constant_along_approach():
    rogue = ils.GlideslopeTx(2350.0, tx_power=50.0, legitimacy="adversarial")
    offset = ils.false_path_height_offset(2050.0, 3.0)
    for height in (150.0, 300.0, 450.0):
        aircraft = on_path_aircraft(rogue, height)
        genuine_dist = 300.0 - aircraft.along_track
        genuine_path = genuine_dist * math.tan(math.radians(3.0))
        assert math.isclose(height - genuine_path, offset, rel_tol=1e-9)
