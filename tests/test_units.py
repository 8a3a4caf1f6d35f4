"""Unit-conversion round-trips and constants."""

import math

from hypothesis import given, strategies as st

from spoofsim import units

FINITE = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)


def test_constants():
    assert units.SPEED_OF_LIGHT == 2.998e8
    assert units.M_PER_FT == 0.3048
    assert units.M_PER_STATUTE_MILE == 1609.344
    assert math.isclose(units.MPS_PER_KN, 0.5144, rel_tol=1e-3)


@given(FINITE)
def test_ft_round_trip(x):
    assert math.isclose(units.m_to_ft(units.ft_to_m(x)), x, rel_tol=1e-9, abs_tol=1e-9)


@given(FINITE)
def test_fpm_round_trip(x):
    assert math.isclose(units.mps_to_fpm(units.fpm_to_mps(x)), x, rel_tol=1e-9, abs_tol=1e-9)


def test_known_values():
    assert units.ft_to_m(1000.0) == 304.8
    assert math.isclose(units.kn_to_mps(130.0), 66.8778, abs_tol=1e-3)
    assert math.isclose(units.fpm_to_mps(700.0), 3.556, abs_tol=1e-3)
