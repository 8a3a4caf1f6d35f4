"""Surveillance, advisory logic, whisper-shout and false-intruder tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spoofsim import tcas
from spoofsim.world import AircraftState
from spoofsim.units import ft_to_m


def cruise_state(along=0.0, altitude_m=3000.0, gs=100.0):
    return AircraftState(
        time=0.0, ground_position=(along, 0.0), altitude_msl=altitude_m,
        vertical_speed=0.0, ground_speed=gs, heading=0.0,
    )


def fixed_state_fn(state):
    return lambda t: state


# ---------------------------------------------------------------------------
# link budget and messages


def test_free_space_path_loss():
    # 20*log10(4*pi*d/lambda) at 1 km and 1030 MHz.
    expected = 20.0 * math.log10(4.0 * math.pi * 1000.0 / 0.2911)
    assert math.isclose(tcas.free_space_path_loss_db(1000.0), expected, rel_tol=1e-12)
    assert math.isclose(tcas.free_space_path_loss_db(1000.0), 92.7, abs_tol=0.05)


def test_max_power_floor_reachability():
    # At the 54 dBm ceiling a -74 dBm receiver hears out to tens of km.
    received = tcas.MAX_TX_POWER_DBM - tcas.free_space_path_loss_db(30_000.0)
    assert received > tcas.DEFAULT_SENSITIVITY_DBM


def test_message_validation():
    with pytest.raises(ValueError):
        tcas.SurveillanceMessage(kind=tcas.MODE_C_REPLY, timestamp=0.0, icao_id=1)
    with pytest.raises(ValueError):
        tcas.SurveillanceMessage(kind=tcas.MODE_S_REPLY, timestamp=0.0)
    with pytest.raises(ValueError):
        tcas.SurveillanceMessage(kind=tcas.MODE_S_REPLY, timestamp=0.0, icao_id=2**24)
    msg = tcas.SurveillanceMessage(kind=tcas.SQUITTER, timestamp=0.0, icao_id=0xABCDEF)
    assert msg.to_record()["icao_id"] == 0xABCDEF


def test_track_tau():
    track = tcas.IntruderTrack(
        icao_id=1, slant_range=9000.0, bearing=0.0,
        relative_altitude=-500.0, closure_rate=180.0, last_update=0.0,
    )
    assert math.isclose(track.tau(), 50.0, rel_tol=1e-12)
    diverging = tcas.IntruderTrack(1, 9000.0, 0.0, -500.0, -10.0, 0.0)
    assert diverging.tau() == math.inf
    with pytest.raises(ValueError):
        tcas.IntruderTrack(1, 0.0, 0.0, 0.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# advisory logic


def make_track(tau_s, rel_alt_ft, closure=180.0):
    return tcas.IntruderTrack(
        icao_id=7, slant_range=tau_s * closure, bearing=45.0,
        relative_altitude=rel_alt_ft, closure_rate=closure, last_update=0.0,
    )


def test_advise_thresholds():
    own = cruise_state()
    assert tcas.advise([make_track(60.0, -500.0)], own, tcas.TA_RA) is None
    ta = tcas.advise([make_track(40.0, -500.0)], own, tcas.TA_RA)
    assert ta is not None and ta.level == "TA"
    ra = tcas.advise([make_track(25.0, -500.0)], own, tcas.TA_RA)
    assert ra is not None and ra.level == "RA"


def test_advise_vertical_bands():
    own = cruise_state()
    # Inside RA tau but outside the 600 ft RA band: TA only.
    adv = tcas.advise([make_track(25.0, 900.0)], own, tcas.TA_RA)
    assert adv.level == "TA"
    # Outside the 1200 ft TA band entirely.
    assert tcas.advise([make_track(25.0, 1500.0)], own, tcas.TA_RA) is None


def test_ra_sense_opposes_intruder():
    own = cruise_state()
    below = tcas.advise([make_track(25.0, -500.0)], own, tcas.TA_RA)
    assert below.ra_sense == "CLIMB" and below.commanded_rate == 1500.0
    above = tcas.advise([make_track(25.0, 500.0)], own, tcas.TA_RA)
    assert above.ra_sense == "DESCEND" and above.commanded_rate == -1500.0
    level = tcas.advise([make_track(25.0, 0.0)], own, tcas.TA_RA)
    assert level.ra_sense == "HOLD_VS"


def test_mode_gates_advisories():
    own = cruise_state()
    track = make_track(25.0, -500.0)
    assert tcas.advise([track], own, tcas.STANDBY) is None
    ta_only = tcas.advise([track], own, tcas.TA_ONLY)
    assert ta_only.level == "TA"


@settings(max_examples=1000, deadline=None)
@given(
    st.floats(min_value=49.0, max_value=200.0),   # initial tau, s
    st.floats(min_value=30.0, max_value=300.0),   # closure, m/s
    st.floats(min_value=-600.0, max_value=600.0),  # relative altitude, ft
)
def test_ta_precedes_ra_on_linear_encounters(tau0, closure, rel_alt):
    """Sampling a converging straight-line encounter at 1 Hz always yields a
    TA strictly before the first RA."""

    own = cruise_state()
    first = None
    for k in range(int(tau0) + 1):
        tau = tau0 - k
        if tau <= 0.1:
            break
        track = tcas.IntruderTrack(
            icao_id=1, slant_range=tau * closure, bearing=0.0,
            relative_altitude=rel_alt, closure_rate=closure, last_update=float(k),
        )
        adv = tcas.advise([track], own, tcas.TA_RA, t=float(k))
        if adv is not None and first is None:
            first = adv
        if adv is not None and adv.level == "RA":
            assert first.level == "TA"
            assert first.time < adv.time
            return
    # Encounters that never reach the RA region must never emit one.
    assert first is None or first.level == "TA"


# ---------------------------------------------------------------------------
# surveillance cycles


def test_mode_s_cycle_tracks_squittering_target():
    own = cruise_state()
    unit = tcas.TcasUnit(rng=np.random.default_rng(0))
    channel = tcas.Channel()
    intruder0 = cruise_state(along=9000.0, altitude_m=own.altitude_msl - ft_to_m(500.0))
    channel.register(tcas.Transponder(0x123456, "S", fixed_state_fn(intruder0)))
    unit.mode_s_cycle(own, channel, 0.0)
    track = unit.tracks[0x123456]
    assert math.isclose(track.slant_range, math.hypot(9000.0, ft_to_m(500.0)), rel_tol=1e-9)
    assert track.closure_rate == 0.0

    channel.responders.clear()
    intruder1 = cruise_state(along=8820.0, altitude_m=intruder0.altitude_msl)
    channel.register(tcas.Transponder(0x123456, "S", fixed_state_fn(intruder1)))
    unit.mode_s_cycle(own, channel, 1.0)
    track = unit.tracks[0x123456]
    assert math.isclose(track.closure_rate, 180.0, abs_tol=2.0)
    assert math.isclose(track.relative_altitude, -500.0, abs_tol=1e-6)


def test_mode_s_cycle_standby_is_silent():
    unit = tcas.TcasUnit(mode=tcas.STANDBY)
    channel = tcas.Channel()
    channel.register(tcas.Transponder(0x1, "S", fixed_state_fn(cruise_state(along=5000.0))))
    unit.mode_s_cycle(cruise_state(), channel, 0.0)
    assert channel.log == []


def test_stale_tracks_dropped():
    unit = tcas.TcasUnit(rng=np.random.default_rng(0))
    unit.tracks[1] = make_track(40.0, -500.0)
    unit.drop_stale(100.0)
    assert unit.tracks == {}


def test_duplicate_address_farther_is_ignored():
    own = cruise_state()
    unit = tcas.TcasUnit(rng=np.random.default_rng(0))
    near = unit._update_track(
        1, 0.0, np.array([0.0, 0.0, 3000.0]), 9843.0,
        np.array([5000.0, 0.0, 3000.0]), 9843.0, 0.0, 1,
    )
    far = unit._update_track(
        1, 0.0, np.array([0.0, 0.0, 3000.0]), 9843.0,
        np.array([20000.0, 0.0, 3000.0]), 9843.0, 0.0, 1,
    )
    assert far is near
    assert unit.tracks[1].slant_range == pytest.approx(5000.0)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=2000.0, max_value=40_000.0),   # along, m
            st.floats(min_value=-20_000.0, max_value=20_000.0),  # cross, m
            st.floats(min_value=500.0, max_value=5000.0),      # altitude, m
        ),
        min_size=1, max_size=6,
    )
)
def test_whisper_shout_one_reply_per_cycle(fleet):
    """Every in-range Mode C aircraft replies exactly once per full
    whisper-shout cycle regardless of fleet geometry."""

    own = cruise_state()
    unit = tcas.TcasUnit(rng=np.random.default_rng(0))
    channel = tcas.Channel()
    responders = []
    fleet = list(dict.fromkeys(fleet))  # distinct positions only
    for along, cross, alt in fleet:
        state = AircraftState(
            time=0.0, ground_position=(along, cross), altitude_msl=alt,
            vertical_speed=0.0, ground_speed=100.0, heading=0.0,
        )
        tr = tcas.Transponder(None, "C", fixed_state_fn(state))
        responders.append(tr)
        channel.register(tr)
    unit.mode_c_cycle(own, [30.0, 40.0, 48.0, 54.0], channel, 0.0)
    replies = [m for m in channel.log if m.kind == tcas.MODE_C_REPLY]
    positions = [m.position for m in replies]
    assert len(positions) == len(set(positions))  # at most one reply each
    for tr in responders:
        distance = float(np.linalg.norm(tr.position(0.0) - np.array([0.0, 0.0, 3000.0])))
        audible = 54.0 - tcas.free_space_path_loss_db(distance) >= tr.sensitivity
        replied = tuple(tr.position(0.0)) in positions
        assert replied == audible


def test_whisper_shout_requires_increasing_steps():
    unit = tcas.TcasUnit(rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        unit.mode_c_cycle(cruise_state(), [40.0, 30.0], tcas.Channel(), 0.0)


# ---------------------------------------------------------------------------
# false intruder


def make_injector(plan=None, agl_ft=11_000.0):
    plan = plan or tcas.FalseIntruderPlan()
    own = cruise_state(altitude_m=ft_to_m(12_000.0))
    rng = np.random.default_rng(3)
    return tcas.FalseIntruderInjector(
        plan, rng, target_fn=fixed_state_fn(own),
        target_agl_fn=lambda t: agl_ft,
        attacker_position=(-5000.0, 8000.0, 150.0),
    ), own


def test_injector_inactive_below_floor():
    injector, _ = make_injector(agl_ft=1500.0)
    injector.start_episode(0.0)
    assert not injector.active(0.0)
    assert injector.squitter(0.0) is None


def test_injector_budget_counts_ras_only():
    injector, _ = make_injector()
    injector.start_episode(0.0)
    for _ in range(5):
        injector.observe_advisory(tcas.Advisory(level="TA", time=0.0))
    assert injector.ras_observed == 0
    for _ in range(10):
        injector.observe_advisory(tcas.Advisory(level="RA", time=0.0, ra_sense="CLIMB"))
    assert injector.budget_exhausted()
    assert not injector.active(0.0)


def test_injector_claims_converging_geometry():
    injector, own = make_injector()
    injector.start_episode(0.0)
    p0 = injector.intruder_position(0.0)
    p10 = injector.intruder_position(10.0)
    own_pos = tcas.own_position_3d(own)
    assert np.linalg.norm(p10 - own_pos) < np.linalg.norm(p0 - own_pos)
    # Claimed track is airborne near the victim; emission point is the ground site.
    msg = injector.respond_mode_s(0.0)
    assert msg.origin == "adversarial"
    assert msg.position == (-5000.0, 8000.0, 150.0)
    assert msg.claimed_position != msg.position
    assert msg.altitude == pytest.approx(11_500.0)


def test_injector_drives_unit_to_ra():
    injector, own = make_injector()
    unit = tcas.TcasUnit(rng=np.random.default_rng(0))
    channel = tcas.Channel()
    channel.register(injector)
    injector.start_episode(0.0)
    levels = []
    for t in (0.0, 1.0, 2.0, 3.0, 21.0):
        unit.mode_s_cycle(own, channel, t)
        adv = unit.advise(own, t)
        if adv is not None:
            levels.append(adv.level)
    assert "TA" in levels and "RA" in levels
    assert levels.index("TA") < levels.index("RA")
