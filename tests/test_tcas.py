"""Surveillance, advisory logic, whisper-shout and false-intruder tests.  The
Mode S cycle, the transponder and the per-track advisory decision are the
scalar references in `reference.py`."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spoofsim import tcas
from spoofsim.world import AircraftState
from spoofsim.units import ft_to_m

from reference import ModeSTransponder, mode_s_cycle, scalar_advise, uniform_start_episode


def cruise_state(along=0.0, altitude_m=3000.0, gs=100.0):
    return AircraftState(
        time=0.0, ground_position=(along, 0.0), altitude_msl=altitude_m,
        vertical_speed=0.0, ground_speed=gs, heading=0.0,
    )


def fixed_state_fn(state):
    return lambda t: state


def position(state):
    """The (x, y, z) position a Mode S cycle interrogates from."""

    x, y = state.ground_position
    return x, y, state.altitude_msl


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
    msg = tcas.SurveillanceMessage(kind=tcas.MODE_S_REPLY, timestamp=0.0, icao_id=0xABCDEF)
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


def _beside(x):
    return [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]


@st.composite
def _alerting_cases(draw):
    """Thresholds, and (tau, relative altitude, mode) per track: tau at and
    beside each threshold, +/-0.0, inf and NaN; the altitude on and beside
    both band edges, above and below, and +/-0.0.  Few distinct values, so
    tracks often tie."""

    tau_ta = draw(st.sampled_from([48.0, 13.0]) | st.floats(1.0, 90.0))
    ta_band = draw(st.sampled_from([1200.0, 100.0]) | st.floats(100.0, 2000.0))
    th = tcas.AdvisoryThresholds(
        tau_ta_s=tau_ta, tau_ra_s=draw(st.floats(0.5, tau_ta, exclude_max=True)),
        ta_band_ft=ta_band, ra_band_ft=draw(st.floats(50.0, ta_band)))
    taus = st.sampled_from(_beside(th.tau_ta_s) + _beside(th.tau_ra_s)
                           + [0.0, -0.0, 1.0, math.inf, math.nan]) | st.floats(0.0, 100.0)
    edges = _beside(th.ta_band_ft) + _beside(th.ra_band_ft)
    rels = st.sampled_from(edges + [-e for e in edges] + [0.0, -0.0])
    tracks = draw(st.lists(st.tuples(taus, rels, st.sampled_from([tcas.TA_RA, tcas.TA_ONLY])),
                           min_size=1, max_size=6))
    return th, tracks


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_alerting_cases(), mode=st.sampled_from([tcas.STANDBY, tcas.TA_ONLY, tcas.TA_RA]))
def test_alert_levels_equal_scalar_decision(case, mode):
    """Property: `tcas.alert_levels`, over floats and elementwise over
    arrays, and `tcas.advise` over tracks of each tau and relative altitude,
    decide as `reference.scalar_advise` does, threshold by threshold: the
    same level per track, and the same advisory (of the advising track of
    least tau, the first on a tie) over all of them, in all three modes."""

    th, tracks = case
    taus, rels, modes = (list(column) for column in zip(*tracks))

    def level(ta, ra):
        assert ta or not ra  # an RA is always a TA
        return "RA" if ra else "TA" if ta else None

    levels = [getattr(scalar_advise([(tau, rel)], m, th), "level", None)
              for tau, rel, m in tracks]
    assert [level(*tcas.alert_levels(tau, rel, m == tcas.TA_RA, th))
            for tau, rel, m in tracks] == levels
    ta, ra = tcas.alert_levels(np.array(taus), np.array(rels),
                               np.array(modes) == tcas.TA_RA, th)
    assert [level(*pair) for pair in zip(ta.tolist(), ra.tolist())] == levels

    # A track's range is positive, so a tau of 0 has none.  One closing at
    # 1 m/s has tau equal to its range; a closure of 0 or NaN reads inf or NaN.
    def track(tau, rel):
        finite = tau < math.inf
        return tcas.IntruderTrack(icao_id=None, slant_range=tau if finite else 1.0, bearing=0.0,
                                  relative_altitude=rel, last_update=0.0,
                                  closure_rate=1.0 if finite else 0.0 if tau > 0 else math.nan)

    tracks = [track(tau, rel) for tau, rel in zip(taus, rels) if tau != 0]
    pairs = [(tr.tau(), tr.relative_altitude) for tr in tracks]
    assert tcas.advise(tracks, None, mode, th, t=3.0) == scalar_advise(pairs, mode, th, t=3.0)


# ---------------------------------------------------------------------------
# surveillance cycles


def test_mode_s_cycle_tracks_squittering_target():
    own = cruise_state()
    unit = tcas.TcasUnit(rng=np.random.default_rng(0))
    intruder0 = cruise_state(along=9000.0, altitude_m=own.altitude_msl - ft_to_m(500.0))
    claims = mode_s_cycle(
        unit, position(own), [ModeSTransponder(0x123456, "S", fixed_state_fn(intruder0))], 0.0)
    assert [icao_id for icao_id, _, _ in claims] == [0x123456]
    track = unit.tracks[0x123456]
    assert math.isclose(track.slant_range, math.hypot(9000.0, ft_to_m(500.0)), rel_tol=1e-9)
    assert track.closure_rate == 0.0

    intruder1 = cruise_state(along=8820.0, altitude_m=intruder0.altitude_msl)
    mode_s_cycle(
        unit, position(own), [ModeSTransponder(0x123456, "S", fixed_state_fn(intruder1))], 1.0)
    track = unit.tracks[0x123456]
    assert math.isclose(track.closure_rate, 180.0, abs_tol=2.0)
    assert math.isclose(track.relative_altitude, -500.0, abs_tol=1e-6)


def test_mode_s_cycle_standby_is_silent():
    class Unasked(ModeSTransponder):
        def claim(self, t, interrogator):
            raise AssertionError("a Standby unit interrogates no one")

        respond_mode_s = claim

    unit = tcas.TcasUnit(mode=tcas.STANDBY)
    responder = Unasked(0x1, "S", fixed_state_fn(cruise_state(along=5000.0)))
    assert mode_s_cycle(unit, position(cruise_state()), [responder], 0.0) == []
    assert unit.tracks == {}


def test_mode_s_cycle_mixed_responders():
    """Mode S transponders and the active injector are tracked under their
    ids; Mode C transponders and an injector below its floor give no reply.
    Each claim the cycle returns is the content of the responder's reply
    message."""

    own = cruise_state(altitude_m=ft_to_m(12_000.0))
    unit = tcas.TcasUnit(rng=np.random.default_rng(0))
    active, _ = make_injector()
    below, _ = make_injector(agl_ft=1500.0)
    active.start_episode(0.0)
    below.start_episode(0.0)
    responders = [
        ModeSTransponder(None, "C", fixed_state_fn(cruise_state(along=4000.0))),
        ModeSTransponder(0x00AAAA, "S", fixed_state_fn(cruise_state(along=6000.0))),
        below,
        active,
        ModeSTransponder(0x00BBBB, "S", fixed_state_fn(cruise_state(along=-7000.0))),
        ModeSTransponder(None, "C", fixed_state_fn(cruise_state(along=-3000.0))),
    ]
    claims = mode_s_cycle(unit, position(own), responders, 0.0)
    ids = [0x00AAAA, active.icao_id, 0x00BBBB]
    assert [icao_id for icao_id, _, _ in claims] == ids
    replies = [m for m in (r.respond_mode_s(0.0) for r in responders) if m is not None]
    assert [(m.icao_id, m.altitude, m.claimed_position) for m in replies] == claims
    assert [m.origin for m in replies] == ["genuine", "adversarial", "genuine"]
    assert sorted(unit.tracks) == sorted(ids)
    assert unit.tracks[active.icao_id].relative_altitude == pytest.approx(-500.0)


def test_stale_tracks_dropped():
    unit = tcas.TcasUnit(rng=np.random.default_rng(0))
    unit.tracks[1] = make_track(40.0, -500.0)
    unit.drop_stale(100.0)
    assert unit.tracks == {}


def test_mode_s_cycle_drops_stale_tracks():
    """A cycle drops a track not updated for longer than the staleness limit,
    whether another track is updated beside it or no responder replies; the
    track a cycle updates is the live one, updated in place."""

    own = position(cruise_state())
    unit = tcas.TcasUnit(rng=np.random.default_rng(0))
    first = ModeSTransponder(0x1, "S", fixed_state_fn(cruise_state(along=9000.0)))
    second = ModeSTransponder(0x2, "S", fixed_state_fn(cruise_state(along=-9000.0)))
    mode_s_cycle(unit, own, [first], 0.0)
    track = unit.tracks[0x1]
    mode_s_cycle(unit, own, [first, second], 1.0)
    assert unit.tracks[0x1] is track and track.last_update == 1.0
    mode_s_cycle(unit, own, [second], 1.0 + tcas.TRACK_STALENESS_S + 1.0)
    assert sorted(unit.tracks) == [0x2]
    mode_s_cycle(unit, own, [], 2.0 * tcas.TRACK_STALENESS_S + 3.0)
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
        audible = 54.0 - tcas.free_space_path_loss_db(distance) >= tcas.DEFAULT_SENSITIVITY_DBM
        replied = tuple(tr.position(0.0)) in positions
        assert replied == audible


def test_whisper_shout_requires_increasing_steps():
    unit = tcas.TcasUnit(rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        unit.mode_c_cycle(cruise_state(), [40.0, 30.0], tcas.Channel(), 0.0)


#: Coordinates, m: signed zeros, flight-scale values, and any finite float
#: (differences of the largest overflow to infinity on both sides).
_coords = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(min_value=-1e5, max_value=1e5),
    st.floats(allow_nan=False, allow_infinity=False),
)
_points = st.tuples(_coords, _coords, _coords)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(own=_points, claimed=_points)
def test_slant_range_equals_numpy_norm(own, claimed):
    """The surveillance cycle's scalar slant range is equal to the last bit
    to ``np.linalg.norm`` of the difference vector, so tracks, advisories
    and logs keep their bytes."""

    with np.errstate(over="ignore", invalid="ignore"):
        expected = float(np.linalg.norm(np.array(claimed) - np.array(own)))
        assert tcas.slant_range(own, claimed) == expected


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rows=st.integers(min_value=1, max_value=300),
    extent=st.sampled_from([1e3, 1e6, 1e7]),
)
def test_slant_ranges_equal_numpy_norm(seed, rows, extent):
    """The encounter kernel's batched slant range (`tcas.slant_ranges`, a
    vector-vector `np.matmul` per row) equals ``np.linalg.norm`` of each
    row's difference to the bit, for points anywhere within ``extent`` and
    differences from 1e-2 to 1e5 m, so logs keep their bytes on every numpy
    the package accepts."""

    rng = np.random.default_rng(seed)
    own = rng.uniform(-extent, extent, (rows, 3))
    direction = rng.normal(size=(rows, 3))
    length = 10.0 ** rng.uniform(-2.0, 5.0, (rows, 1))
    other = own + direction / np.linalg.norm(direction, axis=1, keepdims=True) * length
    batched = tcas.slant_ranges(own, other)
    assert batched.shape == (rows,)
    expected = [float(np.linalg.norm(p - o)).hex() for o, p in zip(own, other)]
    assert [v.hex() for v in batched.tolist()] == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    along=_coords.filter(lambda v: abs(v) <= 1e7),
    cross=_coords.filter(lambda v: abs(v) <= 1e7),
    altitude=st.floats(min_value=-500.0, max_value=20_000.0),
    t=st.floats(min_value=0.0, max_value=200.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    start_tau=st.floats(min_value=0.5, max_value=120.0),
    offset_ft=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3000.0, 3000.0)),
)
def test_intruder_position_equals_array_sum(along, cross, altitude, t, seed, start_tau,
                                            offset_ft):
    """The float-tuple claimed position is bit for bit the array sum it
    replaced: the own position plus the offset at the claimed range and
    bearing, element by element."""

    plan = tcas.FalseIntruderPlan(start_tau_s=start_tau, vertical_offset=offset_ft)
    own = AircraftState(
        time=0.0, ground_position=(along, cross), altitude_msl=altitude,
        vertical_speed=0.0, ground_speed=200.0, heading=0.0,
    )
    injector = tcas.FalseIntruderInjector(
        plan, np.random.default_rng(seed), target_fn=fixed_state_fn(own),
        target_agl_fn=lambda t: math.inf)
    injector.start_episode(0.0)
    claimed = injector.claim(t)[2]
    speed, theta = injector._speed, math.radians(injector._bearing)
    r = max(tcas.CLAIM_FLOOR_M, speed * plan.start_tau_s - speed * (t - 0.0))
    expected = tcas.own_position_3d(own) + np.array(
        [r * math.cos(theta), r * math.sin(theta), ft_to_m(plan.vertical_offset)])
    assert type(claimed) is tuple and len(claimed) == 3
    assert [v.hex() for v in claimed] == [float(v).hex() for v in expected]


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
    assert injector.respond_mode_s(0.0) is None


_JITTERS = st.sampled_from([0.0, 5e-324, 1e-310, 180.0]) | st.floats(0.0, 180.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    bearing_jitter=_JITTERS,
    speed_jitter=_JITTERS | st.sampled_from([1e6, 1e300, sys.float_info.max / 2]),
    episodes=st.integers(min_value=2, max_value=7),
)
def test_start_episode_draws_as_uniform(seed, bearing_jitter, speed_jitter, episodes):
    """Property: over consecutive encounters, so that the doubles interleave
    with `integers`' buffered draws, `start_episode` sets the bearing, speed
    and ICAO id that `Generator.uniform` and `integers` give, to the bit,
    for jitters from 0 through subnormals to the schema's bounds."""

    plan = tcas.FalseIntruderPlan(bearing_jitter_deg=bearing_jitter,
                                  speed_jitter_mps=speed_jitter)
    own = cruise_state()
    injector, reference = (
        tcas.FalseIntruderInjector(plan, np.random.default_rng(seed),
                                   target_fn=fixed_state_fn(own))
        for _ in range(2))
    for k in range(episodes):
        injector.start_episode(float(k))
        uniform_start_episode(reference, float(k))
        assert ((injector._bearing.hex(), injector._speed.hex(), injector.icao_id)
                == (reference._bearing.hex(), reference._speed.hex(), reference.icao_id))
    assert injector.rng.random() == reference.rng.random()


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    t=st.floats(min_value=0.0, max_value=60.0),
    episodes=st.integers(min_value=2, max_value=4),
)
def test_injector_claim_recomputed_each_encounter(seed, t, episodes):
    """A new encounter at the same t claims the new encounter's geometry:
    the position at the drawn bearing and the start range."""

    plan = tcas.FalseIntruderPlan()
    own = cruise_state(altitude_m=ft_to_m(12_000.0))
    injector = tcas.FalseIntruderInjector(
        plan, np.random.default_rng(seed), target_fn=fixed_state_fn(own),
    )
    claims = []
    for _ in range(episodes):
        injector.start_episode(t)
        claimed = injector.claim(t)[2]
        offset = claimed - tcas.own_position_3d(own)
        theta = math.radians(injector._bearing)
        r = injector._speed * plan.start_tau_s
        assert offset == pytest.approx([r * math.cos(theta), r * math.sin(theta),
                                        ft_to_m(plan.vertical_offset)], abs=1e-6)
        claims.append(tuple(claimed))
    assert len(set(claims)) == episodes


def test_injector_claims_converging_geometry():
    injector, own = make_injector()
    injector.start_episode(0.0)
    p0 = injector.claim(0.0)[2]
    p10 = injector.claim(10.0)[2]
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
    injector.start_episode(0.0)
    levels = []
    for t in (0.0, 1.0, 2.0, 3.0, 21.0):
        mode_s_cycle(unit, position(own), [injector], t)
        adv = tcas.advise(list(unit.tracks.values()), None, unit.mode, unit.thresholds, t)
        if adv is not None:
            levels.append(adv.level)
    assert "TA" in levels and "RA" in levels
    assert levels.index("TA") < levels.index("RA")
