"""Calibrated pilot-policy sampling and action-table tests."""

import math
import unittest.mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spoofsim import crew, gpws, tcas
from spoofsim.harness import run
from spoofsim.harness.config import default_config_dict, make_config
from spoofsim.harness.runner import trial_seeds
from spoofsim.ils import GsIndication, PapiIndication


# ---------------------------------------------------------------------------
# bounded-normal machinery


def test_clipped_normal_mean_against_numeric():
    rng = np.random.default_rng(0)
    for mu, sd, lo, hi in [(2.8, 2.1, 0.0, math.inf), (5.0, 4.0, 0.0, 20.0),
                           (930.0, 235.8, 200.0, 1500.0)]:
        draws = np.clip(rng.normal(mu, sd, 200_000), lo, hi)
        assert math.isclose(
            crew.clipped_normal_mean(mu, sd, lo, hi), float(np.mean(draws)), abs_tol=0.05 * sd
        )


def test_truncated_normal_preserves_mean():
    """Plain clipping biases the mean upward at a lower bound; the sampler
    re-centres so the post-clip mean matches the target."""

    rng = np.random.default_rng(1)
    biased = np.clip(rng.normal(2.8, 2.1, 50_000), 0.0, None)
    assert np.mean(biased) > 2.85
    centred = [crew.truncated_normal(rng, 2.8, 2.1, lo=0.0) for _ in range(50_000)]
    assert math.isclose(float(np.mean(centred)), 2.8, abs_tol=0.03)
    assert min(centred) >= 0.0


class _FixedDraw:
    """A generator whose normal draw is a given value."""

    def __init__(self, x):
        self.x = x

    def normal(self, loc, scale):
        return self.x


_CLIP_VALUES = st.one_of(
    st.floats(allow_nan=False), st.sampled_from([0.0, -0.0, math.inf, -math.inf])
)


@given(x=_CLIP_VALUES, lo=_CLIP_VALUES, hi=_CLIP_VALUES)
def test_truncated_normal_clips_like_numpy(x, lo, hi):
    """The clip of a draw equals `np.clip`, the sign of zero included, for
    signed-zero and infinite bounds and draws.  (The draw is fixed, so the
    centre does not matter; bounds that hold no mean have none.)"""

    with unittest.mock.patch.object(crew, "_mean_preserving_centre", lambda *bounds: 0.0):
        got = crew.truncated_normal(_FixedDraw(x), 0.0, 1.0, lo, hi)
    expected = float(np.clip(x, lo, hi))
    assert type(got) is float
    assert got == expected and math.copysign(1.0, got) == math.copysign(1.0, expected)


def test_mean_preserving_centre_rejects_out_of_bounds():
    with pytest.raises(ValueError):
        crew._mean_preserving_centre(5.0, 1.0, 6.0, 10.0)


def test_sample_categorical():
    rng = np.random.default_rng(2)
    counts = {"a": 0, "b": 0}
    for _ in range(10_000):
        counts[crew.sample_categorical(rng, {"a": 0.25, "b": 0.75})] += 1
    assert abs(counts["a"] / 10_000 - 0.25) < 0.02
    with pytest.raises(ValueError):
        crew.sample_categorical(rng, {"a": 0.5, "b": 0.4})


# ---------------------------------------------------------------------------
# terrain-alert policy


def test_gpws_latency_derivation():
    """The crew's reaction-latency constants are the ones the default config
    implies for the paper's first-approach go-around height, 403.9 +- 51.1 ft:
    go-around height = trigger - rate * (alert delay + latency), with the
    trigger uniform over the jitter window below the base trigger.  Changing
    one of those defaults fails here instead of silently leaving the
    calibration behind.

    The 0.85 s alert delay is the calibration's assumption for a 1 s
    closure window at a 0.1 s step.  Measured at the default seed with
    N=4,000, the delay from the first-approach trigger crossing to the alert
    is 0.857-0.957 s (mean 0.94 s), so the first-approach go-around height
    comes out at 402.75 +- 47.1 ft: inside criterion 5's +-10/+-15 ft, but
    biased low.  Recalibrating would change the logs, so the bias stays."""

    target_mean_agl_ft, target_sd_agl_ft = 403.9, 51.1
    alert_delay_s = 0.85
    data = default_config_dict("GPWS")
    attack = data["attacker"]["gpws"]
    assert data["world"]["dt_s"] == 0.1 and gpws.CLOSURE_WINDOW_S == 1.0
    window = attack["jitter_window_ft"]
    trigger_mean_ft = attack["base_trigger_ft"] - window / 2
    rate_fps = data["world"]["approach"]["descent_rate_fpm"] / 60.0

    mean = (trigger_mean_ft - target_mean_agl_ft) / rate_fps - alert_delay_s
    # Remove the variance of the uniform trigger jitter.
    sd = math.sqrt((target_sd_agl_ft**2 - window**2 / 12.0) / rate_fps**2)
    assert crew.GPWS_REACTION_LATENCY_MEAN_S == mean
    assert crew.GPWS_REACTION_LATENCY_SD_S == sd
    policy = crew.GpwsPolicy()
    assert policy.reaction_latency_mean_s == mean
    assert policy.reaction_latency_sd_s == sd


def test_gpws_action_tables():
    policy = crew.GpwsPolicy()
    rng = np.random.default_rng(3)
    counts = {}
    for _ in range(30_000):
        a = crew.gpws_act(1, policy, rng)
        counts[a] = counts.get(a, 0) + 1
    assert abs(counts[crew.GO_AROUND] / 30_000 - 20 / 30) < 0.01
    assert abs(counts[crew.LAND] / 30_000 - 10 / 30) < 0.01
    assert crew.TURN_OFF_GPWS not in counts
    # Third and later approaches always disable the system.
    assert crew.gpws_act(3, policy, rng) == crew.TURN_OFF_GPWS
    assert crew.gpws_act(7, policy, rng) == crew.TURN_OFF_GPWS


def test_gpws_policy_validation():
    with pytest.raises(ValueError):
        crew.GpwsPolicy(approach_actions=({crew.LAND: 0.5},))


# ---------------------------------------------------------------------------
# collision-avoidance policy


def test_tcas_crew_sampling_marginals():
    policy = crew.TcasPolicy()
    rng = np.random.default_rng(4)
    finals = {tcas.TA_RA: 0, tcas.TA_ONLY: 0, tcas.STANDBY: 0}
    for _ in range(30_000):
        c = crew.sample_tcas_crew(policy, rng)
        finals[c.final_mode] += 1
        assert c.ra_threshold >= 1
        assert c.ta_threshold >= 0
    assert abs(finals[tcas.TA_RA] / 30_000 - 4 / 30) < 0.01
    assert abs(finals[tcas.TA_ONLY] / 30_000 - 15 / 30) < 0.01
    assert abs(finals[tcas.STANDBY] / 30_000 - 11 / 30) < 0.01


def test_tcas_act_downgrade_path():
    c = crew.TcasCrewState(
        will_downgrade=True, will_standby=True, ra_threshold=3, ta_threshold=2,
        final_action=crew.CONTINUE,
    )
    mode = tcas.TA_RA
    assert crew.tcas_act("RA", mode, c) == (crew.FOLLOW_RA, tcas.TA_RA)
    assert crew.tcas_act("RA", mode, c) == (crew.FOLLOW_RA, tcas.TA_RA)
    action, mode = crew.tcas_act("RA", mode, c)
    assert (action, mode) == (crew.SET_TA_ONLY, tcas.TA_ONLY)
    assert not c.settled(mode)
    assert crew.tcas_act("TA", mode, c) == (crew.CONTINUE, tcas.TA_ONLY)
    action, mode = crew.tcas_act("TA", mode, c)
    assert (action, mode) == (crew.SET_STANDBY, tcas.STANDBY)
    assert c.settled(mode)
    assert (c.ra_count, c.ta_count_since_downgrade) == (3, 2)


def test_tcas_act_straight_to_standby():
    c = crew.TcasCrewState(
        will_downgrade=True, will_standby=True, ra_threshold=1, ta_threshold=0,
        final_action=crew.CONTINUE,
    )
    action, mode = crew.tcas_act("RA", tcas.TA_RA, c)
    assert (action, mode) == (crew.SET_STANDBY, tcas.STANDBY)
    assert c.settled(mode)


def test_tcas_act_never_downgrades():
    c = crew.TcasCrewState(
        will_downgrade=False, will_standby=False, ra_threshold=4, ta_threshold=2,
        final_action=crew.CONTINUE,
    )
    for _ in range(20):
        assert crew.tcas_act("RA", tcas.TA_RA, c) == (crew.FOLLOW_RA, tcas.TA_RA)
    assert not c.settled(tcas.TA_RA)


def test_tcas_act_rejects_inconsistent_events():
    c = crew.TcasCrewState(True, True, 1, 0, crew.CONTINUE)
    with pytest.raises(ValueError):
        crew.tcas_act("RA", tcas.STANDBY, c)
    with pytest.raises(ValueError):
        crew.tcas_act("TA", tcas.STANDBY, c)
    with pytest.raises(ValueError):
        crew.tcas_act("RA", tcas.TA_ONLY, c)
    with pytest.raises(ValueError, match="unknown advisory level"):
        crew.tcas_act("XA", tcas.TA_RA, c)
    assert (c.ra_count, c.ta_count_since_downgrade) == (0, 0)


def test_tcas_action_tables_condition_on_final_mode():
    policy = crew.TcasPolicy()
    assert policy.action_given_final_mode[tcas.TA_RA] == {crew.CONTINUE: 1.0}
    assert crew.DIVERT not in policy.action_given_final_mode[tcas.STANDBY]


# ---------------------------------------------------------------------------
# glideslope policy


def centred_indication():
    return GsIndication(ddm=0.0, deviation_dots=0.0, captured_source=None, valid=True)


def test_gs_act_conflict_triggers_go_around():
    script = crew.GsCrewState(go_around_agl_ft=900.0, fallback="RNAV")
    assert crew.gs_act(centred_indication(), PapiIndication(whites=4), script) == crew.GO_AROUND
    # A crew that does not go around continues despite the conflict.
    script = crew.GsCrewState(go_around_agl_ft=900.0, fallback=None)
    assert crew.gs_act(centred_indication(), PapiIndication(whites=4), script) == crew.CONTINUE


def test_gs_act_no_conflict_continues():
    script = crew.GsCrewState(go_around_agl_ft=900.0, fallback="SRA")
    # Two whites: the visual picture agrees with the centred glideslope.
    assert crew.gs_act(centred_indication(), PapiIndication(whites=2), script) == crew.CONTINUE


def test_gs_go_around_flies_the_sampled_fallback():
    """A GS trial that goes around flies its crew's sampled fallback; one
    whose crew sampled none lands on the glideslope."""

    cfg = make_config({"version": 1, "scenario": "GS", "trials": 60, "master_seed": 1})
    outcomes = set()
    for log, seed in zip(run(cfg), trial_seeds(cfg.master_seed, range(cfg.trials))):
        script = crew.sample_gs_crew(cfg.gs_policy, np.random.default_rng(seed))
        outcomes.add(log.outcome)
        if log.outcome == "LANDED_FALLBACK":
            assert script.fallback is not None
            assert log.events[-1]["payload"]["approach_type"] == script.fallback
            assert [e["payload"]["approach_type"]
                    for e in log.iter_kind("fallback_selected")] == [script.fallback]
        elif script.fallback is None:
            assert log.outcome == "LANDED"
    assert outcomes == {"LANDED", "LANDED_FALLBACK"}


def test_gs_crew_sampling():
    policy = crew.GsPolicy()
    rng = np.random.default_rng(12)
    agls, go = [], 0
    for _ in range(30_000):
        c = crew.sample_gs_crew(policy, rng)
        agls.append(c.go_around_agl_ft)
        go += c.fallback is not None
        assert 200.0 <= c.go_around_agl_ft <= 1500.0
        assert c.fallback is None or c.fallback in policy.fallback_approaches
    assert abs(go / 30_000 - 26 / 30) < 0.01
    assert math.isclose(float(np.mean(agls)), 930.0, abs_tol=5.0)
    assert math.isclose(float(np.std(agls)), 235.8, abs_tol=10.0)
