"""Outcome-calibrated stochastic pilot agents.

Policies are distribution tables describing *observed* crew behaviour, not
cognitive models: per-approach action frequencies for terrain alerts,
downgrade thresholds for collision-avoidance advisories, and go-around
altitude statistics for glideslope anomalies.  Samplers are deterministic
given (policy, rng seed).

Bounded normal draws are clipped to their physical bounds; by default the
pre-clip centre is shifted so the post-clip mean equals the configured mean,
keeping the simulated statistics on the configured values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Optional, Tuple

import numpy as np

from . import tcas
from .gpws import GpwsAlert
from .ils import GsIndication, PapiIndication

# GPWS crew actions
LAND = "LAND"
GO_AROUND = "GO_AROUND"
TURN_OFF_GPWS = "TURN_OFF_GPWS"

# TCAS crew actions
FOLLOW_RA = "FOLLOW_RA"
SET_TA_ONLY = "SET_TA_ONLY"
SET_STANDBY = "SET_STANDBY"
AVOIDANCE = "AVOIDANCE"
DIVERT = "DIVERT"
CONTINUE = "CONTINUE"


# ---------------------------------------------------------------------------
# bounded-normal sampling

SQRT2 = math.sqrt(2.0)


def _phi(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _Phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / SQRT2))


def clipped_normal_mean(mu: float, sd: float, lo: float, hi: float) -> float:
    """Exact mean of clip(N(mu, sd), lo, hi)."""

    a = (lo - mu) / sd
    b = (hi - mu) / sd
    total = mu * (_Phi(b) - _Phi(a)) + sd * (_phi(a) - _phi(b))
    if lo > -math.inf:  # guard inf * 0
        total += lo * _Phi(a)
    if hi < math.inf:
        total += hi * (1.0 - _Phi(b))
    return total


@lru_cache(maxsize=None)
def _mean_preserving_centre(mean: float, sd: float, lo: float, hi: float) -> float:
    """Pre-clip centre mu such that clip(N(mu, sd), lo, hi) has the given mean."""

    if not lo < mean < hi:
        raise ValueError(f"target mean {mean} outside bounds ({lo}, {hi})")
    a, b = mean - 6 * sd, mean + 6 * sd
    for _ in range(200):
        mid = 0.5 * (a + b)
        if clipped_normal_mean(mid, sd, lo, hi) < mean:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def truncated_normal(
    rng: np.random.Generator,
    mean: float,
    sd: float,
    lo: float = -math.inf,
    hi: float = math.inf,
    preserve_mean: bool = True,
) -> float:
    centre = mean
    if preserve_mean and (lo > -math.inf or hi < math.inf):
        centre = _mean_preserving_centre(mean, sd, lo, hi)
    return float(np.clip(rng.normal(centre, sd), lo, hi))


def sample_categorical(rng: np.random.Generator, dist: Dict[str, float]) -> str:
    total = sum(dist.values())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"distribution sums to {total}, expected 1")
    u = rng.random()
    acc = 0.0
    for key, p in dist.items():
        acc += p
        if u < acc:
            return key
    return key  # guard against floating-point shortfall


def _check_distribution(dist: Dict[str, float], name: str) -> None:
    if abs(sum(dist.values()) - 1.0) > 1e-9:
        raise ValueError(f"{name} probabilities must sum to 1")
    if any(p < 0 for p in dist.values()):
        raise ValueError(f"{name} probabilities must be non-negative")


# ---------------------------------------------------------------------------
# GPWS policy


def derive_gpws_latency_mean(
    target_mean_agl_ft: float,
    trigger_mean_ft: float,
    descent_rate_fpm: float,
    alert_delay_s: float,
) -> float:
    """Reaction-latency mean implied by the observed mean go-around height.

    mean_agl = trigger_mean - rate * (alert_delay + latency_mean).
    """

    rate_fps = descent_rate_fpm / 60.0
    return (trigger_mean_ft - target_mean_agl_ft) / rate_fps - alert_delay_s


def derive_gpws_latency_sd(
    target_sd_agl_ft: float,
    trigger_window_ft: float,
    descent_rate_fpm: float,
) -> float:
    """Reaction-latency sd implied by the observed go-around height spread.

    Removes the variance contributed by the uniform trigger-altitude jitter.
    """

    rate_fps = descent_rate_fpm / 60.0
    trigger_var = trigger_window_ft**2 / 12.0
    latency_var = (target_sd_agl_ft**2 - trigger_var) / rate_fps**2
    if latency_var <= 0:
        raise ValueError("target sd is smaller than the trigger jitter alone")
    return math.sqrt(latency_var)


#: Alert-onset delay on a 1 s backward-difference closure estimator at a
#: 0.1 s simulation step (estimator crossing plus quantisation).
DEFAULT_ALERT_DELAY_S = 0.85

_GPWS_TARGET_MEAN_AGL_FT = 403.9
_GPWS_TARGET_SD_AGL_FT = 51.1


@dataclass(frozen=True)
class GpwsPolicy:
    """Per-approach action tables plus the reaction-latency distribution."""

    approach_actions: Tuple[Dict[str, float], ...] = (
        {LAND: 10 / 30, GO_AROUND: 20 / 30},
        {TURN_OFF_GPWS: 11 / 20, LAND: 8 / 20, GO_AROUND: 1 / 20},
        {TURN_OFF_GPWS: 1.0},
    )
    reaction_latency_mean_s: float = derive_gpws_latency_mean(
        _GPWS_TARGET_MEAN_AGL_FT, 475.0, 700.0, DEFAULT_ALERT_DELAY_S
    )
    reaction_latency_sd_s: float = derive_gpws_latency_sd(
        _GPWS_TARGET_SD_AGL_FT, 50.0, 700.0
    )
    reaction_latency_floor_s: float = 0.0

    def __post_init__(self) -> None:
        for i, dist in enumerate(self.approach_actions):
            _check_distribution(dist, f"approach {i + 1} actions")

    def action_table(self, approach_index: int) -> Dict[str, float]:
        idx = min(approach_index, len(self.approach_actions)) - 1
        return self.approach_actions[idx]


def gpws_act(
    approach_index: int,
    alert: Optional[GpwsAlert],
    policy: GpwsPolicy,
    rng: np.random.Generator,
) -> str:
    """Action for this approach: sampled from the approach-indexed table when
    alerted, otherwise the approach concludes with a landing."""

    if alert is None:
        return LAND
    return sample_categorical(rng, policy.action_table(approach_index))


def gpws_reaction_latency(policy: GpwsPolicy, rng: np.random.Generator) -> float:
    return truncated_normal(
        rng,
        policy.reaction_latency_mean_s,
        policy.reaction_latency_sd_s,
        lo=policy.reaction_latency_floor_s,
    )


# ---------------------------------------------------------------------------
# TCAS policy


@dataclass(frozen=True)
class TcasPolicy:
    """Downgrade-path probabilities and thresholds, plus the final-mode/action
    joint table."""

    p_downgrade: float = 26 / 30            # ever leave full alerting
    p_standby_given_downgrade: float = 11 / 26
    ras_before_ta_only_mean: float = 4.5
    ras_before_ta_only_sd: float = 1.7
    ras_before_ta_only_min: int = 1
    extra_tas_before_standby_mean: float = 2.8
    extra_tas_before_standby_sd: float = 2.1
    extra_tas_before_standby_min: int = 0
    action_given_final_mode: Dict[str, Dict[str, float]] = field(
        default_factory=lambda: {
            tcas.TA_RA: {CONTINUE: 1.0},
            tcas.TA_ONLY: {CONTINUE: 10 / 15, AVOIDANCE: 3 / 15, DIVERT: 2 / 15},
            tcas.STANDBY: {CONTINUE: 8 / 11, AVOIDANCE: 3 / 11},
        }
    )

    def __post_init__(self) -> None:
        if not 0 <= self.p_downgrade <= 1 or not 0 <= self.p_standby_given_downgrade <= 1:
            raise ValueError("probabilities must lie in [0, 1]")
        for mode, dist in self.action_given_final_mode.items():
            _check_distribution(dist, f"actions for final mode {mode}")


@dataclass
class TcasCrewState:
    """Sampled per-trial script plus running counters."""

    will_downgrade: bool
    will_standby: bool
    ra_threshold: int            # RAs received before leaving TA/RA
    ta_threshold: int            # further TAs before Standby (0 = straight there)
    final_action: str
    mode: str = tcas.TA_RA
    ra_count: int = 0
    ta_count_since_downgrade: int = 0

    @property
    def settled(self) -> bool:
        """No further mode transition can occur."""
        if not self.will_downgrade:
            return False
        if self.mode == tcas.TA_RA:
            return False
        if self.mode == tcas.TA_ONLY:
            return not self.will_standby
        return True

    @property
    def final_mode(self) -> str:
        if not self.will_downgrade:
            return tcas.TA_RA
        return tcas.STANDBY if self.will_standby else tcas.TA_ONLY


def sample_tcas_crew(policy: TcasPolicy, rng: np.random.Generator) -> TcasCrewState:
    will_downgrade = rng.random() < policy.p_downgrade
    will_standby = will_downgrade and rng.random() < policy.p_standby_given_downgrade
    ra_threshold = int(
        round(
            truncated_normal(
                rng,
                policy.ras_before_ta_only_mean,
                policy.ras_before_ta_only_sd,
                lo=float(policy.ras_before_ta_only_min),
            )
        )
    )
    ta_threshold = int(
        round(
            truncated_normal(
                rng,
                policy.extra_tas_before_standby_mean,
                policy.extra_tas_before_standby_sd,
                lo=float(policy.extra_tas_before_standby_min),
            )
        )
    )
    state = TcasCrewState(
        will_downgrade=will_downgrade,
        will_standby=will_standby,
        ra_threshold=max(policy.ras_before_ta_only_min, ra_threshold),
        ta_threshold=max(policy.extra_tas_before_standby_min, ta_threshold),
        final_action="",
    )
    state.final_action = sample_categorical(
        rng, policy.action_given_final_mode[state.final_mode]
    )
    return state


def tcas_act(
    event: tcas.Advisory,
    history: TcasCrewState,
    policy: TcasPolicy,
    rng: np.random.Generator,
) -> str:
    """React to one advisory, mutating the crew history.

    RAs are followed until the sampled downgrade threshold is reached; a
    TA threshold of zero models going straight from full alerting to Standby.
    """

    if event.level == "RA":
        if history.mode != tcas.TA_RA:
            raise ValueError("RA received while not in TA/RA mode")
        history.ra_count += 1
        if history.will_downgrade and history.ra_count >= history.ra_threshold:
            if history.will_standby and history.ta_threshold == 0:
                history.mode = tcas.STANDBY
                return SET_STANDBY
            history.mode = tcas.TA_ONLY
            return SET_TA_ONLY
        return FOLLOW_RA

    if event.level == "TA":
        if history.mode == tcas.STANDBY:
            raise ValueError("TA received while in Standby")
        if history.mode == tcas.TA_ONLY and history.will_standby:
            history.ta_count_since_downgrade += 1
            if history.ta_count_since_downgrade >= history.ta_threshold:
                history.mode = tcas.STANDBY
                return SET_STANDBY
        return CONTINUE

    raise ValueError(f"unknown advisory level {event.level!r}")


# ---------------------------------------------------------------------------
# Glideslope policy


@dataclass(frozen=True)
class GsPolicy:
    p_go_around_first: float = 26 / 30
    go_around_agl_mean_ft: float = 930.0
    go_around_agl_sd_ft: float = 235.8
    go_around_agl_lo_ft: float = 200.0
    go_around_agl_hi_ft: float = 1500.0
    fallback_approaches: Dict[str, float] = field(
        default_factory=lambda: {
            "VOR": 1 / 26,
            "SRA": 2 / 26,
            "LOC_DME": 8 / 26,
            "RNAV": 9 / 26,
            "VISUAL": 6 / 26,
        }
    )

    def __post_init__(self) -> None:
        _check_distribution(self.fallback_approaches, "fallback approaches")


@dataclass
class GsCrewState:
    will_go_around: bool
    go_around_agl_ft: float
    fallback: Optional[str]
    gone_around: bool = False


def sample_gs_crew(policy: GsPolicy, rng: np.random.Generator) -> GsCrewState:
    will_go_around = rng.random() < policy.p_go_around_first
    agl = truncated_normal(
        rng,
        policy.go_around_agl_mean_ft,
        policy.go_around_agl_sd_ft,
        lo=policy.go_around_agl_lo_ft,
        hi=policy.go_around_agl_hi_ft,
    )
    fallback = sample_categorical(rng, policy.fallback_approaches) if will_go_around else None
    return GsCrewState(will_go_around=will_go_around, go_around_agl_ft=agl, fallback=fallback)


@dataclass(frozen=True)
class GsAction:
    kind: str                       # CONTINUE | GO_AROUND | SELECT_APPROACH
    altitude_ft: Optional[float] = None
    approach_type: Optional[str] = None


def gs_act(
    indication: GsIndication,
    papi_ind: PapiIndication,
    agl_ft: float,
    policy: GsPolicy,
    rng: np.random.Generator,
    script: Optional[GsCrewState] = None,
) -> GsAction:
    """Go around at the sampled height when the visual cross-check conflicts
    with a centred glideslope; otherwise continue the approach."""

    if script is None:
        script = sample_gs_crew(policy, rng)
    cue_conflict = (
        indication.valid
        and abs(indication.deviation_dots) < 0.5
        and papi_ind.whites in (0, 4)
    )
    if not cue_conflict or not script.will_go_around or script.gone_around:
        return GsAction(kind=CONTINUE)
    if agl_ft <= script.go_around_agl_ft:
        script.gone_around = True
        return GsAction(kind=GO_AROUND, altitude_ft=agl_ft, approach_type=script.fallback)
    return GsAction(kind=CONTINUE)
