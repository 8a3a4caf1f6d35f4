"""Outcome-calibrated stochastic pilot agents.

Policies are distribution tables describing *observed* crew behaviour, not
cognitive models: per-approach action frequencies for terrain alerts,
downgrade thresholds for collision-avoidance advisories, and go-around
altitude statistics for glideslope anomalies.  Samplers are deterministic
given (policy, rng seed).

Bounded normal draws are clipped to their physical bounds, and the pre-clip
centre is shifted so the post-clip mean equals the configured mean, keeping
the simulated statistics on the configured values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Optional, Tuple

import numpy as np

from . import tcas
from .ils import GsIndication, PapiIndication

# GPWS crew actions
LAND = "LAND"
GO_AROUND = "GO_AROUND"
TURN_OFF_GPWS = "TURN_OFF_GPWS"
GPWS_ACTIONS = (LAND, GO_AROUND, TURN_OFF_GPWS)

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
) -> float:
    """A draw of N(centre, sd) clipped to [lo, hi], its centre chosen so the
    clipped draw's mean is ``mean``."""

    centre = mean
    if lo > -math.inf or hi < math.inf:
        centre = _mean_preserving_centre(mean, sd, lo, hi)
    # Equal to `np.clip`, sign of zero included, without its per-call dispatch.
    return float(min(max(rng.normal(centre, sd), lo), hi))


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


class PolicyFieldError(ValueError):
    """A policy field that its sampler cannot use; the message starts with
    the field's name (and, in a table, its row)."""


def _check_bounded_mean(name: str, mean: float, lo: float, hi: float = math.inf) -> None:
    """A clipped draw keeps its configured mean only for a mean strictly
    inside the clip bounds (`truncated_normal`)."""

    if not lo < mean < hi:
        raise PolicyFieldError(
            f"{name}: mean {mean} must lie strictly inside its sampler's bounds ({lo}, {hi})")


def _check_distribution(dist: Dict[str, float], name: str) -> None:
    if abs(sum(dist.values()) - 1.0) > 1e-9:
        raise ValueError(f"{name} probabilities must sum to 1")
    if any(p < 0 for p in dist.values()):
        raise ValueError(f"{name} probabilities must be non-negative")


# ---------------------------------------------------------------------------
# GPWS policy

#: Reaction-latency mean and sd of the GPWS crew, s, calibrated to the
#: observed first-approach go-around height, 403.9 +- 51.1 ft, under the
#: default attack: a trigger uniform over 450-500 ft, a 700 fpm descent and an
#: alert 0.85 s after the trigger.  They are crew traits: a config that
#: changes those defaults keeps them.  `tests/test_crew.py` derives both.
GPWS_REACTION_LATENCY_MEAN_S = 5.244285714285717
GPWS_REACTION_LATENCY_SD_S = 4.201641078805047
#: Lower clip of a sampled reaction latency, s.
REACTION_LATENCY_FLOOR_S = 0.0


@dataclass(frozen=True)
class GpwsPolicy:
    """Per-approach action tables plus the reaction-latency distribution."""

    approach_actions: Tuple[Dict[str, float], ...] = (
        {LAND: 10 / 30, GO_AROUND: 20 / 30},
        {TURN_OFF_GPWS: 11 / 20, LAND: 8 / 20, GO_AROUND: 1 / 20},
        {TURN_OFF_GPWS: 1.0},
    )
    reaction_latency_mean_s: float = GPWS_REACTION_LATENCY_MEAN_S
    reaction_latency_sd_s: float = GPWS_REACTION_LATENCY_SD_S

    def __post_init__(self) -> None:
        name, table = "approach_actions", self.approach_actions
        if not table:
            raise PolicyFieldError(f"{name}: needs at least one row (the first approach's)")
        for i, dist in enumerate(table):
            unknown = [action for action in dist if action not in GPWS_ACTIONS]
            if unknown:
                raise PolicyFieldError(f"{name}.{i}: unknown action {unknown[0]!r}, "
                                       f"expected one of {', '.join(GPWS_ACTIONS)}")
            _check_distribution(dist, f"approach {i + 1} actions")
        # The last row repeats for every later approach, and the trigger
        # climbs each time, so a crew that always goes around never lands.
        last = table[-1]
        if not sum(p for action, p in last.items() if action != GO_AROUND) > 0:
            raise PolicyFieldError(
                f"{name}.{len(table) - 1}: the last row repeats for every later approach, "
                f"so its {GO_AROUND} probability must be below 1 ({LAND} or "
                f"{TURN_OFF_GPWS} above 0); got {last}")
        _check_bounded_mean("reaction_latency_mean_s", self.reaction_latency_mean_s,
                            REACTION_LATENCY_FLOOR_S)

    def action_table(self, approach_index: int) -> Dict[str, float]:
        idx = min(approach_index, len(self.approach_actions)) - 1
        return self.approach_actions[idx]


def gpws_act(approach_index: int, policy: GpwsPolicy, rng: np.random.Generator) -> str:
    """The crew's response to a terrain alert on this approach, sampled from
    the approach-indexed table."""

    return sample_categorical(rng, policy.action_table(approach_index))


def gpws_reaction_latency(policy: GpwsPolicy, rng: np.random.Generator) -> float:
    return truncated_normal(
        rng,
        policy.reaction_latency_mean_s,
        policy.reaction_latency_sd_s,
        lo=REACTION_LATENCY_FLOOR_S,
    )


# ---------------------------------------------------------------------------
# TCAS policy

#: Fewest RAs before a downgrade to TA-Only, and fewest further TAs before
#: Standby (0: straight from full alerting).
MIN_RAS_BEFORE_TA_ONLY = 1
MIN_EXTRA_TAS_BEFORE_STANDBY = 0
#: What a crew does at the end of a run, by the mode it ends in.
TCAS_FINAL_ACTIONS = (CONTINUE, AVOIDANCE, DIVERT)


@dataclass(frozen=True)
class TcasPolicy:
    """Downgrade-path probabilities and thresholds, plus the final-mode/action
    joint table."""

    p_downgrade: float = 26 / 30            # ever leave full alerting
    p_standby_given_downgrade: float = 11 / 26
    ras_before_ta_only_mean: float = 4.5
    ras_before_ta_only_sd: float = 1.7
    extra_tas_before_standby_mean: float = 2.8
    extra_tas_before_standby_sd: float = 2.1
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
        _check_bounded_mean("ras_before_ta_only_mean", self.ras_before_ta_only_mean,
                            float(MIN_RAS_BEFORE_TA_ONLY))
        _check_bounded_mean("extra_tas_before_standby_mean",
                            self.extra_tas_before_standby_mean,
                            float(MIN_EXTRA_TAS_BEFORE_STANDBY))
        # The table replaces the built-in one whole, so it needs every row.
        name, table = "action_given_final_mode", self.action_given_final_mode
        modes = (tcas.TA_RA, tcas.TA_ONLY, tcas.STANDBY)
        missing = [mode for mode in modes if mode not in table]
        if missing:
            raise PolicyFieldError(
                f"{name}: needs a row for each of {', '.join(modes)}; "
                f"missing {', '.join(missing)}")
        for mode, dist in table.items():
            if mode not in modes:
                raise PolicyFieldError(f"{name}.{mode}: unknown mode, expected one of "
                                       f"{', '.join(modes)}")
            unknown = [action for action in dist if action not in TCAS_FINAL_ACTIONS]
            if unknown:
                raise PolicyFieldError(f"{name}.{mode}: unknown action {unknown[0]!r}, "
                                       f"expected one of {', '.join(TCAS_FINAL_ACTIONS)}")
            _check_distribution(dist, f"actions for final mode {mode}")
        # A run that ends in TA/RA continues; its row is drawn but never used.
        if table[tcas.TA_RA] != {CONTINUE: 1.0}:
            raise PolicyFieldError(
                f"{name}.{tcas.TA_RA}: must be {{{CONTINUE!r}: 1}}, got {table[tcas.TA_RA]}; "
                f"a run that ends in TA/RA continues")


@dataclass
class TcasCrewState:
    """Sampled per-trial script plus running counters.  The alerting mode is
    the trial's own value: `tcas_act` takes it and returns the mode the crew
    leaves."""

    will_downgrade: bool
    will_standby: bool
    ra_threshold: int            # RAs received before leaving TA/RA
    ta_threshold: int            # further TAs before Standby (0 = straight there)
    final_action: str
    ra_count: int = 0
    ta_count_since_downgrade: int = 0

    def settled(self, mode: str) -> bool:
        """No further mode transition can occur from alerting `mode`."""
        return mode == self.final_mode != tcas.TA_RA

    @property
    def final_mode(self) -> str:
        if not self.will_downgrade:
            return tcas.TA_RA
        return tcas.STANDBY if self.will_standby else tcas.TA_ONLY


def sample_tcas_crew(policy: TcasPolicy, rng: np.random.Generator) -> TcasCrewState:
    will_downgrade = rng.random() < policy.p_downgrade
    will_standby = will_downgrade and rng.random() < policy.p_standby_given_downgrade
    ra_threshold = int(round(truncated_normal(
        rng, policy.ras_before_ta_only_mean, policy.ras_before_ta_only_sd,
        lo=float(MIN_RAS_BEFORE_TA_ONLY))))
    ta_threshold = int(round(truncated_normal(
        rng, policy.extra_tas_before_standby_mean, policy.extra_tas_before_standby_sd,
        lo=float(MIN_EXTRA_TAS_BEFORE_STANDBY))))
    state = TcasCrewState(will_downgrade, will_standby, ra_threshold, ta_threshold,
                          final_action="")
    state.final_action = sample_categorical(rng, policy.action_given_final_mode[state.final_mode])
    return state


def tcas_act(level: str, mode: str, script: TcasCrewState) -> Tuple[str, str]:
    """The crew's action on an advisory of ``level`` ("TA" or "RA") raised in
    alerting ``mode``, as its sampled ``script`` (`sample_tcas_crew`) says,
    and the mode it leaves, lower after a downgrade; the script's counters
    advance.  RAs are followed until the sampled downgrade threshold; a TA
    threshold of zero goes straight from full alerting to Standby."""

    if level == "RA":
        if mode != tcas.TA_RA:
            raise ValueError("RA received while not in TA/RA mode")
        script.ra_count += 1
        if script.will_downgrade and script.ra_count >= script.ra_threshold:
            if script.will_standby and script.ta_threshold == 0:
                return SET_STANDBY, tcas.STANDBY
            return SET_TA_ONLY, tcas.TA_ONLY
        return FOLLOW_RA, mode

    if level == "TA":
        if mode == tcas.STANDBY:
            raise ValueError("TA received while in Standby")
        if mode == tcas.TA_ONLY and script.will_standby:
            script.ta_count_since_downgrade += 1
            if script.ta_count_since_downgrade >= script.ta_threshold:
                return SET_STANDBY, tcas.STANDBY
        return CONTINUE, mode

    raise ValueError(f"unknown advisory level {level!r}")


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
        _check_bounded_mean("go_around_agl_mean_ft", self.go_around_agl_mean_ft,
                            self.go_around_agl_lo_ft, self.go_around_agl_hi_ft)


@dataclass
class GsCrewState:
    go_around_agl_ft: float
    fallback: Optional[str]      # approach flown after a go-around; None: no go-around


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
    return GsCrewState(go_around_agl_ft=agl, fallback=fallback)


def gs_act(
    indication: GsIndication,
    papi_ind: PapiIndication,
    script: GsCrewState,
) -> str:
    """Go around, to fly the crew's sampled fallback (``script``, from
    `sample_gs_crew`), when the visual cross-check conflicts with a centred
    glideslope and the crew is one that goes around (`gs_goes_around`);
    otherwise continue the approach.  The trial asks at the crew's sampled
    go-around height."""

    goes = gs_goes_around(indication.valid, indication.deviation_dots, papi_ind.whites,
                          script.fallback)
    return GO_AROUND if goes else CONTINUE


def gs_goes_around(valid: bool, deviation_dots: float, whites: int,
                   fallback: Optional[str]) -> bool:
    """`gs_act`'s rule on plain values: a valid glideslope within half a dot
    of centre beside a PAPI of no or four whites conflicts, and a crew with
    a ``fallback`` goes around on a conflict."""

    return valid and abs(deviation_dots) < 0.5 and whites in (0, 4) and fallback is not None
