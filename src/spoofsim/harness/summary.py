"""Aggregation of trial logs into action tables and calibration statistics.

Table shapes follow the reporting conventions of the scenario outputs: the
terrain-alert table lists actions per approach among the crews still flying
that approach (a crew that lands is not carried forward); the collision-
avoidance table is a final-mode by final-action matrix.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Sequence

from .. import crew, tcas
from .log import TrialLog

GPWS_ACTION_LABELS = {
    crew.LAND: "Land",
    crew.GO_AROUND: "Go-around",
    crew.TURN_OFF_GPWS: "Turn off",
}
TCAS_MODE_LABELS = {
    tcas.TA_RA: "TA/RA",
    tcas.TA_ONLY: "TA-Only",
    tcas.STANDBY: "Standby",
}
TCAS_ACTION_LABELS = {
    crew.CONTINUE: "Continue on route",
    crew.AVOIDANCE: "Avoidance manoeuvre",
    crew.DIVERT: "Divert to origin",
}


def _mean_sd(values: Sequence[float]) -> Dict[str, float]:
    if not values:
        return {"n": 0, "mean": math.nan, "sd": math.nan}
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1) if n > 1 else 0.0
    return {"n": n, "mean": mean, "sd": math.sqrt(var)}


def _check_homogeneous(logs: Sequence[TrialLog]) -> str:
    if not logs:
        raise ValueError("cannot summarize an empty set of trial logs")
    scenarios = {log.scenario for log in logs}
    if len(scenarios) != 1:
        raise ValueError(f"logs span multiple scenarios: {sorted(scenarios)}")
    return scenarios.pop()


def summarize_gpws(logs: Sequence[TrialLog]) -> Dict[str, Any]:
    per_approach: Dict[int, Dict[str, int]] = {}
    first_go_around_agl: List[float] = []
    for log in logs:
        for event in log.iter_kind("crew_action"):
            p = event["payload"]
            approach, action = p["approach"], p["action"]
            per_approach.setdefault(approach, {}).setdefault(action, 0)
            per_approach[approach][action] += 1
            if approach == 1 and action == crew.GO_AROUND:
                first_go_around_agl.append(p["min_agl_ft"])
        if log.outcome == "LANDED" and not any(True for _ in log.iter_kind("crew_action")):
            # Unalerted approach concludes in a landing without a table entry.
            per_approach.setdefault(1, {}).setdefault(crew.LAND, 0)
            per_approach[1][crew.LAND] += 1

    rows = []
    for approach in sorted(per_approach):
        actions = per_approach[approach]
        participants = sum(actions.values())
        for action in (crew.TURN_OFF_GPWS, crew.LAND, crew.GO_AROUND):
            if action not in actions:
                continue
            count = actions[action]
            rows.append([
                approach, GPWS_ACTION_LABELS[action], count,
                round(100.0 * count / participants, 1), participants,
            ])
    agl = _mean_sd(first_go_around_agl)
    return {
        "tables": {
            "actions": {
                "headers": ["Approach", "Action", "Count", "Percent", "Participants"],
                "rows": rows,
            }
        },
        "stats": {
            "first_approach_go_around_fraction": (
                per_approach.get(1, {}).get(crew.GO_AROUND, 0) / len(logs)
            ),
            "first_approach_land_fraction": (
                per_approach.get(1, {}).get(crew.LAND, 0) / len(logs)
            ),
            "first_approach_go_around_min_agl_mean_ft": agl["mean"],
            "first_approach_go_around_min_agl_sd_ft": agl["sd"],
        },
    }


def summarize_tcas(logs: Sequence[TrialLog]) -> Dict[str, Any]:
    matrix: Dict[str, Dict[str, int]] = {
        a: {m: 0 for m in TCAS_MODE_LABELS} for a in TCAS_ACTION_LABELS
    }
    mode_counts = {m: 0 for m in TCAS_MODE_LABELS}
    ras_before_downgrade: List[float] = []
    tas_before_standby: List[float] = []
    episode_counts: List[int] = []
    for log in logs:
        payload = log.events[-1]["payload"]
        mode, action = payload["final_mode"], payload["final_action"]
        matrix[action][mode] += 1
        mode_counts[mode] += 1
        episode_counts.append(payload["episodes"])
        if mode != tcas.TA_RA:
            ras_before_downgrade.append(payload["ras_observed"])
        if mode == tcas.STANDBY:
            tas_before_standby.append(payload["tas_after_downgrade"])

    n = len(logs)
    rows = []
    for action, label in TCAS_ACTION_LABELS.items():
        row = [label]
        for mode in TCAS_MODE_LABELS:
            count = matrix[action][mode]
            row.extend([count, round(100.0 * count / n, 1)])
        total = sum(matrix[action].values())
        row.extend([total, round(100.0 * total / n, 1)])
        rows.append(row)
    ras = _mean_sd(ras_before_downgrade)
    tas = _mean_sd(tas_before_standby)
    return {
        "tables": {
            "responses": {
                "headers": [
                    "Action",
                    "TA/RA", "TA/RA %",
                    "TA-Only", "TA-Only %",
                    "Standby", "Standby %",
                    "Total", "Total %",
                ],
                "rows": rows,
            }
        },
        "stats": {
            "final_mode_ta_ra_fraction": mode_counts[tcas.TA_RA] / n,
            "final_mode_ta_only_fraction": mode_counts[tcas.TA_ONLY] / n,
            "final_mode_standby_fraction": mode_counts[tcas.STANDBY] / n,
            "ras_before_ta_only_mean": ras["mean"],
            "ras_before_ta_only_sd": ras["sd"],
            "additional_tas_before_standby_mean": tas["mean"],
            "additional_tas_before_standby_sd": tas["sd"],
            "episodes_mean": sum(episode_counts) / n,
            "episodes_max": max(episode_counts),
        },
    }


def summarize_gs(logs: Sequence[TrialLog]) -> Dict[str, Any]:
    go_around_agl: List[float] = []
    fallbacks: Dict[str, int] = {}
    landed_first = 0
    for log in logs:
        went_around = False
        for event in log.iter_kind("crew_action"):
            p = event["payload"]
            if p["action"] == crew.GO_AROUND and p["approach"] == 1:
                went_around = True
                go_around_agl.append(p["agl_ft"])
        if went_around:
            for event in log.iter_kind("fallback_selected"):
                ft = event["payload"]["approach_type"]
                fallbacks[ft] = fallbacks.get(ft, 0) + 1
        else:
            landed_first += 1

    n = len(logs)
    n_ga = len(go_around_agl)
    agl = _mean_sd(go_around_agl)
    rows = [["Go-around", n_ga, round(100.0 * n_ga / n, 1)],
            ["Land", landed_first, round(100.0 * landed_first / n, 1)]]
    fb_rows = [
        [ft, count, round(100.0 * count / n_ga, 1)]
        for ft, count in sorted(fallbacks.items())
    ]
    return {
        "tables": {
            "first_approach": {
                "headers": ["Action", "Count", "Percent"],
                "rows": rows,
            },
            "fallback_approaches": {
                "headers": ["Approach type", "Count", "Percent"],
                "rows": fb_rows,
            },
        },
        "stats": {
            "first_approach_go_around_fraction": n_ga / n,
            "go_around_agl_mean_ft": agl["mean"],
            "go_around_agl_sd_ft": agl["sd"],
            "fallback_fractions": {
                ft: count / n_ga for ft, count in sorted(fallbacks.items())
            } if n_ga else {},
        },
    }


def summarize(logs: Sequence[TrialLog]) -> Dict[str, Any]:
    from .scenarios import SCENARIOS  # the registry imports this module

    scenario = _check_homogeneous(logs)
    result = SCENARIOS[scenario].summarize(logs)
    result["scenario"] = scenario
    result["trials"] = len(logs)
    outcomes: Dict[str, int] = {}
    for log in logs:
        outcomes[log.outcome] = outcomes.get(log.outcome, 0) + 1
    result["outcomes"] = dict(sorted(outcomes.items()))
    return result
