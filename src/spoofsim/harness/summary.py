"""Aggregation of trial logs into action tables and calibration statistics.

Table shapes follow the reporting conventions of the scenario outputs: the
terrain-alert table lists actions per approach among the crews still flying
that approach (a crew that lands is not carried forward); the collision-
avoidance table is a final-mode by final-action matrix.

A summary is a fold: each scenario's accumulator (`GpwsSummary`,
`TcasSummary`, `GsSummary`) takes one log at a time with ``add`` and keeps
counts plus the per-trial scalars its means and standard deviations need, and
``result`` builds the tables and statistics.  `GpwsSummary` and `GsSummary`
fold each trial through ``add_trial``, which their chunk rounds call with the
values they wrote, and ``add`` with the fields it reads from a log.  `Summary`
adds the outcome counts and picks the accumulator from the first log's
scenario, so a run's logs can be summarized as they are produced or read,
without holding them.

``merge`` folds in the accumulator of the logs that follow, so a run can be
folded in contiguous groups and merged in trial order: counts add, maxima
take the larger, and per-trial scalars are concatenated, so `_mean_sd` sees
the very list one fold would have made and gives the same bits.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from functools import reduce
from operator import add
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

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


#: Payload field types (``_field``'s ``allowed``).  A number summarize
#: averages is a `_NUMBER`, or a `_COUNT` for an integer one.
_NUMBER = (int, float)
_COUNT = (int,)


def _field(log: TrialLog, event: Dict[str, Any], key: str, allowed: Any) -> Any:
    """``event``'s payload field ``key``, which must be an instance of
    ``allowed`` (never a bool) or, when ``allowed`` is a dict, one of its keys;
    a `_NUMBER` or `_COUNT` must also be finite and within the float range.
    Logs read back from a run directory may break this; the ValueError names
    the trial, the event kind and the field."""

    payload = event["payload"]
    if key not in payload:
        raise ValueError(f"trial {log.trial_id}: {event['kind']} field {key!r} is missing")
    value = payload[key]
    if isinstance(allowed, dict):
        valid = type(value) is str and value in allowed
    else:
        valid = isinstance(value, allowed) and type(value) is not bool
        if valid and (allowed is _NUMBER or allowed is _COUNT):
            try:
                valid = math.isfinite(value)
            except OverflowError:   # an integer beyond the float range
                valid = False
    if not valid:
        raise ValueError(f"trial {log.trial_id}: {event['kind']} field {key!r} is {value!r}")
    return value


def _mean_sd(values: Sequence[float]) -> Dict[str, float]:
    if not values:
        return {"n": 0, "mean": math.nan, "sd": math.nan}
    # Added left to right from int 0, as `sum` added floats before Python 3.12
    # made it compensated, so the bits are the same on every supported Python.
    n = len(values)
    mean = reduce(add, values, 0) / n
    var = reduce(add, ((v - mean) ** 2 for v in values), 0) / (n - 1) if n > 1 else 0.0
    return {"n": n, "mean": mean, "sd": math.sqrt(var)}


class GpwsSummary:
    """Actions per approach among the crews still flying it, and the heights
    of the first-approach go-arounds."""

    def __init__(self) -> None:
        self.trials = 0
        self.per_approach: Dict[int, Counter] = defaultdict(Counter)
        self.first_go_around_agl: List[float] = []

    def add(self, log: TrialLog) -> None:
        actions: List[Tuple[int, str]] = []
        go_around_agl = []
        for event in log.iter_kind("crew_action"):
            approach = _field(log, event, "approach", int)
            action = _field(log, event, "action", GPWS_ACTION_LABELS)
            if actions and approach <= actions[-1][0]:
                # One crew action per alerted approach, in approach order.
                raise ValueError(f"trial {log.trial_id}: crew_action of approach {approach} "
                                 f"after one of approach {actions[-1][0]}")
            actions.append((approach, action))
            if approach == 1 and action == crew.GO_AROUND:
                go_around_agl.append(_field(log, event, "min_agl_ft", _NUMBER))
        landed = None
        if log.outcome == "LANDED":
            approach = _field(log, log.events[-1], "approach", int)
            if not actions or approach != actions[-1][0]:
                landed = approach
        self.add_trial(actions, go_around_agl, landed)

    def add_trial(self, actions: Sequence[Tuple[int, str]], go_around_agl: Sequence[float],
                  landed: Optional[int]) -> None:
        """One trial: its crew actions as (approach, action) in approach
        order, the height of its first-approach go-around (none if it did
        not go around there) and the approach on which it landed unalerted,
        a landing among the crews flying that approach (None if it did not)."""

        self.trials += 1
        for approach, action in actions:
            self.per_approach[approach][action] += 1
        self.first_go_around_agl += go_around_agl
        if landed is not None:
            self.per_approach[landed][crew.LAND] += 1

    def merge(self, other: "GpwsSummary") -> None:
        self.trials += other.trials
        for approach, actions in other.per_approach.items():
            self.per_approach[approach].update(actions)
        self.first_go_around_agl += other.first_go_around_agl

    def result(self) -> Dict[str, Any]:
        per_approach = self.per_approach
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
        agl = _mean_sd(self.first_go_around_agl)
        return {
            "tables": {
                "actions": {
                    "headers": ["Approach", "Action", "Count", "Percent", "Participants"],
                    "rows": rows,
                }
            },
            "stats": {
                "first_approach_go_around_fraction": (
                    per_approach.get(1, {}).get(crew.GO_AROUND, 0) / self.trials
                ),
                "first_approach_land_fraction": (
                    per_approach.get(1, {}).get(crew.LAND, 0) / self.trials
                ),
                "first_approach_go_around_min_agl_mean_ft": agl["mean"],
                "first_approach_go_around_min_agl_sd_ft": agl["sd"],
            },
        }


class TcasSummary:
    """The final-mode by final-action matrix, the advisories seen before each
    downgrade, and the encounters per trial."""

    def __init__(self) -> None:
        self.trials = 0
        self.matrix: Dict[str, Dict[str, int]] = {
            a: {m: 0 for m in TCAS_MODE_LABELS} for a in TCAS_ACTION_LABELS
        }
        self.mode_counts = {m: 0 for m in TCAS_MODE_LABELS}
        self.ras_before_downgrade: List[float] = []
        self.tas_before_standby: List[float] = []
        self.episodes_total = 0
        self.episodes_max = -math.inf

    def add(self, log: TrialLog) -> None:
        self.trials += 1
        outcome = log.events[-1]
        mode = _field(log, outcome, "final_mode", TCAS_MODE_LABELS)
        action = _field(log, outcome, "final_action", TCAS_ACTION_LABELS)
        self.matrix[action][mode] += 1
        self.mode_counts[mode] += 1
        episodes = _field(log, outcome, "episodes", _COUNT)
        self.episodes_total += episodes
        self.episodes_max = max(self.episodes_max, episodes)
        if mode != tcas.TA_RA:
            self.ras_before_downgrade.append(_field(log, outcome, "ras_observed", _NUMBER))
        if mode == tcas.STANDBY:
            self.tas_before_standby.append(_field(log, outcome, "tas_after_downgrade", _NUMBER))

    def merge(self, other: "TcasSummary") -> None:
        self.trials += other.trials
        for action, modes in other.matrix.items():
            for mode, count in modes.items():
                self.matrix[action][mode] += count
        for mode, count in other.mode_counts.items():
            self.mode_counts[mode] += count
        self.ras_before_downgrade += other.ras_before_downgrade
        self.tas_before_standby += other.tas_before_standby
        self.episodes_total += other.episodes_total
        self.episodes_max = max(self.episodes_max, other.episodes_max)

    def result(self) -> Dict[str, Any]:
        n = self.trials
        rows = []
        for action, label in TCAS_ACTION_LABELS.items():
            row = [label]
            for mode in TCAS_MODE_LABELS:
                count = self.matrix[action][mode]
                row.extend([count, round(100.0 * count / n, 1)])
            total = sum(self.matrix[action].values())
            row.extend([total, round(100.0 * total / n, 1)])
            rows.append(row)
        ras = _mean_sd(self.ras_before_downgrade)
        tas = _mean_sd(self.tas_before_standby)
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
                "final_mode_ta_ra_fraction": self.mode_counts[tcas.TA_RA] / n,
                "final_mode_ta_only_fraction": self.mode_counts[tcas.TA_ONLY] / n,
                "final_mode_standby_fraction": self.mode_counts[tcas.STANDBY] / n,
                "ras_before_ta_only_mean": ras["mean"],
                "ras_before_ta_only_sd": ras["sd"],
                "additional_tas_before_standby_mean": tas["mean"],
                "additional_tas_before_standby_sd": tas["sd"],
                "episodes_mean": self.episodes_total / n,
                "episodes_max": self.episodes_max,
            },
        }


class GsSummary:
    """First-approach go-arounds, their heights, and the fallback approaches
    flown after them."""

    def __init__(self) -> None:
        self.trials = 0
        self.go_around_agl: List[float] = []
        self.fallbacks: Dict[str, int] = {}
        self.landed_first = 0

    def add(self, log: TrialLog) -> None:
        go_around_agl = [
            _field(log, event, "agl_ft", _NUMBER) for event in log.iter_kind("crew_action")
            if _field(log, event, "action", str) == crew.GO_AROUND
            and _field(log, event, "approach", int) == 1
        ]
        fallbacks = [_field(log, event, "approach_type", str)
                     for event in log.iter_kind("fallback_selected")]
        # At most one first-approach go-around, which selects one fallback.
        if len(go_around_agl) > 1 or len(fallbacks) > len(go_around_agl):
            raise ValueError(f"trial {log.trial_id}: {len(go_around_agl)} first-approach "
                             f"go-arounds and {len(fallbacks)} fallback_selected events")
        self.add_trial(go_around_agl, fallbacks)

    def add_trial(self, go_around_agl: Sequence[float], fallbacks: Iterable[str]) -> None:
        """One trial: the heights of its first-approach go-arounds (none if
        it landed from its first approach) and the fallback approaches it
        selected after them."""

        self.trials += 1
        if go_around_agl:
            self.go_around_agl += go_around_agl
            for ft in fallbacks:
                self.fallbacks[ft] = self.fallbacks.get(ft, 0) + 1
        else:
            self.landed_first += 1

    def merge(self, other: "GsSummary") -> None:
        self.trials += other.trials
        self.go_around_agl += other.go_around_agl
        for ft, count in other.fallbacks.items():
            self.fallbacks[ft] = self.fallbacks.get(ft, 0) + count
        self.landed_first += other.landed_first

    def result(self) -> Dict[str, Any]:
        n = self.trials
        n_ga = len(self.go_around_agl)
        fallbacks = self.fallbacks
        agl = _mean_sd(self.go_around_agl)
        rows = [["Go-around", n_ga, round(100.0 * n_ga / n, 1)],
                ["Land", self.landed_first, round(100.0 * self.landed_first / n, 1)]]
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


class Summary:
    """The fold of one scenario's trial logs: their outcomes plus the
    scenario's own accumulator, chosen by the first log added."""

    def __init__(self) -> None:
        self.scenario: Optional[str] = None
        self.outcomes: Dict[str, int] = {}
        self._scenario_summary: Any = None

    def _scenario(self, scenario: str) -> Any:
        """The accumulator for ``scenario``'s logs, made by the first one."""

        if self.scenario is None:
            from .scenarios import SCENARIOS  # the registry imports this module

            self.scenario = scenario
            self._scenario_summary = SCENARIOS[scenario].summary()
        elif scenario != self.scenario:
            raise ValueError(f"logs span multiple scenarios: {sorted({self.scenario, scenario})}")
        return self._scenario_summary

    def add(self, log: TrialLog) -> None:
        self._scenario(log.scenario)  # logs of another scenario raise first
        self.count(log.scenario, _field(log, log.events[-1], "outcome", str)).add(log)

    def count(self, scenario: str, outcome: str) -> Any:
        """Count a trial of ``scenario`` that ended in ``outcome``; returns
        the scenario's accumulator, which takes the rest of the trial."""

        scenario_summary = self._scenario(scenario)
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        return scenario_summary

    def merge(self, other: "Summary") -> None:
        """Fold in ``other``, the summary of the logs after this one's."""

        if other.scenario is None:
            return
        self._scenario(other.scenario).merge(other._scenario_summary)
        for outcome, count in other.outcomes.items():
            self.outcomes[outcome] = self.outcomes.get(outcome, 0) + count

    def result(self) -> Dict[str, Any]:
        if self.scenario is None:
            raise ValueError("cannot summarize an empty set of trial logs")
        result = self._scenario_summary.result()
        result["scenario"] = self.scenario
        result["trials"] = self._scenario_summary.trials
        result["outcomes"] = dict(sorted(self.outcomes.items()))
        return result


def fold(logs: Iterable[TrialLog]) -> Summary:
    """The `Summary` of ``logs``, read once, in order."""

    summary = Summary()
    for log in logs:
        summary.add(log)
    return summary


def summarize(logs: Iterable[TrialLog]) -> Dict[str, Any]:
    """The summary of ``logs``, read once, in order."""

    return fold(logs).result()
